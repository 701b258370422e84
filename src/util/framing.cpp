#include "util/framing.hpp"

#include <charconv>
#include <cstring>

#include "util/checksum.hpp"

namespace graphct::framing {

std::size_t count_lines(std::string_view payload) {
  std::size_t n = 0;
  for (const char c : payload) {
    if (c == '\n') ++n;
  }
  return n;
}

std::string render_text_reply(const TextReply& reply,
                              const std::string& request_id,
                              TextProtocol protocol) {
  const char* status = reply.status == TextReply::Status::kOk      ? "ok"
                       : reply.status == TextReply::Status::kError ? "error"
                                                                   : "busy";
  std::string payload = reply.payload;
  if (!payload.empty() && payload.back() != '\n') payload += '\n';

  if (protocol == TextProtocol::kCompat) {
    // Original framing: payload lines, then one terminator line starting
    // "ok" or "error". Shed requests render as errors so old clients keep
    // framing correctly; the "busy:" prefix is the machine-readable hint.
    std::string term;
    if (reply.status == TextReply::Status::kBusy) {
      term = "error";
      if (!request_id.empty()) term += " id=" + request_id;
      term += " busy: " + reply.message;
    } else if (reply.status == TextReply::Status::kError) {
      term = "error";
      if (!request_id.empty()) term += " id=" + request_id;
      term += " " + reply.message;
    } else {
      term = "ok";
      if (!request_id.empty()) term += " id=" + request_id;
      term += reply.accounting;
    }
    return payload + term + "\n";
  }

  // Framed v1: one header line with a payload line count, then exactly
  // that many lines. Errors carry the message as the last payload line;
  // busy responses carry the reason as their only payload line.
  if (reply.status != TextReply::Status::kOk && !reply.message.empty()) {
    payload += reply.message + "\n";
  }
  std::string header = "gct/1 ";
  header += status;
  header += " lines=" + std::to_string(count_lines(payload));
  if (!request_id.empty()) header += " id=" + request_id;
  if (reply.status == TextReply::Status::kOk) header += reply.accounting;
  return header + "\n" + payload;
}

bool parse_text_header(std::string_view line, TextHeader& out) {
  constexpr std::string_view kMagic = "gct/1 ";
  if (line.substr(0, kMagic.size()) != kMagic) return false;
  line.remove_prefix(kMagic.size());

  const std::size_t sp = line.find(' ');
  const std::string_view status =
      sp == std::string_view::npos ? line : line.substr(0, sp);
  if (status == "ok") {
    out.status = TextReply::Status::kOk;
  } else if (status == "error") {
    out.status = TextReply::Status::kError;
  } else if (status == "busy") {
    out.status = TextReply::Status::kBusy;
  } else {
    return false;
  }
  if (sp == std::string_view::npos) return false;
  line.remove_prefix(sp + 1);

  constexpr std::string_view kLines = "lines=";
  if (line.substr(0, kLines.size()) != kLines) return false;
  line.remove_prefix(kLines.size());
  std::size_t lines = 0;
  const auto [end, ec] =
      std::from_chars(line.data(), line.data() + line.size(), lines);
  if (ec != std::errc()) return false;  // no digits, or beyond size_t
  out.lines = lines;
  line.remove_prefix(static_cast<std::size_t>(end - line.data()));

  out.request_id.clear();
  constexpr std::string_view kId = " id=";
  if (line.substr(0, kId.size()) == kId) {
    line.remove_prefix(kId.size());
    const std::size_t end = line.find(' ');
    out.request_id = std::string(
        end == std::string_view::npos ? line : line.substr(0, end));
  }
  return true;
}

namespace {

void put_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void encode_frame_header(const FrameHeader& h,
                         unsigned char out[kFrameHeaderBytes]) {
  put_u32(out, kFrameMagic);
  out[4] = h.version;
  out[5] = h.type;
  out[6] = 0;  // reserved
  out[7] = 0;
  put_u64(out + 8, h.payload_len);
  put_u64(out + 16, h.checksum);
}

HeaderStatus decode_frame_header(const unsigned char* in, FrameHeader& out) {
  if (get_u32(in) != kFrameMagic) return HeaderStatus::kBadMagic;
  out.version = in[4];
  out.type = in[5];
  out.payload_len = get_u64(in + 8);
  out.checksum = get_u64(in + 16);
  if (out.version != kFrameVersion) return HeaderStatus::kBadVersion;
  if (out.payload_len > kMaxFramePayload) return HeaderStatus::kOversized;
  return HeaderStatus::kOk;
}

std::string encode_frame(std::uint8_t type, std::string_view payload) {
  FrameHeader h;
  h.type = type;
  h.payload_len = payload.size();
  h.checksum = word_checksum64(payload.data(), payload.size());
  std::string out;
  out.resize(kFrameHeaderBytes + payload.size());
  encode_frame_header(h, reinterpret_cast<unsigned char*>(out.data()));
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return out;
}

bool payload_matches(const FrameHeader& h, std::string_view payload) {
  return h.payload_len == payload.size() &&
         h.checksum == word_checksum64(payload.data(), payload.size());
}

}  // namespace graphct::framing
