#pragma once

/// \file framing.hpp
/// The two wire framings GraphCT speaks, in one place so there is exactly
/// one implementation to test and fuzz:
///
///  * **Text replies** — the graphctd session protocol's response framing
///    (docs/SERVER.md). Compat framing is payload lines followed by one
///    `ok`/`error` terminator line; framed v1 is a single
///    `gct/1 <status> lines=<n> [id=<rid>] [accounting]` header followed by
///    exactly n payload lines. Extracted from server::Session so the server
///    and any future client render/parse through the same code.
///
///  * **Binary frames** — the length-prefixed, checksummed frames the dist
///    substrate (src/dist/, docs/DISTRIBUTED.md) exchanges between the
///    coordinator and worker processes. A frame is a fixed 24-byte header
///    (magic, version, message type, payload length, payload checksum)
///    followed by the payload bytes. The checksum is util/checksum.hpp's
///    word_checksum64 (four lanes over 8-byte words), not the byte-serial
///    FNV-1a-64 that guards the binary graph and packed storage files: the
///    coordinator hashes every frame byte on its serial path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace graphct::framing {

// ---------------------------------------------------------------------------
// Text reply framing (graphctd session protocol).

/// Response framing spoken by a session (see file comment).
enum class TextProtocol { kCompat, kFramedV1 };

/// One logical response, independent of framing.
struct TextReply {
  enum class Status { kOk, kError, kBusy };
  Status status = Status::kOk;
  std::string payload;     ///< '\n'-terminated output lines (may be empty)
  std::string message;     ///< error/busy reason (single line, no '\n')
  std::string accounting;  ///< job trailer tokens, leading space
};

/// Number of '\n'-terminated lines in `payload`.
std::size_t count_lines(std::string_view payload);

/// Render `reply` in the requested framing, echoing `request_id` when
/// non-empty. The returned text always ends in '\n' and is the complete
/// response for one request.
std::string render_text_reply(const TextReply& reply,
                              const std::string& request_id,
                              TextProtocol protocol);

/// Parsed `gct/1` header line (client side of framed v1).
struct TextHeader {
  TextReply::Status status = TextReply::Status::kOk;
  std::size_t lines = 0;    ///< payload lines that follow the header
  std::string request_id;   ///< echoed id, "" when absent
};

/// Parse one framed-v1 header line (no trailing '\n'). Returns false when
/// `line` is not a well-formed `gct/1` header, including a `lines=` count
/// that does not fit size_t.
bool parse_text_header(std::string_view line, TextHeader& out);

// ---------------------------------------------------------------------------
// Binary frame codec (dist wire protocol).

inline constexpr std::uint32_t kFrameMagic = 0x46544347u;  // "GCTF", LE
/// Version 2 switched the payload checksum from FNV-1a-64 to
/// word_checksum64, so a peer of the other version fails on the header
/// ("unsupported frame version"), not on the first checksum.
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// Refuse absurd lengths before allocating: a corrupt header must not make
/// the receiver reserve petabytes. 1 GiB comfortably bounds every dist
/// message (the largest is a full rank/contrib vector).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Decoded frame header. `checksum` is word_checksum64 over the payload
/// bytes.
struct FrameHeader {
  std::uint8_t version = kFrameVersion;
  std::uint8_t type = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
};

/// Serialize `h` into `out` (little-endian, reserved bytes zeroed).
void encode_frame_header(const FrameHeader& h,
                         unsigned char out[kFrameHeaderBytes]);

enum class HeaderStatus { kOk, kBadMagic, kBadVersion, kOversized };

/// Decode kFrameHeaderBytes from `in`. On any status other than kOk the
/// contents of `out` are unspecified.
HeaderStatus decode_frame_header(const unsigned char* in, FrameHeader& out);

/// Encode one complete frame (header + payload) ready to write to a socket.
std::string encode_frame(std::uint8_t type, std::string_view payload);

/// True when `payload` matches the length and checksum `h` declares.
bool payload_matches(const FrameHeader& h, std::string_view payload);

}  // namespace graphct::framing
