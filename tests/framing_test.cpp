/// Tests for util/framing: the shared text-reply framing (session protocol)
/// and the binary frame codec (dist wire protocol).

#include "util/framing.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "util/checksum.hpp"

namespace graphct::framing {
namespace {

// ------------------------------------------------------------- text replies

TEST(TextReplyTest, CompatOkRendersPayloadThenTerminator) {
  TextReply r;
  r.payload = "a\nb\n";
  EXPECT_EQ(render_text_reply(r, "", TextProtocol::kCompat), "a\nb\nok\n");
}

TEST(TextReplyTest, CompatOkEchoesIdAndAccounting) {
  TextReply r;
  r.payload = "x\n";
  r.accounting = " wait_ms=1 run_ms=2";
  EXPECT_EQ(render_text_reply(r, "42", TextProtocol::kCompat),
            "x\nok id=42 wait_ms=1 run_ms=2\n");
}

TEST(TextReplyTest, CompatErrorCarriesMessage) {
  TextReply r;
  r.status = TextReply::Status::kError;
  r.message = "no such graph";
  EXPECT_EQ(render_text_reply(r, "", TextProtocol::kCompat),
            "error no such graph\n");
  EXPECT_EQ(render_text_reply(r, "7", TextProtocol::kCompat),
            "error id=7 no such graph\n");
}

TEST(TextReplyTest, CompatBusyRendersAsErrorWithBusyHint) {
  TextReply r;
  r.status = TextReply::Status::kBusy;
  r.message = "queue full";
  EXPECT_EQ(render_text_reply(r, "", TextProtocol::kCompat),
            "error busy: queue full\n");
}

TEST(TextReplyTest, CompatAppendsMissingTrailingNewline) {
  TextReply r;
  r.payload = "no newline";
  EXPECT_EQ(render_text_reply(r, "", TextProtocol::kCompat),
            "no newline\nok\n");
}

TEST(TextReplyTest, FramedV1OkHeaderCountsLines) {
  TextReply r;
  r.payload = "a\nb\nc\n";
  EXPECT_EQ(render_text_reply(r, "", TextProtocol::kFramedV1),
            "gct/1 ok lines=3\na\nb\nc\n");
}

TEST(TextReplyTest, FramedV1ErrorAppendsMessageAsLastLine) {
  TextReply r;
  r.status = TextReply::Status::kError;
  r.payload = "partial\n";
  r.message = "kernel failed";
  EXPECT_EQ(render_text_reply(r, "9", TextProtocol::kFramedV1),
            "gct/1 error lines=2 id=9\npartial\nkernel failed\n");
}

TEST(TextReplyTest, FramedV1AccountingOnlyOnOk) {
  TextReply r;
  r.status = TextReply::Status::kError;
  r.message = "nope";
  r.accounting = " run_ms=5";
  const std::string s = render_text_reply(r, "", TextProtocol::kFramedV1);
  EXPECT_EQ(s.find("run_ms"), std::string::npos) << s;
}

TEST(TextReplyTest, RenderParseRoundTrip) {
  TextReply r;
  r.status = TextReply::Status::kBusy;
  r.message = "shed";
  const std::string s = render_text_reply(r, "id-1", TextProtocol::kFramedV1);
  const std::string header = s.substr(0, s.find('\n'));
  TextHeader h;
  ASSERT_TRUE(parse_text_header(header, h)) << header;
  EXPECT_EQ(h.status, TextReply::Status::kBusy);
  EXPECT_EQ(h.lines, 1u);
  EXPECT_EQ(h.request_id, "id-1");
}

TEST(TextHeaderTest, ParsesOkWithAccountingTrailer) {
  TextHeader h;
  ASSERT_TRUE(parse_text_header("gct/1 ok lines=12 id=a7 wait_ms=0", h));
  EXPECT_EQ(h.status, TextReply::Status::kOk);
  EXPECT_EQ(h.lines, 12u);
  EXPECT_EQ(h.request_id, "a7");
}

TEST(TextHeaderTest, RejectsMalformedHeaders) {
  TextHeader h;
  EXPECT_FALSE(parse_text_header("", h));
  EXPECT_FALSE(parse_text_header("gct/2 ok lines=1", h));
  EXPECT_FALSE(parse_text_header("gct/1 nope lines=1", h));
  EXPECT_FALSE(parse_text_header("gct/1 ok", h));
  EXPECT_FALSE(parse_text_header("gct/1 ok lines=", h));
  EXPECT_FALSE(parse_text_header("gct/1 ok count=3", h));
  // 2^64 + 1 does not fit size_t; it must not wrap to 1.
  EXPECT_FALSE(parse_text_header("gct/1 ok lines=18446744073709551617", h));
}

TEST(TextReplyTest, CountLines) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("a"), 0u);  // unterminated fragment
  EXPECT_EQ(count_lines("a\n"), 1u);
  EXPECT_EQ(count_lines("a\nb\nc\n"), 3u);
}

// ------------------------------------------------------------ binary frames

TEST(FrameTest, HeaderRoundTrip) {
  FrameHeader in;
  in.type = 7;
  in.payload_len = 123456;
  in.checksum = 0xdeadbeefcafef00dull;
  unsigned char buf[kFrameHeaderBytes];
  encode_frame_header(in, buf);
  FrameHeader out;
  ASSERT_EQ(decode_frame_header(buf, out), HeaderStatus::kOk);
  EXPECT_EQ(out.version, kFrameVersion);
  EXPECT_EQ(out.type, 7);
  EXPECT_EQ(out.payload_len, 123456u);
  EXPECT_EQ(out.checksum, 0xdeadbeefcafef00dull);
}

TEST(FrameTest, EncodeFrameMatchesItsOwnHeader) {
  const std::string payload = "hello, workers";
  const std::string frame = encode_frame(3, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  FrameHeader h;
  ASSERT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kOk);
  EXPECT_EQ(h.type, 3);
  EXPECT_TRUE(payload_matches(h, frame.substr(kFrameHeaderBytes)));
}

TEST(FrameTest, EmptyPayloadFrame) {
  const std::string frame = encode_frame(1, "");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  FrameHeader h;
  ASSERT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kOk);
  EXPECT_EQ(h.payload_len, 0u);
  EXPECT_TRUE(payload_matches(h, ""));
}

TEST(FrameTest, BadMagicDetected) {
  std::string frame = encode_frame(1, "x");
  frame[0] ^= 0x01;
  FrameHeader h;
  EXPECT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kBadMagic);
}

TEST(FrameTest, BadVersionDetected) {
  std::string frame = encode_frame(1, "x");
  frame[4] = 99;
  FrameHeader h;
  EXPECT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kBadVersion);
}

TEST(FrameTest, OversizedLengthDetected) {
  FrameHeader in;
  in.payload_len = kMaxFramePayload + 1;
  unsigned char buf[kFrameHeaderBytes];
  encode_frame_header(in, buf);
  FrameHeader out;
  EXPECT_EQ(decode_frame_header(buf, out), HeaderStatus::kOversized);
}

TEST(FrameTest, PayloadCorruptionFailsChecksum) {
  std::string payload = "the quick brown fox";
  const std::string frame = encode_frame(5, payload);
  FrameHeader h;
  ASSERT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kOk);
  payload[3] ^= 0x40;
  EXPECT_FALSE(payload_matches(h, payload));
  EXPECT_FALSE(payload_matches(h, payload.substr(1)));  // wrong length too
}

TEST(FrameTest, DeterministicFuzzRoundTrip) {
  // Random payloads (including NUL bytes) survive encode/decode, and a
  // single flipped bit anywhere in the payload always trips the checksum.
  std::mt19937_64 rng(12345);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng() % 512);
    std::string payload(len, '\0');
    for (auto& c : payload) c = static_cast<char>(rng());
    const auto type = static_cast<std::uint8_t>(rng() % 256);

    const std::string frame = encode_frame(type, payload);
    FrameHeader h;
    ASSERT_EQ(decode_frame_header(
                  reinterpret_cast<const unsigned char*>(frame.data()), h),
              HeaderStatus::kOk);
    EXPECT_EQ(h.type, type);
    ASSERT_TRUE(payload_matches(h, payload));

    if (!payload.empty()) {
      std::string corrupt = payload;
      corrupt[rng() % corrupt.size()] ^=
          static_cast<char>(1u << (rng() % 8));
      if (corrupt != payload) {
        EXPECT_FALSE(payload_matches(h, corrupt));
      }
    }
  }
}

TEST(FrameTest, ChecksumIsFnv1a64) {
  // The frame checksum is the same primitive guarding the binary graph
  // format; a frame written by one subsystem verifies with the other's.
  const std::string payload = "cross-check";
  const std::string frame = encode_frame(2, payload);
  FrameHeader h;
  ASSERT_EQ(decode_frame_header(
                reinterpret_cast<const unsigned char*>(frame.data()), h),
            HeaderStatus::kOk);
  EXPECT_EQ(h.checksum, fnv1a64(payload.data(), payload.size()));
}

}  // namespace
}  // namespace graphct::framing
