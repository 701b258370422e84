/// Tests for util/framing: the shared text-reply framing (session protocol)
/// and the binary frame codec (dist wire protocol).

#include "util/framing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(FrameTest, ChecksumMatchesRecordedValues) {
  // The frame checksum is word_checksum64 (four lanes over little-endian
  // 8-byte words), not the FNV-1a-64 of the file trailers. These values pin
  // the function across the empty payload, a lone tail byte, words plus a
  // tail, one exact word, one exact round of four lanes, and 81 bytes (two
  // rounds, two more words and a tail). A peer hashing any other way fails
  // every frame, so a change here needs a new kFrameVersion.
  std::string ramp;
  for (int i = 0; i < 81; ++i) ramp.push_back(static_cast<char>(i * 37 + 1));
  const struct {
    std::string payload;
    std::uint64_t checksum;
  } cases[] = {
      {"", 0x320f013037dbc313ull},
      {"x", 0x5b412b107f34abddull},
      {"cross-check", 0x2647695d144ebc17ull},
      {"abcdefgh", 0xae150955f17e91d6ull},
      {std::string(32, '\0'), 0x0a4c4115b9520b9bull},
      {ramp, 0x0c44244c6332e286ull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(word_checksum64(c.payload.data(), c.payload.size()), c.checksum)
        << c.payload.size() << " bytes";
    const std::string frame = encode_frame(2, c.payload);
    FrameHeader h;
    ASSERT_EQ(decode_frame_header(
                  reinterpret_cast<const unsigned char*>(frame.data()), h),
              HeaderStatus::kOk);
    EXPECT_EQ(h.checksum, c.checksum) << c.payload.size() << " bytes";
  }
}

/// `len` pseudo-random bytes (NUL bytes included).
std::string random_payload(std::mt19937_64& rng, std::size_t len) {
  std::string p(len, '\0');
  for (auto& c : p) c = static_cast<char>(rng());
  return p;
}

TEST(FrameTest, EverySingleBitFlipFailsTheChecksum) {
  // Lengths 0-80 put the flip in every lane, in words before and after a
  // full round of four, and in every position of a 1-7 byte tail.
  std::mt19937_64 rng(2026);
  for (std::size_t len = 0; len <= 80; ++len) {
    const std::string payload = random_payload(rng, len);
    const std::uint64_t sum = word_checksum64(payload.data(), len);
    for (std::size_t bit = 0; bit < 8 * len; ++bit) {
      std::string flipped = payload;
      flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      ASSERT_NE(word_checksum64(flipped.data(), len), sum)
          << "len " << len << " bit " << bit;
    }
  }
}

TEST(FrameTest, SwappedWordsFailTheChecksum) {
  // Swapping two different words, in one lane (i and i + 4) or across
  // lanes, with and without a tail behind them.
  std::mt19937_64 rng(7);
  for (const std::size_t len : {16u, 40u, 64u, 75u}) {
    const std::string payload = random_payload(rng, len);
    const std::uint64_t sum = word_checksum64(payload.data(), len);
    for (std::size_t i = 0; i + 8 <= len; i += 8) {
      for (std::size_t j = i + 8; j + 8 <= len; j += 8) {
        std::string swapped = payload;
        std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(i),
                         swapped.begin() + static_cast<std::ptrdiff_t>(i + 8),
                         swapped.begin() + static_cast<std::ptrdiff_t>(j));
        ASSERT_NE(swapped, payload);
        EXPECT_NE(word_checksum64(swapped.data(), len), sum)
            << "len " << len << " words " << i / 8 << ", " << j / 8;
      }
    }
  }
}

TEST(FrameTest, TruncationAndExtensionFailTheChecksum) {
  // The byte count is folded in, so even a zero byte appended inside the
  // zero-padded tail word changes the checksum, not only the length check.
  std::mt19937_64 rng(11);
  for (std::size_t len = 0; len <= 40; ++len) {
    const std::string payload = random_payload(rng, len);
    const std::string frame = encode_frame(4, payload);
    FrameHeader h;
    ASSERT_EQ(decode_frame_header(
                  reinterpret_cast<const unsigned char*>(frame.data()), h),
              HeaderStatus::kOk);
    ASSERT_TRUE(payload_matches(h, payload));
    for (const std::string& other :
         {payload + std::string(1, '\0'), payload + std::string(8, '\0'),
          payload + "x"}) {
      EXPECT_FALSE(payload_matches(h, other)) << "len " << len;
      EXPECT_NE(word_checksum64(other.data(), other.size()), h.checksum)
          << "len " << len << " extended to " << other.size();
    }
    for (std::size_t cut = 1; cut <= std::min<std::size_t>(len, 9); ++cut) {
      const std::string shorter = payload.substr(0, len - cut);
      EXPECT_FALSE(payload_matches(h, shorter)) << "len " << len;
      EXPECT_NE(word_checksum64(shorter.data(), shorter.size()), h.checksum)
          << "len " << len << " cut to " << shorter.size();
    }
  }
}

TEST(FrameTest, VersionOneHeaderIsBadVersion) {
  // Version 1 frames carried FNV-1a-64. A peer of that version must fail
  // on the header, not on its first checksum.
  ASSERT_EQ(kFrameVersion, 2);
  FrameHeader old;
  old.version = 1;
  old.type = 1;
  unsigned char buf[kFrameHeaderBytes];
  encode_frame_header(old, buf);
  FrameHeader out;
  EXPECT_EQ(decode_frame_header(buf, out), HeaderStatus::kBadVersion);
  EXPECT_EQ(out.version, 1);
}

}  // namespace
}  // namespace graphct::framing
