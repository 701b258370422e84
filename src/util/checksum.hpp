#pragma once

/// \file checksum.hpp
/// The two checksums GraphCT writes. Neither is cryptographic; both exist
/// to catch truncation, bit rot, and cross-format confusion, cheaply and
/// with no dependencies.
///
///  * FNV-1a-64 guards the files: the binary graph format trailer
///    (graph/io_binary) and the packed storage format trailer
///    (storage/packed_format). It is byte-serial, and it stays so that
///    files already on disk stay readable.
///  * word_checksum64 guards the dist frames (util/framing), which the
///    coordinator hashes on its serial path for every byte of every
///    superstep: four independent lanes over 8-byte words.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace graphct {

/// Incremental FNV-1a 64. Feed bytes in any chunking; digest() is the
/// checksum of everything fed so far.
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  void update(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = hash_;
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= static_cast<std::uint64_t>(p[i]);
      h *= kPrime;
    }
    hash_ = h;
  }

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// One-shot convenience over a single buffer.
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  Fnv1a64 h;
  h.update(data, bytes);
  return h.digest();
}

namespace detail {

/// One lane step. For a fixed word it is a bijection of the state (xor,
/// multiply by an odd constant, xorshift), and for a fixed state it is a
/// bijection of the word.
inline std::uint64_t word_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * Fnv1a64::kPrime;
  return h ^ (h >> 29);
}

/// The 8 bytes at `p` as a little-endian word.
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

}  // namespace detail

/// Word-wise 64-bit checksum of `bytes` bytes. Word i (little-endian)
/// steps lane i mod 4; the 0-7 tail bytes, gathered byte by byte into one
/// zero-padded word, step the next lane in turn; then the byte count and
/// the four lanes are folded into one state with the same step. Every
/// step is a bijection of its lane's state, so between two buffers of one
/// length, a change confined to one 8-byte word (every single-bit flip
/// included) always changes the digest. The lanes carry no dependency on
/// one another, so the loop retires four words per multiply latency where
/// FNV-1a-64 retires one byte.
inline std::uint64_t word_checksum64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kSpread = 0x9e3779b97f4a7c15ull;  // odd, 2^64/phi
  std::uint64_t lane[4] = {Fnv1a64::kOffsetBasis,
                           Fnv1a64::kOffsetBasis + kSpread,
                           Fnv1a64::kOffsetBasis + 2 * kSpread,
                           Fnv1a64::kOffsetBasis + 3 * kSpread};
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    lane[0] = detail::word_step(lane[0], detail::load_le64(p + i));
    lane[1] = detail::word_step(lane[1], detail::load_le64(p + i + 8));
    lane[2] = detail::word_step(lane[2], detail::load_le64(p + i + 16));
    lane[3] = detail::word_step(lane[3], detail::load_le64(p + i + 24));
  }
  std::size_t k = 0;
  for (; i + 8 <= bytes; i += 8, ++k) {
    lane[k] = detail::word_step(lane[k], detail::load_le64(p + i));
  }
  if (i < bytes) {
    std::uint64_t tail = 0;
    for (std::size_t j = i; j < bytes; ++j) {
      tail |= static_cast<std::uint64_t>(p[j]) << (8 * (j - i));
    }
    lane[k] = detail::word_step(lane[k], tail);
  }
  std::uint64_t h = detail::word_step(lane[0], bytes);
  h = detail::word_step(h, lane[1]);
  h = detail::word_step(h, lane[2]);
  return detail::word_step(h, lane[3]);
}

}  // namespace graphct
