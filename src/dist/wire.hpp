#pragma once

/// \file wire.hpp
/// The dist substrate's wire protocol: message vocabulary, payload
/// serialization, and a blocking framed-socket connection.
///
/// Every message is one binary frame (util/framing: 24-byte header with
/// magic, version, type, payload length, and a word-wise 64-bit payload
/// checksum). Payloads are little-endian scalar/array encodings written by
/// WireWriter and read back by WireReader with bounds-checked cursors — a
/// truncated or corrupt payload throws, it never reads past the buffer.
///
/// The protocol is a strict coordinator-driven request/reply: the
/// coordinator sends one request per worker per superstep and each worker
/// answers with exactly one reply (kError counts as the reply). Workers
/// never talk to each other — all exchange is mediated by the coordinator
/// (star topology), which is what keeps failure handling tractable: any
/// I/O error on one socket fails exactly one in-flight kernel.
///
/// FrameConn tallies message/byte traffic into the process-global obs
/// registry (`gct_dist_messages_total{dir=...}` /
/// `gct_dist_bytes_total{dir=...}`) and into per-connection counters the
/// coordinator aggregates into DistStats.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/framing.hpp"

namespace graphct::dist {

/// Message types. The numeric values are wire format — append only.
enum class Msg : std::uint8_t {
  kHello = 1,      ///< coordinator -> worker: protocol handshake
  kHelloAck = 2,   ///< worker -> coordinator: version, pid, OpenMP threads
  kLoadBlock = 3,  ///< ship one graph slot's block (offsets + adjacency)
  kLoadAck = 4,    ///< block resident; echoes entry count
  kBfsStart = 5,   ///< begin a BFS (resets the proposal bitmap)
  kBfsStep = 6,    ///< owned frontier slice for this level
  kBfsFrontier = 7,  ///< deduped candidate discoveries
  kCcStart = 8,    ///< begin components (labels reset to identity)
  kCcStep = 9,     ///< label delta to apply; worker rescans owned rows
  kCcDelta = 10,   ///< proposed label minima from owned rows
  kPrStart = 11,   ///< begin PageRank (selects the pull slot)
  kPrStep = 12,    ///< base + damping + full contrib vector
  kPrRanks = 13,   ///< next-rank values for the owned range
  kAck = 14,       ///< generic success reply
  kError = 15,     ///< worker-side failure; payload = message string
  kShutdown = 16,  ///< coordinator -> worker: clean exit after kAck
  // Distributed betweenness supersteps. Forward: one expand + one sigma
  // exchange per BFS level; backward: one coefficient exchange per level,
  // deepest first (coefficient form — no atomics cross the wire).
  kBcStart = 17,       ///< begin betweenness (zeroes the owned score block)
  kBcSource = 18,      ///< per-source reset; payload = source vertex
  kBcForward = 19,     ///< sigma of the previous frontier; expand owned rows
  kBcCandidates = 20,  ///< proposed next-level discoveries
  kBcSigma = 21,       ///< the merged new frontier; pull sigma for owned slice
  kBcSigmaBlock = 22,  ///< sigma values for the owned frontier slice
  kBcBackward = 23,    ///< coefs one level deeper; sweep the owned bucket
  kBcCoefBlock = 24,   ///< coef values for the owned level bucket
  kBcScores = 25,      ///< gather request for the accumulated score block
  kBcScoreBlock = 26,  ///< owned score block (accumulated over all sources)
};

/// Human-readable message name (diagnostics and error text).
const char* msg_name(Msg m);

/// Graph slots a worker can hold: the primary partition and, for directed
/// PageRank, the partitioned reverse graph (pull needs in-edges).
inline constexpr std::uint8_t kSlotPrimary = 0;
inline constexpr std::uint8_t kSlotReverse = 1;
inline constexpr int kNumSlots = 2;

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  /// Length-prefixed array of i64 (vid/eid both encode through this).
  void i64_span(std::span<const std::int64_t> v);
  void f64_span(std::span<const double> v);

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);

  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload cursor. Throws graphct::Error on under-run.
class WireReader {
 public:
  explicit WireReader(std::string_view payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}
  /// A reader borrows the payload; binding a temporary would dangle.
  explicit WireReader(std::string&&) = delete;

  std::uint8_t u8();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  void i64_vec(std::vector<std::int64_t>& out);
  void f64_vec(std::vector<double>& out);
  std::string str();

  [[nodiscard]] bool done() const { return p_ == end_; }

 private:
  void need(std::size_t bytes) const;
  const char* p_;
  const char* end_;
};

/// Per-connection traffic counters (coordinator aggregates into DistStats).
struct Traffic {
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
};

/// One framed connection over a socket fd. Owns the fd. send()
/// and recv() throw graphct::Error on I/O failure, mid-frame EOF, bad
/// magic/version, or checksum mismatch; recv() returns false only on clean
/// EOF at a frame boundary.
///
/// Besides the blocking pair there is a non-blocking progress API for the
/// coordinator's overlapped exchange: queue_send() encodes a frame into a
/// per-connection outbox (double buffering — the caller's payload is free
/// to be reused immediately), flush_some()/recv_some() advance the send
/// and receive sides without ever blocking (MSG_DONTWAIT on the otherwise
/// blocking socket), and a poll() loop drives many connections at once.
/// The two APIs must not be interleaved mid-frame on the same direction;
/// kernels use one or the other per exchange round.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn() { close(); }
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  FrameConn(FrameConn&& o) noexcept;
  FrameConn& operator=(FrameConn&& o) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  void send(Msg type, std::string_view payload);
  [[nodiscard]] bool recv(Msg& type, std::string& payload);

  /// Encode a frame into the outbox without touching the socket (counted
  /// as sent traffic immediately; a failed flush fails the kernel anyway).
  void queue_send(Msg type, std::string_view payload);
  /// True while queued frame bytes remain unsent.
  [[nodiscard]] bool send_pending() const { return out_pos_ < outbox_.size(); }
  /// Push outbox bytes with MSG_DONTWAIT. Returns true once the outbox is
  /// drained; false means the socket would block (poll for POLLOUT).
  /// Throws graphct::Error on I/O failure.
  bool flush_some();
  /// Pull frame bytes with MSG_DONTWAIT. Returns true when a complete
  /// frame has been decoded into (type, payload); false means more bytes
  /// are needed (poll for POLLIN). Throws on EOF or I/O/decode failure —
  /// the peer must not hang up while a reply is owed.
  bool recv_some(Msg& type, std::string& payload);

  [[nodiscard]] const Traffic& traffic() const { return traffic_; }

 private:
  int fd_ = -1;
  Traffic traffic_;
  // Non-blocking send side: encoded frames pending transmission.
  std::string outbox_;
  std::size_t out_pos_ = 0;
  // Non-blocking receive side: partial header, then partial payload.
  unsigned char in_header_[framing::kFrameHeaderBytes];
  framing::FrameHeader in_h_;
  std::size_t in_got_ = 0;
  bool in_have_header_ = false;
  std::string in_payload_;
};

/// Connect to a worker listening on 127.0.0.1:port. Throws on failure.
FrameConn connect_local(int port);

}  // namespace graphct::dist
