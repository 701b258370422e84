#pragma once

/// \file worker.hpp
/// The dist substrate's worker: owns one vertex block per graph slot and
/// serves step RPCs to a single coordinator.
///
/// A WorkerServer binds a loopback listen socket on an ephemeral port at
/// construction (the chosen port is readable immediately via port(), which
/// is what lets tests and benches run collision-free), then serve()
/// accepts exactly one coordinator connection and answers frames until
/// kShutdown, peer EOF, or an injected failure.
///
/// Block-local sweeps run through the same bitmap/work-queue engines as
/// the single-process kernels, parallelized across
/// `WorkerOptions::threads` OpenMP threads (default 1 = the exact serial
/// paths; the knob is surfaced as script `workers <n> threads=<k>`).
/// Every floating-point sum a worker produces is per-vertex exclusive and
/// runs in adjacency order through the canonical 4-lane rows
/// (algs/bc_accum.hpp), so results are bit-identical at any thread count.
/// Kernel state (proposal bitmap, component labels, betweenness mirrors)
/// lives across steps of one kernel and is reset by the corresponding
/// kStart message.
///
/// Failure semantics: a handler exception is reported to the coordinator
/// as a kError frame (the reply slot for that request) and the worker
/// keeps serving; only transport-level failures end the loop. The
/// `fail_after` option abruptly closes the connection after N received
/// messages without replying — deterministic mid-kernel worker death for
/// the coordinator's failure-path tests.

#include <atomic>
#include <cstdint>
#include <vector>

#include "algs/bc_accum.hpp"
#include "dist/wire.hpp"
#include "graph/csr_graph.hpp"
#include "util/bitmap.hpp"
#include "util/work_queue.hpp"

namespace graphct::dist {

struct WorkerOptions {
  /// OpenMP threads for block-local sweeps (1 = serial, the default so a
  /// one-core host is never oversubscribed by a multi-worker set).
  int threads = 1;

  /// Abruptly close the coordinator connection after this many received
  /// messages (fault injection; -1 = never). The dropped message gets no
  /// reply, so the coordinator observes a dead socket mid-kernel.
  std::int64_t fail_after = -1;
};

class WorkerServer {
 public:
  explicit WorkerServer(const WorkerOptions& opts = {});
  ~WorkerServer();
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// The bound (ephemeral) listen port.
  [[nodiscard]] int port() const { return port_; }

  /// Accept one coordinator and serve frames until kShutdown, EOF, an
  /// injected failure, or stop(). Always returns normally; handler errors
  /// are reported to the coordinator as kError replies.
  void serve();

  /// Unblock a concurrently running serve() (thread-mode teardown).
  /// Idempotent; safe to call from another thread.
  void stop();

  /// Drop this process's copy of the listen fd *without* shutting the
  /// socket down. Fork-mode parents call this after fork(): shutdown()
  /// would kill the shared listening socket under the child, close() alone
  /// leaves the child's copy accepting.
  void release();

 private:
  /// One resident graph block: rebased offsets over the owned range plus
  /// the adjacency slice, targets in global ids.
  struct Slot {
    bool present = false;
    bool directed = false;
    vid global_n = 0;
    vid begin = 0;
    vid end = 0;
    std::vector<eid> offsets;    ///< size end-begin+1, offsets[0] == 0
    std::vector<vid> adjacency;  ///< global target ids

    [[nodiscard]] std::span<const vid> neighbors(vid global_v) const {
      const auto local = static_cast<std::size_t>(global_v - begin);
      const eid lo = offsets[local];
      const eid hi = offsets[local + 1];
      return {adjacency.data() + lo, static_cast<std::size_t>(hi - lo)};
    }
  };

  void handle(Msg type, const std::string& payload, FrameConn& conn);
  void handle_load(WireReader& r, WireWriter& reply);
  void handle_bfs_step(WireReader& r, WireWriter& reply);
  void handle_cc_step(WireReader& r, WireWriter& reply);
  void handle_pr_step(WireReader& r, WireWriter& reply);
  void handle_bc_source(WireReader& r);
  void handle_bc_forward(WireReader& r, WireWriter& reply);
  void handle_bc_sigma(WireReader& r, WireWriter& reply);
  void handle_bc_backward(WireReader& r, WireWriter& reply);

  /// Expand owned frontier rows, proposing every not-yet-proposed
  /// neighbor. Shared by BFS and the betweenness forward sweep: serial at
  /// threads=1 (deterministic candidate order), per-thread candidate lists
  /// above that (the coordinator dedups and orders either way).
  void expand_owned_rows(const Slot& s, std::span<const std::int64_t> owned,
                         std::vector<vid>& candidates);

  WorkerOptions opts_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;

  Slot slots_[kNumSlots];

  // BFS / BC forward: vertices already proposed during this search (never
  // worth re-proposing — once proposed at level d they are visited by
  // d+1). A bitmap so multi-threaded expansion can mark with set_atomic.
  Bitmap proposed_;
  // Components: mirrored full label array.
  std::vector<vid> labels_;
  // PageRank: which slot to pull in-edges from, plus scratch buffers.
  std::uint8_t pr_slot_ = kSlotPrimary;
  std::vector<double> contrib_;
  std::vector<double> next_;
  std::vector<std::int64_t> scratch_i64_;
  std::vector<double> scratch_f64_;

  // Betweenness state. Mirrors span the global id space (targets are
  // global); the score block covers only the owned range and accumulates
  // across every source of one kBcStart..kBcScores run.
  vid bc_source_ = kNoVertex;
  std::vector<DistCoef> bc_dc_;    ///< per-vertex {coef, dist} mirror
  std::vector<double> bc_sigma_;   ///< sigma mirror
  std::vector<std::vector<vid>> bc_levels_;  ///< full frontier per level
  std::vector<double> bc_score_;   ///< owned block, local index
  std::vector<double> bc_out_;     ///< per-step reply values
  WorkQueue wq_;                   ///< level scheduler for local sweeps
};

}  // namespace graphct::dist
