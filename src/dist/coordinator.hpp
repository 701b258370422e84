#pragma once

/// \file coordinator.hpp
/// The dist substrate's coordinator: drives N workers through partitioned
/// kernels over the framed wire protocol (dist/wire.hpp).
///
/// graphctd and the CLI embed a Coordinator per distributed job context:
/// connect() performs the hello handshake against already-listening
/// workers, load_graph() partitions a CsrGraph into 1-D vertex blocks
/// (dist/partition.hpp) and ships each worker its slice (plus the
/// partitioned reverse graph when the input is directed, for PageRank's
/// pull), and the three kernel entry points run superstep loops:
///
///   * bfs_distances — frontier exchange per level; the coordinator owns
///     the global distance array, sends each worker its owned frontier
///     slice, and merges candidate discoveries. Levels are unique, so
///     distances are *identical* to the single-process kernel.
///   * components — label propagation with delta exchange; workers mirror
///     the full label array and propose minima from their owned rows. The
///     fixed point (min vertex id per component) is exactly the
///     single-process kernel's canonical labeling.
///   * pagerank — block-row pull SpMV with rank exchange and a
///     convergence reduction; the coordinator computes contributions and
///     the dangling redistribution, workers accumulate owned rows in the
///     single-process kernel's adjacency order. Per-vertex sums match to
///     the last ulp modulo the dangling-mass reduction order.
///   * betweenness — Brandes per source: a forward sweep exchanging
///     per-level frontiers + sigma, then a level-synchronous backward
///     sweep exchanging coefficients (the PR 9 coefficient form — no
///     atomics cross the wire). Workers accumulate owned score blocks
///     across all sources; every sum runs through the canonical 4-lane
///     rows (algs/bc_accum.hpp), so scores are **bit-identical** to
///     single-process fine-mode betweenness_centrality at any worker or
///     worker-thread count.
///
/// Exchanges are overlapped: requests are queued into per-connection
/// outboxes and a poll() loop drives every socket at once, merging each
/// worker's reply the moment it completes — so one worker's compute
/// overlaps another's transfer, and the coordinator never blocks on a
/// send. All merge callbacks are order-independent (first assignment,
/// then ascending order; monotone min; or disjoint block copies), so
/// results do not depend on the order replies arrive in.
///
/// ## Failure semantics
///
/// Any transport failure (dead socket, checksum mismatch, worker kError
/// reply) cancels exactly the in-flight kernel: the coordinator closes all
/// worker connections, records the reason, and throws graphct::Error with
/// an explicit message. Later kernel calls fail fast with the stored
/// reason (degraded()), so a wedged substrate can never hang a job — the
/// embedding layer (Toolkit / interpreter / graphctd job) surfaces the
/// error reply and the registry graph stays fully serviceable through the
/// single-process kernels.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "algs/pagerank.hpp"
#include "dist/partition.hpp"
#include "dist/wire.hpp"
#include "graph/csr_graph.hpp"

namespace graphct::dist {

/// Traffic and superstep accounting, aggregated over all workers.
struct DistStats {
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t steps = 0;  ///< kernel supersteps driven
};

class Coordinator {
 public:
  Coordinator() = default;
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Connect to workers listening on 127.0.0.1:ports[i] and handshake.
  void connect(const std::vector<int>& ports);

  /// Partition `g` across the connected workers and ship every block.
  /// Directed graphs also ship the partitioned reverse graph (PageRank's
  /// pull slot). May be called again to load a different graph.
  void load_graph(const CsrGraph& g);

  [[nodiscard]] int num_workers() const {
    return static_cast<int>(conns_.size());
  }
  [[nodiscard]] bool loaded() const { return loaded_; }
  [[nodiscard]] const Partition& partition() const { return partition_; }

  /// Distributed BFS: hop distances from `source` (kNoVertex when
  /// unreached), identical to algs/bfs distances. `max_depth` bounds the
  /// level count (kNoVertex = unbounded).
  std::vector<vid> bfs_distances(vid source, vid max_depth = kNoVertex);

  /// Distributed weak components: canonical min-vertex-id labels,
  /// identical to algs/connected_components' weak_components.
  std::vector<vid> components();

  /// Distributed PageRank, numerically matching algs/pagerank.
  PageRankResult pagerank(const PageRankOptions& opts = {});

  /// Distributed Brandes betweenness from the given sources (undirected
  /// graphs only). Sources run in coordinator order and the score blocks
  /// are gathered once at the end. Returns the raw sums, bit-identical
  /// to the single-process fine plan over the same source list.
  std::vector<double> betweenness(std::span<const vid> sources);

  /// Graceful worker shutdown (kShutdown to every live worker). Called by
  /// the destructor; safe to call repeatedly.
  void shutdown();

  /// True once a worker failure has poisoned this coordinator; every
  /// kernel call then throws the failure's reason without touching sockets.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Cumulative traffic since connect(), plus supersteps driven.
  [[nodiscard]] DistStats stats() const;

  /// Traffic/steps attributable to the most recent kernel call.
  [[nodiscard]] const DistStats& last_kernel_stats() const {
    return last_kernel_;
  }

 private:
  /// Throws the stored degraded reason, or checks connection state.
  void require_ready() const;
  /// Mark the substrate dead and throw an explicit kernel-cancelled error.
  [[noreturn]] void fail(int worker, const std::string& what,
                         const std::string& detail);
  /// Send one request to worker w (failure -> fail()).
  void send_to(int w, Msg type, std::string payload, const char* what);
  /// Receive worker w's reply, demanding `expect` (kError -> fail()).
  std::string recv_from(int w, Msg expect, const char* what);
  /// One superstep round: send `payloads[w]` (or `payloads[0]` to every
  /// worker when size()==1) as `type`, receive one `expect` reply per
  /// worker, handing each to `on_reply(w, payload)`. Overlapped mode
  /// delivers replies in completion order; callers' merges must be
  /// order-independent. Any failure -> fail().
  void exchange(Msg type, const std::vector<std::string>& payloads,
                Msg expect, const char* what,
                const std::function<void(int, std::string&)>& on_reply);
  /// One frontier superstep: exchange `payloads` as `type` and merge the
  /// workers' `expect` candidate replies into the level at depth `d`. A
  /// candidate joins the first time it is proposed (its `dist` becomes
  /// d); the level is returned in ascending vertex order.
  std::vector<vid> expand_level(Msg type,
                                const std::vector<std::string>& payloads,
                                Msg expect, const char* what,
                                std::vector<vid>& dist, vid d);
  /// Worker w's owned slice [offset, offset+len) of a sorted vertex list.
  std::pair<std::int64_t, std::int64_t> owned_span(
      const std::vector<vid>& sorted, int w) const;
  /// Ship one graph's blocks into `slot` using the current partition.
  void ship_blocks(const CsrGraph& g, std::uint8_t slot);
  DistStats snapshot_traffic() const;
  void begin_kernel();
  void end_kernel(const char* kernel, std::int64_t steps);

  std::vector<FrameConn> conns_;
  Partition partition_;
  bool loaded_ = false;
  bool degraded_ = false;
  std::string degraded_reason_;

  // Retained from load_graph for PageRank's contribution pass.
  std::vector<vid> out_degree_;
  bool directed_ = false;
  vid global_n_ = 0;

  std::int64_t total_steps_ = 0;
  DistStats last_kernel_;
  DistStats kernel_base_;
};

}  // namespace graphct::dist
