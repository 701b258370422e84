#pragma once

/// \file betweenness.hpp
/// Betweenness centrality — GraphCT's flagship kernel.
///
/// BC(v) = sum over s != v != t of sigma_st(v) / sigma_st, the fraction of
/// shortest paths passing through v (§II-A). Exact evaluation runs Brandes'
/// dependency accumulation from every source; the massive-graph mode samples
/// a random subset of sources ("Approximating this metric by randomly
/// sampling a small number of source vertices improves the running times",
/// §II-A, after Bader et al. 2007). The paper's headline numbers use 256
/// sampled sources.
///
/// Parallel decomposition mirrors §II-B, chosen by plan_betweenness() from
/// the thread count and the score-memory budget:
///  * coarse — independent sources run concurrently across a team of
///    private score buffers, tree-reduced once at the end;
///  * fine — one source at a time, with the BFS, path-count, and dependency
///    sweeps parallel across each level. Every write is per-vertex
///    exclusive, so fine scores are bit-identical for any thread count.
///    It runs at one thread, and whenever the budget cannot hold two
///    buffers (huge graphs).
///
/// On undirected in-memory graphs both sweeps read a layout that folds the
/// degree-1 vertices out of the search (algs/bc_layout.hpp): a leaf never
/// lies on a shortest path between two others, and its state follows from
/// its neighbour's, bit for bit.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

/// How sampled sources are chosen.
enum class BcSampling {
  kUniform,         ///< uniform over all vertices (the paper's scheme)
  kComponentAware,  ///< stratified by component size; addresses the paper's
                    ///< §V conjecture that unguided sampling misses
                    ///< components in disconnected graphs
};

/// Options for betweenness_centrality().
struct BetweennessOptions {
  /// Number of sampled source vertices; kNoVertex (or >= n) = exact BC over
  /// all sources. The paper's massive runs use 256.
  std::int64_t num_sources = kNoVertex;

  /// Alternative sampling spec: fraction of vertices in (0, 1]. Ignored when
  /// negative; overrides num_sources when set (the paper's Figs. 4/5 sample
  /// 10%, 25%, 50% of nodes).
  double sample_fraction = -1.0;

  std::uint64_t seed = 1;

  /// Directed graphs always sample uniformly (weak components do not bound
  /// directed reachability).
  BcSampling sampling = BcSampling::kUniform;

  /// Scale sampled scores by n/num_sources so magnitudes estimate exact BC
  /// (rankings are unaffected; off by default to match GraphCT's raw sums).
  bool rescale = false;

  /// Cap on the bytes of per-thread score buffers held live at once
  /// (default 1 GiB), and on the per-call 32-bit layout both sweeps read
  /// (algs/bc_layout.hpp; without it they read the graph). The coarse team
  /// is sized to fit; below two buffers the kernel runs fine-grained, whose
  /// score memory is the result array alone.
  std::uint64_t score_memory_budget_bytes = std::uint64_t{1} << 30;
};

/// Execution plan derived from the vertex count, source count, thread
/// count, and memory budget — exposed so tests can assert the budget
/// arithmetic without running a kernel.
struct BcPlan {
  int team = 1;                    ///< score buffers; 1 = fine (serial sources)
  std::uint64_t buffer_bytes = 0;  ///< team * n * sizeof(double); 0 when fine
};

/// Result of a betweenness run.
struct BetweennessResult {
  std::vector<double> score;      ///< per-vertex centrality
  std::int64_t sources_used = 0;  ///< how many sources were accumulated
  double seconds = 0.0;           ///< kernel wall time (excludes setup)
  BcPlan plan;                    ///< the plan the kernel ran
};

/// team = min(threads, budget / (8n), num_sources); a team below two runs
/// fine-grained (team 1, no buffers).
BcPlan plan_betweenness(vid n, std::int64_t num_sources, int threads,
                        std::uint64_t budget_bytes);

/// Compute (approximate) betweenness centrality. Self-loops never lie on
/// shortest paths and are ignored. Undirected graphs count each unordered
/// pair twice (GraphCT's raw sums) and run the fused direction-optimizing
/// forward sweep; directed graphs follow arc direction (the paper's §I-A
/// "directed model [that] could model directed flow"), count ordered pairs
/// once, and run a top-down push forward pass.
BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts = {});

/// Pick the BC source set for the given options — exposed for tests and for
/// harnesses that must reuse one sample across kernels.
std::vector<vid> choose_sources(const GraphView& g,
                                const BetweennessOptions& opts);

}  // namespace graphct
