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
/// Sources are drawn by sample_sources() (util/parallel.hpp), the sampler
/// kbc and closeness share. Parallel decomposition mirrors §II-B, chosen by
/// plan_source_sum() from the thread count and the score-memory budget, and
/// run by sum_over_sources in util/parallel.hpp:
///  * coarse — independent sources run concurrently, each into its own
///    score buffer from a ring of up to two per thread, and the buffers
///    are added into the scores in source order;
///  * fine — one source at a time, with the BFS, path-count, and dependency
///    sweeps parallel across each level. It runs at one thread, and
///    whenever the budget cannot hold two buffers (huge graphs).
/// A source adds one term per reached vertex and every per-source sum runs
/// in row order, so both plans make the same adds in the same order: scores
/// are bit-identical at any thread count and budget.
///
/// On undirected graphs, in memory or packed, both sweeps read a per-call
/// int32 layout that folds the degree-1 vertices out of the search
/// (algs/bc_layout.hpp): a leaf never lies on a shortest path between two
/// others, and its state follows from its neighbour's, bit for bit. A
/// packed store is decoded once per call to build it. Directed graphs do
/// not fold; they pull sigma over in-edges from their reverse, built once
/// per call (from one decode of a packed store).

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"
#include "util/parallel.hpp"

namespace graphct {

/// Options for betweenness_centrality().
struct BetweennessOptions {
  /// Number of sources, drawn uniformly without replacement by
  /// sample_sources(n, num_sources, seed); kNoVertex (or >= n) = exact BC
  /// over all sources. The paper's massive runs use 256; its Figs. 4/5
  /// sample a fraction f of the nodes, which is ceil(n * f) sources.
  std::int64_t num_sources = kNoVertex;

  std::uint64_t seed = 1;

  /// Cap on the bytes of coarse score buffers held live at once
  /// (default 1 GiB), and on the per-call 32-bit layout the sweeps read
  /// (algs/bc_layout.hpp): folded when that fits (for a packed store,
  /// together with the transient identity copy it is folded from), the
  /// identity layout when only that fits, and none otherwise, when the
  /// sweeps read the graph itself (over a store, through its block cache).
  /// The coarse team and its slots are sized to fit; below two buffers the
  /// kernel runs fine-grained, whose score memory is the result array alone.
  /// A directed graph's reverse is held besides, outside the cap.
  std::uint64_t score_memory_budget_bytes = kSourceSumBudgetBytes;
};

/// Result of a betweenness run.
struct BetweennessResult {
  std::vector<double> score;      ///< per-vertex centrality
  std::int64_t sources_used = 0;  ///< how many sources were accumulated
  double seconds = 0.0;           ///< kernel wall time (excludes setup)
  /// The plan the kernel ran: plan_source_sum(n, sources_used, threads,
  /// score_memory_budget_bytes, 0). team 1 is the fine plan.
  SourceSumPlan plan;
};

/// Compute (approximate) betweenness centrality. Self-loops never lie on
/// shortest paths and are ignored. Every graph runs the fused
/// direction-optimizing forward sweep. Undirected graphs count each
/// unordered pair twice (GraphCT's raw sums); directed graphs follow arc
/// direction (the paper's §I-A "directed model [that] could model directed
/// flow"), count ordered pairs once, and pull sigma over their reverse.
BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts = {});

}  // namespace graphct
