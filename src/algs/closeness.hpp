#pragma once

/// \file closeness.hpp
/// Closeness centrality with the same source-sampling machinery as
/// betweenness: exact closeness costs one BFS per vertex, so massive graphs
/// use sampled pivots (Eppstein-Wang style estimation).
///
/// We use the harmonic variant, sum over t of 1/d(v,t), which is the
/// disconnected-graph-safe formulation — essential for mention graphs,
/// whose many components would zero out classic closeness.
/// Pivots run through betweenness' source sum (util/parallel.hpp): capped
/// at kSourceSumBudgetBytes, the same bits at any thread count.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

/// Options for closeness_centrality().
struct ClosenessOptions {
  /// Pivots to sample; kNoVertex = every vertex (exact).
  std::int64_t num_sources = kNoVertex;

  std::uint64_t seed = 1;
};

/// Result of a closeness run.
struct ClosenessResult {
  /// Harmonic closeness per vertex: sum of 1/d(pivot, v) over pivots,
  /// scaled by n/sources_used when sampled, so magnitudes are comparable
  /// across sample sizes.
  std::vector<double> score;
  std::int64_t sources_used = 0;
  double seconds = 0.0;
};

/// Compute (approximate) harmonic closeness of an undirected graph.
ClosenessResult closeness_centrality(const GraphView& g,
                                     const ClosenessOptions& opts = {});

}  // namespace graphct
