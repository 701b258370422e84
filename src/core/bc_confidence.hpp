#pragma once

/// \file bc_confidence.hpp
/// Confidence estimation for sampled betweenness centrality.
///
/// The paper closes by noting that "more work on sampling is needed" and
/// poses "quantifying significance and confidence of approximations over
/// noisy graph data" as an open problem (§V). This module answers the
/// practical form of that question: run R independent source samples,
/// rescale each to the exact-magnitude estimator (n/S · sum), and report
/// per-vertex means with Student-t confidence intervals plus the
/// *stability* of top-k membership — the quantity an analyst ranking
/// actors actually relies on.

#include <cstdint>
#include <vector>

#include "core/betweenness.hpp"
#include "graph/csr_graph.hpp"

namespace graphct {

/// Options for bc_confidence().
struct BcConfidenceOptions {
  /// Sources per replicate (the paper's regimes: 256, or a fraction).
  std::int64_t num_sources = 256;

  /// Independent replicates (the paper averages 10 realizations).
  std::int64_t replicates = 10;

  /// Two-sided confidence level for the per-vertex intervals.
  double level = 0.90;

  /// Top-percent list whose membership stability is reported.
  double top_percent = 1.0;

  std::uint64_t seed = 1;
};

/// Result of a confidence run.
struct BcConfidenceResult {
  /// Per-vertex mean of the rescaled estimator across replicates.
  std::vector<double> mean;

  /// Per-vertex confidence half-width at the requested level.
  std::vector<double> half_width;

  /// Per-vertex fraction of replicates in which the vertex appeared in the
  /// top `top_percent`% — 1.0 means every sample agrees the vertex is a
  /// top actor.
  std::vector<double> top_membership;

  /// Mean pairwise top-k overlap between replicates (rank stability in
  /// [0, 1]; 1.0 = all replicates produce the same top list).
  double top_list_stability = 0.0;

  std::int64_t replicates = 0;
  std::int64_t sources_per_replicate = 0;
};

/// Estimate sampled-BC confidence on an undirected graph. Runs
/// `replicates` independent sampled-BC evaluations (seeds derived from
/// opts.seed), so cost is replicates * num_sources * O(m+n).
BcConfidenceResult bc_confidence(const CsrGraph& g,
                                 const BcConfidenceOptions& opts = {});

}  // namespace graphct
