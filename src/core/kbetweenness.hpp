#pragma once

/// \file kbetweenness.hpp
/// k-betweenness centrality (Jiang, Ediger, Bader — ICPP 2009; paper §II-A).
///
/// Betweenness centrality is brittle: removing one edge can reroute many
/// shortest paths. k-betweenness also credits paths up to k longer than the
/// shortest, "paths that may become important should the shortest path
/// change". k = 0 is exactly Brandes betweenness.
///
/// ## Algorithm (level/slack recurrences)
///
/// Fix a source s and let d(v) be BFS distance. Define the *slack* of a walk
/// s~>v of length L as j = L - d(v) (slack never decreases along a walk).
/// The forward pass counts walks per slack:
///
///   sigma_j(v) = #walks s~>v of length d(v)+j
///              = sum over neighbors u of sigma_{j-1+d(v)-d(u)}(u)
///
/// i.e. a forward edge (d(u)=d(v)-1) contributes at slack j, a same-level
/// edge at j-1, a backward edge at j-2. For each slack j = 0..k a single
/// ascending sweep over BFS levels resolves all dependencies, and vertices
/// within one level are independent — the fine-grained parallelism of §II-B.
///
/// The backward pass accumulates, per vertex, the weighted count of walk
/// *suffixes* ending at any target t (T(t) = sum_j sigma_j(t) total walks):
///
///   rho_m(v) = [v != s]·[m == 0]/T(v)
///            + sum over neighbors u of rho_{m-1+d(u)-d(v)}(u)
///
/// resolved by descending level sweeps for m = 0..k. Splitting every walk
/// s~>t at each occurrence of v gives the dependency
///
///   delta(v) = sum_{j=0..k} sigma_j(v) · sum_{m=0..k-j} rho_m(v)  -  1
///
/// (the -1 removes the walk endpoints t = v; targets t = s are excluded by
/// the rho base case). BC_k(v) accumulates delta(v) over sources. For k = 0
/// this is algebraically Brandes' recurrence; property tests check k >= 1
/// against brute-force walk enumeration.
///
/// Counting note (documented substitution): like the GraphCT recurrence,
/// for k >= 2 these are level-constrained *walks*; a non-simple walk within
/// slack k (a shortest path plus a back-and-forth detour) is counted, and a
/// vertex visited twice is credited twice. For k <= 1 every counted walk is
/// provably a simple path.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"
#include "util/parallel.hpp"

namespace graphct {

/// Options for k_betweenness_centrality().
struct KBetweennessOptions {
  /// Path slack: count paths up to k longer than shortest. k=0 == Brandes.
  std::int64_t k = 1;

  /// Sampled sources (kNoVertex = all sources, exact). The scripting
  /// interface's `kcentrality <k> <num sources>` maps straight onto this.
  std::int64_t num_sources = kNoVertex;

  std::uint64_t seed = 1;

  /// Cap on the bytes of accumulation state held live at once, default
  /// 1 GiB: each worker's (k+1) x n slack tables plus up to two score
  /// buffers per worker, planned as betweenness plans its slots. Below a
  /// team of two the sources run serially into the scores, so the floor
  /// is one workspace regardless of budget. No budget moves a score bit.
  std::uint64_t score_memory_budget_bytes = kSourceSumBudgetBytes;
};

/// Result of a k-betweenness run.
struct KBetweennessResult {
  std::vector<double> score;
  std::int64_t sources_used = 0;
  double seconds = 0.0;
  std::uint64_t peak_buffer_bytes = 0;  ///< the plan's buffer_bytes
};

/// Compute k-betweenness centrality of an undirected graph.
KBetweennessResult k_betweenness_centrality(
    const GraphView& g, const KBetweennessOptions& opts = {});

}  // namespace graphct
