#include "algs/closeness.hpp"

#include "algs/bfs.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

ClosenessResult closeness_centrality(const GraphView& g,
                                     const ClosenessOptions& opts) {
  GCT_CHECK(!g.directed(), "closeness_centrality: graph must be undirected");
  const vid n = g.num_vertices();
  obs::KernelScope scope("closeness");
  ClosenessResult result;
  result.score.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;

  const std::vector<vid> sources =
      sample_sources(n, opts.num_sources, opts.seed);
  result.sources_used = static_cast<std::int64_t>(sources.size());

  const SourceSumPlan plan = plan_source_sum(
      n, result.sources_used, num_threads(), kSourceSumBudgetBytes, 0);
  // Direction-optimizing searches (closeness is undirected-only): the
  // low-diameter graphs this kernel samples spend most levels in the fat
  // middle, exactly where bottom-up wins. Harmonic sums are per-vertex adds
  // of 1/d, so level order does not affect scores.
  const BfsOptions bopts{.strategy = BfsStrategy::kDirectionOptimizing,
                         .deterministic_order = false};
  std::vector<BfsResult> searches(static_cast<std::size_t>(plan.team));
  {
    GCT_SPAN("closeness.bfs");
    // A parallel plan books a source as one full-adjacency traversal.
    sum_over_sources(
        result.sources_used, plan, {n, g.num_adjacency_entries()},
        result.score, [&](int worker, std::int64_t i, std::span<double> into) {
          BfsResult& b = searches[static_cast<std::size_t>(worker)];
          bfs_into(g, sources[static_cast<std::size_t>(i)], bopts, b);
          // Harmonic contribution of this pivot to every reached vertex;
          // level_offsets give the distance without a per-vertex lookup.
          for (std::size_t d = 1; d + 1 < b.level_offsets.size(); ++d) {
            const double w = 1.0 / static_cast<double>(d);
            const auto lo = static_cast<std::size_t>(b.level_offsets[d]);
            const auto hi = static_cast<std::size_t>(b.level_offsets[d + 1]);
            for (std::size_t j = lo; j < hi; ++j) {
              into[static_cast<std::size_t>(b.order[j])] += w;
            }
          }
          return std::span<const vid>(b.order);
        });
  }

  if (result.sources_used < n) {
    GCT_SPAN("closeness.rescale");
    const double scale =
        static_cast<double>(n) / static_cast<double>(result.sources_used);
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) {
      result.score[static_cast<std::size_t>(v)] *= scale;
    }
  }
  result.seconds = scope.seconds();
  return result;
}

}  // namespace graphct
