#include "algs/diameter.hpp"

#include <algorithm>

#include "algs/bfs.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace graphct {

DiameterEstimate estimate_diameter(const GraphView& g,
                                   const DiameterOptions& opts) {
  DiameterEstimate est;
  const vid n = g.num_vertices();
  if (n == 0) return est;
  obs::KernelScope scope("diameter");

  Rng rng(opts.seed);
  const std::int64_t k = std::min<std::int64_t>(opts.num_samples, n);
  const auto sources = rng.sample_without_replacement(n, k);
  est.samples_used = k;

  vid longest = 0;
  // The sources run one after another; the parallelism is inside each BFS,
  // whose levels expand across the team.
  BfsOptions bopts;
  bopts.deterministic_order = false;  // only the depth is consumed
  BfsResult buffer;
  for (vid s : sources) {
    GCT_SPAN("diameter.bfs");
    bfs_into(g, s, bopts, buffer);
    longest = std::max(longest, buffer.max_distance());
  }
  est.longest_distance = longest;
  est.estimate = longest * opts.multiplier;
  return est;
}

vid exact_diameter(const GraphView& g) {
  const vid n = g.num_vertices();
  vid diameter = 0;
  BfsOptions bopts;
  bopts.deterministic_order = false;
  BfsResult buffer;
  for (vid s = 0; s < n; ++s) {
    bfs_into(g, s, bopts, buffer);
    diameter = std::max(diameter, buffer.max_distance());
  }
  return diameter;
}

}  // namespace graphct
