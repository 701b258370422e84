#include "core/bc_confidence.hpp"

#include <algorithm>
#include <cmath>

#include "algs/ranking.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace graphct {

BcConfidenceResult bc_confidence(const CsrGraph& g,
                                 const BcConfidenceOptions& opts) {
  GCT_CHECK(opts.replicates >= 2, "bc_confidence: need >= 2 replicates");
  GCT_CHECK(opts.num_sources >= 1, "bc_confidence: need >= 1 source");
  const vid n = g.num_vertices();

  BcConfidenceResult r;
  r.replicates = opts.replicates;
  r.mean.assign(static_cast<std::size_t>(n), 0.0);
  r.half_width.assign(static_cast<std::size_t>(n), 0.0);
  r.top_membership.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return r;

  Rng seeder(opts.seed);
  std::vector<std::vector<double>> replicate_scores;
  std::vector<std::vector<vid>> replicate_tops;
  replicate_scores.reserve(static_cast<std::size_t>(opts.replicates));

  for (std::int64_t rep = 0; rep < opts.replicates; ++rep) {
    BetweennessOptions o;
    o.num_sources = std::min<std::int64_t>(opts.num_sources, n);
    o.seed = seeder.next_u64();
    o.rescale = true;  // unbiased magnitude across replicates
    auto res = betweenness_centrality(g, o);
    r.sources_per_replicate = res.sources_used;

    const auto top = top_percent(
        std::span<const double>(res.score.data(), res.score.size()),
        opts.top_percent);
    for (vid v : top) {
      r.top_membership[static_cast<std::size_t>(v)] += 1.0;
    }
    replicate_tops.push_back(top);
    replicate_scores.push_back(std::move(res.score));
  }

  const double inv_r = 1.0 / static_cast<double>(opts.replicates);
  for (auto& m : r.top_membership) m *= inv_r;

  // Per-vertex mean and t-interval across replicates.
  std::vector<double> sample(static_cast<std::size_t>(opts.replicates));
#pragma omp parallel for schedule(static) firstprivate(sample)
  for (vid v = 0; v < n; ++v) {
    for (std::int64_t rep = 0; rep < opts.replicates; ++rep) {
      sample[static_cast<std::size_t>(rep)] =
          replicate_scores[static_cast<std::size_t>(rep)]
                          [static_cast<std::size_t>(v)];
    }
    const Summary s =
        summarize(std::span<const double>(sample.data(), sample.size()));
    r.mean[static_cast<std::size_t>(v)] = s.mean;
    r.half_width[static_cast<std::size_t>(v)] =
        confidence_half_width(s, opts.level);
  }

  // Pairwise top-list overlap — the stability of the analyst-facing output.
  double overlap_sum = 0.0;
  std::int64_t pairs = 0;
  for (std::size_t a = 0; a < replicate_tops.size(); ++a) {
    for (std::size_t b = a + 1; b < replicate_tops.size(); ++b) {
      const auto k = static_cast<double>(replicate_tops[a].size());
      if (k == 0) continue;
      overlap_sum += static_cast<double>(set_intersection_size(
                         replicate_tops[a], replicate_tops[b])) /
                     k;
      ++pairs;
    }
  }
  r.top_list_stability = pairs > 0 ? overlap_sum / static_cast<double>(pairs)
                                   : 1.0;
  return r;
}

}  // namespace graphct
