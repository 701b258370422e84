#include "gen/rmat.hpp"

#include <omp.h>

#include "graph/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace graphct {

EdgeList rmat_edges(const RmatOptions& opts) {
  GCT_CHECK(opts.scale >= 1 && opts.scale <= 40, "rmat: scale out of range");
  GCT_CHECK(opts.edge_factor >= 1, "rmat: edge_factor must be >= 1");
  const double d = 1.0 - opts.a - opts.b - opts.c;
  GCT_CHECK(opts.a > 0 && opts.b >= 0 && opts.c >= 0 && d > 0,
            "rmat: probabilities must be positive and sum below 1");

  const vid n = vid{1} << opts.scale;
  std::int64_t m = 0;
  GCT_CHECK(!__builtin_mul_overflow(opts.edge_factor, n, &m),
            "rmat: edge_factor x 2^scale overflows the edge count");

  EdgeList el(n);
  auto& edges = el.edges();
  edges.resize(static_cast<std::size_t>(m));

  // Each edge draws from an RNG seeded by (seed, edge index), so the result
  // is independent of thread count and schedule.
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    Rng rng(mix64(opts.seed) ^ mix64(static_cast<std::uint64_t>(i) *
                                     0x9e3779b97f4a7c15ULL +
                                     0x2545f4914f6cdd1dULL));
    vid src = 0, dst = 0;
    double a = opts.a, b = opts.b, c = opts.c;
    for (std::int64_t level = 0; level < opts.scale; ++level) {
      double aa = a, bb = b, cc = c;
      if (opts.noise) {
        // +/-10% multiplicative noise, renormalized implicitly by comparing
        // against the running thresholds.
        aa *= 0.9 + 0.2 * rng.next_double();
        bb *= 0.9 + 0.2 * rng.next_double();
        cc *= 0.9 + 0.2 * rng.next_double();
        const double dd = (1.0 - a - b - c) * (0.9 + 0.2 * rng.next_double());
        const double norm = aa + bb + cc + dd;
        aa /= norm;
        bb /= norm;
        cc /= norm;
      }
      const double r = rng.next_double();
      src <<= 1;
      dst <<= 1;
      if (r < aa) {
        // top-left quadrant: no bits set
      } else if (r < aa + bb) {
        dst |= 1;
      } else if (r < aa + bb + cc) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    edges[static_cast<std::size_t>(i)] = {src, dst};
  }
  return el;
}

CsrGraph rmat_graph(const RmatOptions& opts) {
  const EdgeList el = rmat_edges(opts);
  BuildOptions b;
  b.symmetrize = true;
  b.dedup = true;
  b.remove_self_loops = false;
  b.sort_adjacency = true;
  return build_csr(el, b);
}

}  // namespace graphct
