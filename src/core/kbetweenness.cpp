#include "core/kbetweenness.hpp"

#include "algs/bfs.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/work_queue.hpp"

namespace graphct {

namespace {

/// Scratch for one source, sized (k+1) x n for the slack-indexed tables.
struct KbcWorkspace {
  std::int64_t k;
  vid n;
  std::vector<double> sigma;  // sigma[j*n + v]
  std::vector<double> rho;    // rho[m*n + v]
  std::vector<double> total;  // T(v)
  BfsResult bfs_buffer;       // reused so the hot loop never allocates

  KbcWorkspace(std::int64_t k_, vid n_)
      : k(k_),
        n(n_),
        sigma(static_cast<std::size_t>((k_ + 1) * n_)),
        rho(static_cast<std::size_t>((k_ + 1) * n_)),
        total(static_cast<std::size_t>(n_)) {}

  double& s(std::int64_t j, vid v) {
    return sigma[static_cast<std::size_t>(j * n + v)];
  }
  double& r(std::int64_t m, vid v) {
    return rho[static_cast<std::size_t>(m * n + v)];
  }
};

/// Accumulate one source's k-BC dependencies into `score` (plain adds; the
/// source sum hands each call an exclusive buffer).
void accumulate_source_kbc(const GraphView& g, vid s, KbcWorkspace& ws,
                           std::span<double> score) {
  const std::int64_t k = ws.k;
  BfsOptions bopts;
  // Direction-optimizing BFS (kbc is undirected-only, so bottom-up sweeps
  // are always legal) with deterministic bitmap levels: compaction emits
  // each level ascending by construction, so the old post-sort is gone and
  // every storage backend sees the identical order. The k-BC sums
  // themselves are per-vertex pulls in adjacency order, so scores are
  // bit-identical to the top-down engine this replaces.
  bopts.strategy = BfsStrategy::kDirectionOptimizing;
  bopts.deterministic_order = true;
  BfsResult& b = ws.bfs_buffer;
  bfs_into(g, s, bopts, b);
  const auto& dist = b.distance;
  const vid reached = b.num_reached();
  const std::int64_t num_levels =
      static_cast<std::int64_t>(b.level_offsets.size()) - 1;

  // Clear only the entries of reached vertices.
  for (eid i = 0; i < reached; ++i) {
    const vid v = b.order[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j <= k; ++j) {
      ws.s(j, v) = 0.0;
      ws.r(j, v) = 0.0;
    }
    ws.total[static_cast<std::size_t>(v)] = 0.0;
  }

  // ---- Forward pass: sigma_j by ascending slack, ascending level. ----
  ws.s(0, s) = 1.0;
  for (std::int64_t j = 0; j <= k; ++j) {
    for (std::int64_t d = 0; d < num_levels; ++d) {
      const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
      const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
      // A region fork per (level x slack) pair dwarfs the work on the short
      // levels that dominate high-diameter searches, so those run serially.
#pragma omp parallel for schedule(dynamic, kLevelChunk) if (hi - lo >= kLevelSerialBelow)
      for (eid i = lo; i < hi; ++i) {
        const vid v = b.order[static_cast<std::size_t>(i)];
        double acc = (j == 0 && v == s) ? 1.0 : 0.0;
        for (vid u : g.neighbors(v)) {
          if (dist[static_cast<std::size_t>(u)] == kNoVertex) continue;
          // slack of the prefix ending at u: j' = j - 1 + d(v) - d(u)
          const std::int64_t jp = j - 1 + d - dist[static_cast<std::size_t>(u)];
          if (jp < 0 || jp > k) continue;
          // Prefix values at (jp == j) come from the previous level of this
          // same sweep (forward edges only: d(u) == d-1); jp < j values are
          // finalized by earlier sweeps. Both are complete when read.
          acc += ws.s(jp, u);
        }
        ws.s(j, v) = acc;
      }
    }
  }

  // T(v) = total walks within slack k ending at v.
  for (eid i = 0; i < reached; ++i) {
    const vid v = b.order[static_cast<std::size_t>(i)];
    double t = 0.0;
    for (std::int64_t j = 0; j <= k; ++j) t += ws.s(j, v);
    ws.total[static_cast<std::size_t>(v)] = t;
  }

  // ---- Backward pass: rho_m by ascending m, descending level. ----
  for (std::int64_t m = 0; m <= k; ++m) {
    for (std::int64_t d = num_levels - 1; d >= 0; --d) {
      const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
      const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
#pragma omp parallel for schedule(dynamic, kLevelChunk) if (hi - lo >= kLevelSerialBelow)
      for (eid i = lo; i < hi; ++i) {
        const vid v = b.order[static_cast<std::size_t>(i)];
        double acc = (m == 0 && v != s)
                         ? 1.0 / ws.total[static_cast<std::size_t>(v)]
                         : 0.0;
        for (vid u : g.neighbors(v)) {
          if (dist[static_cast<std::size_t>(u)] == kNoVertex) continue;
          // suffix slack consumed stepping v -> u: m' = m - 1 + d(u) - d(v)
          const std::int64_t mp = m - 1 + dist[static_cast<std::size_t>(u)] - d;
          if (mp < 0 || mp > k) continue;
          acc += ws.r(mp, u);
        }
        ws.r(m, v) = acc;
      }
    }
  }

  // ---- Combine: delta(v) = sum_j sigma_j(v) * S_{k-j}(v) - 1. ----
  for (eid i = 0; i < reached; ++i) {
    const vid v = b.order[static_cast<std::size_t>(i)];
    if (v == s) continue;
    // Prefix sums of rho over m, reused across j (S_c = sum_{m<=c} rho_m).
    double delta = 0.0;
    for (std::int64_t j = 0; j <= k; ++j) {
      double S = 0.0;
      for (std::int64_t m = 0; m <= k - j; ++m) S += ws.r(m, v);
      delta += ws.s(j, v) * S;
    }
    delta -= 1.0;
    score[static_cast<std::size_t>(v)] += delta;
  }
}

}  // namespace

KBetweennessResult k_betweenness_centrality(const GraphView& g,
                                            const KBetweennessOptions& opts) {
  GCT_CHECK(!g.directed(), "k_betweenness_centrality: graph must be undirected");
  GCT_CHECK(opts.k >= 0, "k_betweenness_centrality: k must be >= 0");
  const vid n = g.num_vertices();
  // A workspace holds the two (k+1) x n slack tables and the total array,
  // and a source books 2(k+1) adjacency sweeps. Reject a k for which one of
  // these counts overflows, before anything is allocated.
  std::int64_t sweeps = 0;
  std::int64_t workspace_words = 0;
  std::int64_t sweep_edges = 0;
  std::uint64_t workspace_bytes = 0;
  GCT_CHECK(!__builtin_add_overflow(opts.k, 1, &sweeps) &&
                !__builtin_mul_overflow(sweeps, 2, &sweeps) &&
                !__builtin_mul_overflow(sweeps + 1, n, &workspace_words) &&
                !__builtin_mul_overflow(workspace_words, sizeof(double),
                                        &workspace_bytes) &&
                !__builtin_mul_overflow(sweeps, g.num_adjacency_entries(),
                                        &sweep_edges),
            "k_betweenness_centrality: k = " + std::to_string(opts.k) +
                " overflows the workspace size or the work count");
  KBetweennessResult result;
  result.score.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;
  obs::KernelScope scope("kbc");

  const std::vector<vid> sources =
      sample_sources(n, opts.num_sources, opts.seed);
  result.sources_used = static_cast<std::int64_t>(sources.size());

  const SourceSumPlan plan =
      plan_source_sum(n, result.sources_used, num_threads(),
                      opts.score_memory_budget_bytes, workspace_bytes);
  result.peak_buffer_bytes = plan.buffer_bytes;
  std::vector<KbcWorkspace> workspaces(static_cast<std::size_t>(plan.team),
                                       KbcWorkspace(opts.k, n));
  {
    GCT_SPAN("kbc.accumulate");
    // A parallel plan books a source as one adjacency sweep per slack value
    // and direction (the BFS-equivalent TEPS convention).
    sum_over_sources(
        result.sources_used, plan, {n, sweep_edges}, result.score,
        [&](int worker, std::int64_t i, std::span<double> into) {
          KbcWorkspace& ws = workspaces[static_cast<std::size_t>(worker)];
          accumulate_source_kbc(g, sources[static_cast<std::size_t>(i)], ws,
                                into);
          return std::span<const vid>(ws.bfs_buffer.order);
        });
  }
  result.seconds = scope.seconds();
  return result;
}

}  // namespace graphct
