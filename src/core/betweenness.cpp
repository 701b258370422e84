#include "core/betweenness.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>

#include "algs/bc_accum.hpp"
#include "algs/bc_layout.hpp"
#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/work_queue.hpp"

namespace graphct {

namespace {

// Level chunking for the work-stealing backward sweep (matches the forward
// sweep's granularity in bfs.cpp).
constexpr std::int64_t kBcLevelChunk = 64;
constexpr std::int64_t kBcLevelSerialBelow = 512;

// Per-vertex backward-sweep state (DistCoef) and the canonical 4-lane
// accumulation rows live in algs/bc_accum.hpp, shared with the forward
// pulls in algs/bfs.cpp and the distributed worker in dist/worker.cpp.

/// Per-source scratch reused across sources by one thread.
struct BcWorkspace {
  std::vector<double> sigma;
  std::vector<DistCoef> dc;  // backward sweep state, see DistCoef
  BfsResult bfs_buffer;      // reused so the hot loop never allocates
  WorkQueue queue;           // level scheduler for the backward sweep

  explicit BcWorkspace(vid n)
      : sigma(static_cast<std::size_t>(n)),
        dc(static_cast<std::size_t>(n), DistCoef{0.0, 0}) {}
};

/// Directed forward pass: the push baseline. Directed CSR stores
/// out-neighbors only, so the pull engine (which reads a vertex's neighbor
/// list as its in-edges) cannot run; sigma flows by fetch-and-add pushes
/// along arcs instead. Levels come out ascending (deterministic bitmap path
/// for packed stores, post-sort otherwise) so the backward sweep's reads
/// stay sequential and scores stay bitwise equal across storage backends.
void forward_push_directed(const GraphView& g, vid s, BfsResult& b,
                           std::vector<double>& sigma) {
  BfsOptions bopts;
  bopts.deterministic_order = g.store_backed();
  bopts.compute_parents = false;  // predecessors come from distances
  {
    // Spans here record only in the fine plan, where this runs on the
    // orchestrating thread; coarse team workers have no sink.
    GCT_SPAN("bc.bfs");
    bfs_into(g, s, bopts, b);
    b.sort_levels();
  }
  const auto& dist = b.distance;
  const vid reached = b.num_reached();
  // Pushes accumulate, so reached entries must start at zero (the pull
  // engine skips this: it assigns each sigma exactly once).
  for (eid i = 0; i < reached; ++i) {
    sigma[static_cast<std::size_t>(b.order[static_cast<std::size_t>(i)])] = 0.0;
  }
  sigma[static_cast<std::size_t>(s)] = 1.0;

  GCT_SPAN("bc.forward");
  const std::int64_t num_levels =
      static_cast<std::int64_t>(b.level_offsets.size()) - 1;
  for (std::int64_t d = 0; d + 1 < num_levels; ++d) {
    const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
    const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
#pragma omp parallel for schedule(dynamic, 64) if (hi - lo >= kBcLevelSerialBelow)
    for (eid i = lo; i < hi; ++i) {
      const vid u = b.order[static_cast<std::size_t>(i)];
      const double su = sigma[static_cast<std::size_t>(u)];
      for (vid v : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(u)] + 1) {
          fetch_add(sigma[static_cast<std::size_t>(v)], su);
        }
      }
    }
  }
}

/// One backward dependency sweep, deepest level first, over the packed
/// distance+coefficient array (already loaded with this source's
/// distances). `nbrs_of(v)` yields v's neighbor span — int32 from the
/// layout or vid from the GraphView — hence the template. The deepest
/// level scans its rows like any other: a folded layout can hang leaves
/// below it, and a row with no deeper neighbor sums to exactly +0.0, which
/// gives coef = 1/sigma and a +0.0 score.
template <typename NbrFn>
void backward_sweep_impl(vid s, const BfsResult& b, BcWorkspace& ws,
                         std::vector<double>& score, const NbrFn& nbrs_of,
                         int nthreads, bool profiling) {
  const auto& sigma = ws.sigma;
  DistCoef* dc = ws.dc.data();
  const std::int64_t num_levels =
      static_cast<std::int64_t>(b.level_offsets.size()) - 1;
  for (std::int64_t d = num_levels - 1; d >= 0; --d) {
    const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
    const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
    if (profiling) {
      std::int64_t fe = 0;
      for (eid i = lo; i < hi; ++i) {
        fe += static_cast<std::int64_t>(
            nbrs_of(b.order[static_cast<std::size_t>(i)]).size());
      }
      obs::add_work(hi - lo, fe);
    }
    const std::int64_t deeper = d + 1;
    stealing_for(
        ws.queue, lo, hi, kBcLevelChunk, kBcLevelSerialBelow, nthreads,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const vid v = b.order[static_cast<std::size_t>(i)];
            // Branchless accumulation: levels interleave unpredictably in
            // adjacency order, so `if (dist == deeper)` mispredicts often
            // as a branch. bc_pull_coef_row multiplies by the comparison
            // instead (coef * 1.0 or coef * 0.0 — exact either way, coef
            // is always finite) with the canonical 4-lane layout from
            // algs/bc_accum.hpp, so the summation order is fixed for any
            // thread count, plan, or (dist path) worker count.
            const auto nbrs = nbrs_of(v);
            const double acc =
                bc_pull_coef_row(nbrs.data(),
                                 static_cast<std::int64_t>(nbrs.size()), dc,
                                 deeper);
            const double sv = sigma[static_cast<std::size_t>(v)];
            const double dv = sv * acc;
            dc[v].coef = (1.0 + dv) / sv;
            if (v != s) score[static_cast<std::size_t>(v)] += dv;
          }
        });
  }
}

void backward_sweep(const GraphView& g, vid s, const BfsResult& b,
                    BcWorkspace& ws, std::vector<double>& score,
                    const BcLayout& layout, int nthreads, bool profiling) {
  if (!layout.offsets.empty()) {
    backward_sweep_impl(
        s, b, ws, score, [&layout](vid v) { return layout.neighbors(v); },
        nthreads, profiling);
  } else {
    backward_sweep_impl(
        s, b, ws, score, [&g](vid v) { return g.neighbors(v); }, nthreads,
        profiling);
  }
}

/// The leaf pass of a folded layout: write each reached leaf's backward
/// state straight from its parent p, as {1/sigma[p], dist[p] + 1}. These
/// are the exact bits the unfolded sweeps give it, so no score bit moves:
///  * a leaf that is not the source is reached only through p, so its
///    distance is dist[p] + 1. It is never a predecessor, and every term it
///    adds to a sigma or coef sum is sigma * 0.0 or coef * 0.0 = +0.0 (both
///    are finite and non-negative) — the same term it adds as an
///    undiscovered vertex of the forward sweep.
///  * its sigma is the one-term row sum sigma[p]; its backward row has no
///    deeper neighbor and sums to +0.0. So coef = (1 + sigma * 0) / sigma
///    = 1/sigma[p], and its score gains +0.0, which leaves it at +0.0.
///  * a leaf drawn as the source is the forward sweep's root and runs like
///    any other source; the pass skips it.
/// The numbering never enters a sum (rows keep their neighbour order), and
/// top-down and bottom-up levels pull the same sums, so the direction
/// switch may see the smaller core levels without changing a bit either.
/// Unreached leaves keep stale (finite) state: only their parent's row
/// holds them, and an unreached parent's row is never scanned.
void fold_leaves(const BcLayout& layout, vid s, const BfsResult& b,
                 BcWorkspace& ws) {
  const vid n = layout.num_vertices();
  const auto& dist = b.distance;
  const auto& sigma = ws.sigma;
  DistCoef* dc = ws.dc.data();
  for (vid v = layout.num_core; v < n; ++v) {
    const vid p = layout.parent(v);
    const vid dp = dist[static_cast<std::size_t>(p)];
    if (v == s || dp == kNoVertex) continue;
    dc[v] = DistCoef{1.0 / sigma[static_cast<std::size_t>(p)], dp + 1};
  }
}

/// Brandes accumulation from one source into `score`.
///
/// Forward: a folded layout runs bc_forward_sweep over its core, other
/// undirected graphs run it over the view (fused direction-optimizing BFS
/// + pull sigma), and directed graphs take the push pass above.
///
/// Backward: coefficient form. Instead of delta we keep
/// coef[v] = (1 + delta[v]) / sigma[v], so each vertex does ONE division and
/// the per-edge work is a plain add: delta[v] = sigma[v] * sum of coef[w]
/// over neighbors one level deeper. The sum runs in adjacency order and
/// every write (coef, score) is per-vertex exclusive — no atomics, and
/// bit-identical results for any thread count. Levels are scheduled
/// through the work-stealing queue; inside a coarse team stealing_for
/// detects the enclosing parallel region and runs inline.
void accumulate_source(const GraphView& g, const BcLayout& layout, vid s,
                       BcWorkspace& ws, std::vector<double>& score) {
  BfsResult& b = ws.bfs_buffer;
  auto& sigma = ws.sigma;
  if (layout.folded()) {
    bc_forward_sweep(layout, s, b, sigma);
  } else if (g.directed()) {
    forward_push_directed(g, s, b, sigma);
  } else {
    bc_forward_sweep(g, s, b, sigma);
  }

  const int nthreads = num_threads();
  const bool profiling = obs::profile_active();

  GCT_SPAN("bc.backward");
  // Load this source's distances into the packed per-vertex state (one
  // sequential pass over the core, cheap next to the O(m) sweep; the coef
  // halves keep whatever the previous source left — finite, and rewritten
  // before any vertex reads them because coef[w] is only read from one
  // level up). A leaf source is the root, so it loads its 0 here too.
  {
    const auto& dist = b.distance;
    DistCoef* dc = ws.dc.data();
    const vid core = layout.folded() ? layout.num_core : g.num_vertices();
    for (vid v = 0; v < core; ++v) {
      dc[v].dist = dist[static_cast<std::size_t>(v)];
    }
    dc[s].dist = 0;
  }
  if (layout.folded()) fold_leaves(layout, s, b, ws);
  backward_sweep(g, s, b, ws, score, layout, nthreads, profiling);
}

std::vector<vid> sample_component_aware(const GraphView& g, std::int64_t k,
                                        Rng& rng) {
  const auto labels = connected_components(g);
  const auto stats = component_stats(labels);
  const vid n = g.num_vertices();

  // Bucket vertices by component, largest component first.
  std::vector<std::vector<vid>> buckets;
  std::unordered_map<vid, std::size_t> slot;
  buckets.reserve(stats.sizes.size());
  for (const auto& [label, size] : stats.sizes) {
    slot[label] = buckets.size();
    buckets.emplace_back();
    buckets.back().reserve(static_cast<std::size_t>(size));
  }
  for (vid v = 0; v < n; ++v) {
    buckets[slot[labels[static_cast<std::size_t>(v)]]].push_back(v);
  }

  // Proportional allocation with a floor of one source per component (while
  // budget lasts, biggest first), so no component is left unsampled — the
  // failure mode the paper conjectures for unguided sampling (§V).
  std::vector<std::int64_t> quota(buckets.size(), 0);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < buckets.size() && assigned < k; ++i) {
    quota[i] = 1;
    ++assigned;
  }
  while (assigned < k) {
    // Distribute the remainder proportionally to residual capacity.
    bool progressed = false;
    for (std::size_t i = 0; i < buckets.size() && assigned < k; ++i) {
      const auto cap = static_cast<std::int64_t>(buckets[i].size());
      if (quota[i] < cap) {
        const double share = static_cast<double>(cap) /
                             static_cast<double>(n) *
                             static_cast<double>(k);
        if (static_cast<double>(quota[i]) < share || !progressed) {
          ++quota[i];
          ++assigned;
          progressed = true;
        }
      }
    }
    if (!progressed) break;  // every component saturated
  }

  std::vector<vid> sources;
  sources.reserve(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto cap = static_cast<std::int64_t>(buckets[i].size());
    const std::int64_t q = std::min(quota[i], cap);
    auto picks = rng.sample_without_replacement(cap, q);
    for (auto p : picks) {
      sources.push_back(buckets[i][static_cast<std::size_t>(p)]);
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

}  // namespace

BcPlan plan_betweenness(vid n, std::int64_t num_sources, int threads,
                        std::uint64_t budget_bytes) {
  const std::uint64_t per_buffer =
      static_cast<std::uint64_t>(n) * sizeof(double);
  const std::int64_t affordable =
      per_buffer == 0 ? threads
                      : static_cast<std::int64_t>(budget_bytes / per_buffer);
  BcPlan p;
  const std::int64_t team =
      std::min<std::int64_t>({threads, affordable, num_sources});
  if (team >= 2) {
    p.team = static_cast<int>(team);
    p.buffer_bytes = static_cast<std::uint64_t>(team) * per_buffer;
  }
  return p;
}

std::vector<vid> choose_sources(const GraphView& g,
                                const BetweennessOptions& opts) {
  const vid n = g.num_vertices();
  std::int64_t k = opts.num_sources;
  if (opts.sample_fraction > 0.0) {
    GCT_CHECK(opts.sample_fraction <= 1.0,
              "betweenness: sample_fraction must be in (0, 1]");
    k = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(n) * opts.sample_fraction));
  }
  if (k == kNoVertex || k >= n) {
    std::vector<vid> all(static_cast<std::size_t>(n));
    for (vid v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    return all;
  }
  GCT_CHECK(k > 0, "betweenness: num_sources must be positive");
  Rng rng(opts.seed);
  // Weak components say nothing about directed reachability, so directed
  // graphs sample uniformly.
  if (opts.sampling == BcSampling::kComponentAware && !g.directed()) {
    return sample_component_aware(g, k, rng);
  }
  return rng.sample_without_replacement(n, k);
}

BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts) {
  const vid n = g.num_vertices();
  BetweennessResult result;
  result.score.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;
  obs::KernelScope scope("bc");

  std::vector<vid> sources;
  {
    GCT_SPAN("bc.choose_sources");
    sources = choose_sources(g, opts);
  }
  result.sources_used = static_cast<std::int64_t>(sources.size());
  result.plan = plan_betweenness(n, result.sources_used, num_threads(),
                                 opts.score_memory_budget_bytes);

  // One 32-bit layout for the whole call when ids fit and it fits the
  // score-memory budget (see algs/bc_layout.hpp). Undirected in-memory
  // graphs get the folded layout both sweeps read; directed graphs (whose
  // push pass adds in level order, which a renumbering would change) and
  // packed stores (whose block cache a renumbered read would thrash) keep
  // their ids and read the copy in the backward sweep only. Without a
  // layout both sweeps read the view.
  BcLayout layout;
  const eid m = g.num_adjacency_entries();
  const std::uint64_t budget = opts.score_memory_budget_bytes;
  const bool fold = !g.directed() && !g.store_backed() &&
                    BcLayout::bytes(n, m, true) <= budget;
  if (n <= std::numeric_limits<std::int32_t>::max() &&
      BcLayout::bytes(n, m, fold) <= budget) {
    GCT_SPAN("bc.layout");
    layout = build_bc_layout(g, fold);
  }
  // Sources run in layout ids, in the order they were drawn (the fine plan
  // adds each source's dependencies in source order); scores accumulate in
  // layout ids and map back once at the end.
  std::vector<double> layout_score;
  if (layout.folded()) {
    for (vid& s : sources) s = layout.label[static_cast<std::size_t>(s)];
    layout_score.assign(static_cast<std::size_t>(n), 0.0);
  }
  std::vector<double>& score = layout.folded() ? layout_score : result.score;

  const int team = result.plan.team;
  if (team == 1) {
    // Fine: sources serial, straight into the scores; each sweep is
    // level-parallel (work-stealing chunks, no atomics — every write is
    // per-vertex exclusive). The per-source sweeps record exact work
    // counters into the bc.forward_td / bc.forward_bu / bc.backward phases
    // (this runs on the profiling thread).
    GCT_SPAN("bc.accumulate");
    BcWorkspace ws(n);
    for (vid s : sources) accumulate_source(g, layout, s, ws, score);
  } else {
    // Coarse: one parallel pass over all sources across the buffer team,
    // then one parallel tree reduction into the scores.
    std::vector<std::vector<double>> buffers(
        static_cast<std::size_t>(team),
        std::vector<double>(static_cast<std::size_t>(n), 0.0));
    std::vector<BcWorkspace> workspaces;
    workspaces.reserve(static_cast<std::size_t>(team));
    for (int t = 0; t < team; ++t) workspaces.emplace_back(n);
    {
      GCT_SPAN("bc.accumulate");
      {
        obs::SuspendCollection pause;  // accounted in bulk below
#pragma omp parallel num_threads(team)
        {
          const int t = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t i = 0; i < result.sources_used; ++i) {
            accumulate_source(g, layout, sources[static_cast<std::size_t>(i)],
                              workspaces[static_cast<std::size_t>(t)],
                              buffers[static_cast<std::size_t>(t)]);
          }
        }
      }
      // BFS-equivalent convention: one full-adjacency traversal per source
      // (see docs/OBSERVABILITY.md on TEPS for sampled kernels).
      obs::add_work(result.sources_used * static_cast<std::int64_t>(n),
                    result.sources_used * g.num_adjacency_entries());
    }
    GCT_SPAN("bc.reduce_tree");
    tree_reduce_buffers(buffers, std::span<double>(score.data(), score.size()));
  }
  if (layout.folded()) {
    const auto& label = layout.label;
    for (vid v = 0; v < n; ++v) {
      const std::int32_t lv = label[static_cast<std::size_t>(v)];
      result.score[static_cast<std::size_t>(v)] =
          score[static_cast<std::size_t>(lv)];
    }
  }

  if (opts.rescale && result.sources_used > 0 &&
      result.sources_used < n) {
    GCT_SPAN("bc.rescale");
    const double scale = static_cast<double>(n) /
                         static_cast<double>(result.sources_used);
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) {
      result.score[static_cast<std::size_t>(v)] *= scale;
    }
  }
  result.seconds = scope.seconds();
  return result;
}

}  // namespace graphct
