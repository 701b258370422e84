#include "core/betweenness.hpp"

#include <cstdint>
#include <limits>
#include <span>

#include "algs/bc_accum.hpp"
#include "algs/bc_layout.hpp"
#include "algs/bfs.hpp"
#include "graph/transforms.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/work_queue.hpp"

namespace graphct {

namespace {

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

/// One backward dependency sweep, deepest level first, over the packed
/// distance+coefficient array (already loaded with this source's
/// distances). `nbrs_of(v)` yields v's neighbor span — int32 from the
/// layout or vid from the GraphView — hence the template. The deepest
/// level scans its rows like any other: a folded layout can hang leaves
/// below it, and a row with no deeper neighbor sums to exactly +0.0, which
/// gives coef = 1/sigma and a +0.0 score.
template <typename NbrFn>
void backward_sweep_impl(vid s, const BfsResult& b, BcWorkspace& ws,
                         std::span<double> score, const NbrFn& nbrs_of,
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
        ws.queue, lo, hi, kLevelChunk, kLevelSerialBelow, nthreads,
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
                    BcWorkspace& ws, std::span<double> score,
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
/// Forward: bc_forward_sweep (fused direction-optimizing BFS + pull sigma).
/// Undirected graphs run it over the layout when there is one (its core,
/// when folded) and over the view otherwise; an identity layout and the
/// view are the same rows in the same order, so they give the same bits.
/// Directed graphs run it over the view, pulling sigma over `in`, the
/// graph's reverse.
///
/// Backward: coefficient form. Instead of delta we keep
/// coef[v] = (1 + delta[v]) / sigma[v], so each vertex does ONE division and
/// the per-edge work is a plain add: delta[v] = sigma[v] * sum of coef[w]
/// over neighbors one level deeper. The sum runs in adjacency order and
/// every write (coef, score) is per-vertex exclusive — no atomics, and
/// bit-identical results for any thread count. Levels are scheduled
/// through the work-stealing queue; inside a parallel source sum
/// stealing_for detects the enclosing parallel region and runs inline.
void accumulate_source(const GraphView& g, const GraphView& in,
                       const BcLayout& layout, vid s, BcWorkspace& ws,
                       std::span<double> score) {
  BfsResult& b = ws.bfs_buffer;
  if (!g.directed() && !layout.offsets.empty()) {
    bc_forward_sweep(layout, s, b, ws.sigma);
  } else {
    bc_forward_sweep(g, in, s, b, ws.sigma);
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

}  // namespace

BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts) {
  const vid n = g.num_vertices();
  BetweennessResult result;
  result.score.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;
  obs::KernelScope scope("bc");

  std::vector<vid> sources;
  {
    GCT_SPAN("bc.sample_sources");
    sources = sample_sources(n, opts.num_sources, opts.seed);
  }
  result.sources_used = static_cast<std::int64_t>(sources.size());
  result.plan = plan_source_sum(n, result.sources_used, num_threads(),
                                opts.score_memory_budget_bytes, 0);

  // Directed graphs pull sigma over their in-edges: the reverse, built
  // once per call as pagerank builds its own (a store is decoded first).
  // An undirected graph's rows are its own in-rows.
  CsrGraph rev;
  if (g.directed()) {
    GCT_SPAN("bc.reverse");
    CsrGraph decoded;
    rev = reverse(g.as_csr_or(decoded));
  }
  const GraphView in = g.directed() ? GraphView(rev) : g;

  // One 32-bit layout for the whole call when ids fit and it fits the
  // score-memory budget (see algs/bc_layout.hpp), with one rule for DRAM
  // graphs and packed stores: folded when the fold fits, the identity
  // layout when only that fits. Undirected graphs read it in both sweeps;
  // directed graphs read it in the backward sweep only, since it holds
  // out-rows and their forward pulls read the reverse. Without a layout
  // both sweeps read the view: over a store, the out-of-core path.
  BcLayout layout;
  const std::uint64_t budget = opts.score_memory_budget_bytes;
  const bool fold = !g.directed() && bc_layout_build_bytes(g, true) <= budget;
  if (n <= std::numeric_limits<std::int32_t>::max() &&
      bc_layout_build_bytes(g, fold) <= budget) {
    GCT_SPAN("bc.layout");
    layout = build_bc_layout(g, fold);
  }
  // Sources run in layout ids, in the order they were drawn (every plan
  // adds each source's dependencies in source order); scores accumulate in
  // layout ids and map back once at the end.
  std::vector<double> layout_score;
  if (layout.folded()) {
    for (vid& s : sources) s = layout.label[static_cast<std::size_t>(s)];
    layout_score.assign(static_cast<std::size_t>(n), 0.0);
  }
  std::vector<double>& score = layout.folded() ? layout_score : result.score;

  // The serial plan is the fine one, whose level-parallel sweeps record
  // exact work; a parallel plan books a source as one full-adjacency
  // traversal (docs/OBSERVABILITY.md on TEPS for sampled kernels).
  std::vector<BcWorkspace> workspaces;
  workspaces.reserve(static_cast<std::size_t>(result.plan.team));
  for (int t = 0; t < result.plan.team; ++t) workspaces.emplace_back(n);
  {
    GCT_SPAN("bc.accumulate");
    sum_over_sources(
        result.sources_used, result.plan, {n, g.num_adjacency_entries()},
        score, [&](int worker, std::int64_t i, std::span<double> into) {
          BcWorkspace& ws = workspaces[static_cast<std::size_t>(worker)];
          accumulate_source(g, in, layout,
                            sources[static_cast<std::size_t>(i)], ws, into);
          return std::span<const vid>(ws.bfs_buffer.order);
        });
  }
  if (layout.folded()) {
    const auto& label = layout.label;
    for (vid v = 0; v < n; ++v) {
      const std::int32_t lv = label[static_cast<std::size_t>(v)];
      result.score[static_cast<std::size_t>(v)] =
          score[static_cast<std::size_t>(lv)];
    }
  }
  result.seconds = scope.seconds();
  return result;
}

}  // namespace graphct
