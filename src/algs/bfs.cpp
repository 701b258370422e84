#include "algs/bfs.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>

#include "algs/bc_accum.hpp"
#include "obs/trace.hpp"
#include "util/bitmap.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/work_queue.hpp"

namespace graphct {

namespace {

/// Per-search scratch, thread_local so the sampled kernels (bc, closeness,
/// diameter — thousands of bfs_into() calls per run) never reallocate
/// frontier state. Bitmap storage grows monotonically; ensure() only touches
/// sizes.
struct BfsScratch {
  Bitmap frontier;  // membership of the current level (bottom-up tests)
  Bitmap next;      // vertices discovered this level
  Bitmap visited;   // distance != kNoVertex; maintained across bottom-up runs
  std::vector<std::int64_t> block_counts;   // bitmap compaction scratch
  std::vector<std::int64_t> queue_offsets;  // per-thread queue prefix sums
  WorkQueue queue;                          // work-stealing level scheduler

  void ensure_bitmaps(vid n) {
    frontier.resize(n);
    next.resize(n);
    visited.resize(n);
  }

  void ensure_offsets(int maxt) {
    if (static_cast<int>(queue_offsets.size()) < maxt + 1) {
      queue_offsets.resize(static_cast<std::size_t>(maxt) + 1);
    }
  }
};

BfsScratch& scratch() {
  static thread_local BfsScratch s;
  return s;
}

// Non-deterministic top-down expansion of order[lo,hi): each thread collects
// its discoveries in a private queue, then one exclusive prefix sum over the
// per-thread counts assigns disjoint output ranges — no per-vertex fetch_add
// on a shared tail. One parallel region end to end, so thread ids are stable
// and each thread copies its own queue. Returns the new tail.
eid expand_top_down_queued(const GraphView& g, std::vector<vid>& distance,
                           std::vector<vid>& parent, std::vector<vid>& order,
                           eid lo, eid hi, vid depth, bool compute_parents,
                           std::vector<std::int64_t>& offsets) {
  std::int64_t total = 0;
#pragma omp parallel
  {
    const int t = omp_get_thread_num();
    const int p = omp_get_num_threads();
    static thread_local std::vector<vid> q;  // persists across searches
    q.clear();
#pragma omp for schedule(dynamic, 64) nowait
    for (eid i = lo; i < hi; ++i) {
      const vid u = order[static_cast<std::size_t>(i)];
      for (vid v : g.neighbors(u)) {
        if (distance[static_cast<std::size_t>(v)] != kNoVertex) continue;
        if (compare_and_swap(distance[static_cast<std::size_t>(v)], kNoVertex,
                             depth)) {
          if (compute_parents) parent[static_cast<std::size_t>(v)] = u;
          q.push_back(v);
        }
      }
    }
    offsets[static_cast<std::size_t>(t)] = static_cast<std::int64_t>(q.size());
#pragma omp barrier
#pragma omp single
    {
      std::int64_t run = 0;
      for (int b = 0; b < p; ++b) {
        const std::int64_t c = offsets[static_cast<std::size_t>(b)];
        offsets[static_cast<std::size_t>(b)] = run;
        run += c;
      }
      total = run;
    }
    // Implicit barrier after `single`: offsets are final for every thread.
    std::copy(q.begin(), q.end(),
              order.begin() + static_cast<std::ptrdiff_t>(
                                  hi + offsets[static_cast<std::size_t>(t)]));
  }
  return hi + total;
}

// Deterministic top-down expansion: discoveries are marked in the `next`
// bitmap instead of queued, and the caller compacts the bitmap into `order`.
// Bit order is vertex order, so each level comes out ascending by
// construction — no post-sort, and the result is identical for any thread
// count.
void expand_top_down_bitmap(const GraphView& g, std::vector<vid>& distance,
                            std::vector<vid>& parent, const std::vector<vid>& order,
                            eid lo, eid hi, vid depth, bool compute_parents,
                            Bitmap& next) {
#pragma omp parallel for schedule(dynamic, 64)
  for (eid i = lo; i < hi; ++i) {
    const vid u = order[static_cast<std::size_t>(i)];
    for (vid v : g.neighbors(u)) {
      if (distance[static_cast<std::size_t>(v)] != kNoVertex) continue;
      if (compare_and_swap(distance[static_cast<std::size_t>(v)], kNoVertex,
                           depth)) {
        if (compute_parents) parent[static_cast<std::size_t>(v)] = u;
        next.set_atomic(v);
      }
    }
  }
}

// Rebuild the visited bitmap of vertices [0, n) from distances. Paid once
// per top-down → bottom-up switch; consecutive bottom-up levels keep it
// incrementally.
void rebuild_visited(Bitmap& visited, const std::vector<vid>& distance,
                     std::int64_t n) {
  const std::int64_t nw = Bitmap::word_count(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t w = 0; w < nw; ++w) {
    const std::int64_t base = w * Bitmap::kBitsPerWord;
    const std::int64_t end = std::min(base + Bitmap::kBitsPerWord, n);
    std::uint64_t bits = 0;
    for (std::int64_t i = base; i < end; ++i) {
      if (distance[static_cast<std::size_t>(i)] != kNoVertex) {
        bits |= std::uint64_t{1} << (i - base);
      }
    }
    visited.store_word(w, bits);
  }
}

// One bottom-up sweep. Work is partitioned word-by-word, so every bit write
// (visited and next) is owner-exclusive and needs no atomics, and a word
// whose vertices are all visited is skipped with one load. Each undiscovered
// vertex scans its neighbors for a frontier member (bitmap test) and stops at
// the first hit.
void expand_bottom_up(const GraphView& g, std::vector<vid>& distance,
                      std::vector<vid>& parent, vid depth,
                      bool compute_parents, const Bitmap& frontier,
                      Bitmap& visited, Bitmap& next) {
  const std::int64_t nw = visited.num_words();
#pragma omp parallel for schedule(dynamic, 16)
  for (std::int64_t w = 0; w < nw; ++w) {
    std::uint64_t todo = ~visited.word(w) & visited.live_mask(w);
    while (todo != 0) {
      const int bit = std::countr_zero(todo);
      todo &= todo - 1;
      const vid v = w * Bitmap::kBitsPerWord + bit;
      for (vid u : g.neighbors(v)) {
        if (frontier.test(u)) {
          distance[static_cast<std::size_t>(v)] = depth;
          if (compute_parents) parent[static_cast<std::size_t>(v)] = u;
          visited.set_in_word(w, bit);
          next.set_in_word(w, bit);
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Brandes forward-sweep steps (bc_forward_sweep). Level ranges are scheduled
// through the work-stealing queue instead of per-level `omp parallel for`
// barriers; tiny levels run inline (see stealing_for). `Rows` is what the
// sweep reads — a GraphView, or a BcLayout with int32 ids — and only
// vertices below `bound` are ever discovered: all n for a view, the core
// for a layout, whose leaves betweenness fills in from their parents. (The
// source itself may be a leaf: it is the root, not a discovery.)

// Vertices per work chunk, and the level size below which a level runs
// serially inside the calling thread (no region fork, no atomics).
constexpr std::int64_t kLevelChunk = 64;
constexpr std::int64_t kLevelSerialBelow = 512;
// Bottom-up sweeps are scheduled in words (64 vertices each).
constexpr std::int64_t kWordChunk = 16;
constexpr std::int64_t kWordSerialBelow = 256;

// Bits of word `w` that hold vertices below `bound`.
std::uint64_t bound_mask(std::int64_t bound, std::int64_t w) {
  const std::int64_t rem = bound - w * Bitmap::kBitsPerWord;
  return rem >= Bitmap::kBitsPerWord ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << rem) - 1;
}

// Top-down discovery for the sigma sweep. Parallel chunks claim distances by
// CAS and mark `next` with atomic ORs; a single thread (or a tiny level)
// takes the plain-write path — same discoveries, no lock-prefixed
// instructions on the t=1 hot path.
template <typename Rows>
void expand_top_down_sigma(const Rows& g, vid bound, std::vector<vid>& distance,
                           const std::vector<vid>& order, eid lo, eid hi,
                           vid depth, Bitmap& next, WorkQueue& wq,
                           int nthreads) {
  if (nthreads <= 1 || omp_in_parallel() || hi - lo < kLevelSerialBelow) {
    for (eid i = lo; i < hi; ++i) {
      const vid u = order[static_cast<std::size_t>(i)];
      for (const vid v : g.neighbors(u)) {
        if (v < bound && distance[static_cast<std::size_t>(v)] == kNoVertex) {
          distance[static_cast<std::size_t>(v)] = depth;
          next.set(v);
        }
      }
    }
    return;
  }
  stealing_for(wq, lo, hi, kLevelChunk, kLevelSerialBelow, nthreads,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   const vid u = order[static_cast<std::size_t>(i)];
                   for (const vid v : g.neighbors(u)) {
                     if (v >= bound ||
                         distance[static_cast<std::size_t>(v)] != kNoVertex) {
                       continue;
                     }
                     if (compare_and_swap(distance[static_cast<std::size_t>(v)],
                                          kNoVertex, depth)) {
                       next.set_atomic(v);
                     }
                   }
                 }
               });
}

// Pull shortest-path counts into the freshly discovered level order[lo,hi):
// each new vertex sums sigma over its depth-1 neighbors in adjacency order.
// Writes are per-vertex exclusive and reads are one level back, so there are
// no atomics and the sums — being fixed-order — are bit-identical for any
// thread count.
template <typename Rows>
void pull_sigma_level(const Rows& g, const std::vector<vid>& distance,
                      const std::vector<vid>& order, eid lo, eid hi, vid depth,
                      std::vector<double>& sigma, WorkQueue& wq,
                      int nthreads) {
  const vid prev = depth - 1;
  stealing_for(wq, lo, hi, kLevelChunk, kLevelSerialBelow, nthreads,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   const vid v = order[static_cast<std::size_t>(i)];
                   // Multiply-by-comparison instead of a guarded load: the
                   // depth test flips unpredictably along the adjacency
                   // list, and sigma[u] is always a finite double even for
                   // undiscovered u (stale from a prior source), so the
                   // unconditional load times an exact 0.0/1.0 is safe.
                   // bc_pull_sigma_row (algs/bc_accum.hpp) is the canonical
                   // 4-lane row: lane assignment depends only on the
                   // neighbor index, so the sum is bit-identical to the
                   // bottom-up sweep's and to the dist worker's for the
                   // same vertex (engine- and dist-parity tests pin this).
                   const auto nbrs = g.neighbors(v);
                   const double* sg = sigma.data();
                   sigma[static_cast<std::size_t>(v)] = bc_pull_sigma_row(
                       nbrs.data(), static_cast<std::int64_t>(nbrs.size()), sg,
                       [&distance, prev](vid u) {
                         return distance[static_cast<std::size_t>(u)] == prev;
                       });
                 }
               });
}

// Fused bottom-up level: discovery and sigma in one adjacency scan. Each
// undiscovered vertex below `bound` sums sigma over frontier neighbors;
// unlike the plain BFS sweep it cannot break at the first hit — every
// shortest-path predecessor must be counted — and the non-zero sum IS the
// discovery test (path counts are >= 1). Word-partitioned, so the bit
// writes and the sigma write are owner-exclusive: no atomics at all. The
// frontier test and the pull both read sigma of frontier members only,
// which no thread writes this level. Summation order is adjacency order,
// identical to the top-down pull.
template <typename Rows>
void expand_bottom_up_sigma(const Rows& g, vid bound,
                            std::vector<vid>& distance, vid depth,
                            const Bitmap& frontier, Bitmap& visited,
                            Bitmap& next, std::vector<double>& sigma,
                            WorkQueue& wq, int nthreads) {
  const std::int64_t nw = Bitmap::word_count(bound);
  stealing_for(
      wq, 0, nw, kWordChunk, kWordSerialBelow, nthreads,
      [&](std::int64_t wb, std::int64_t we) {
        for (std::int64_t w = wb; w < we; ++w) {
          std::uint64_t todo = ~visited.word(w) & bound_mask(bound, w);
          while (todo != 0) {
            const int bit = std::countr_zero(todo);
            todo &= todo - 1;
            const vid v = w * Bitmap::kBitsPerWord + bit;
            // Same multiply-select/4-lane row as pull_sigma_level
            // (bc_pull_sigma_row, algs/bc_accum.hpp) — frontier membership
            // at this level IS distance == depth-1, so sharing the lane
            // structure keeps the sums bit-identical between the two
            // sweeps (sigma[u] of a non-frontier vertex is stale but
            // finite, so the unconditional load is safe). The frontier
            // bitmap is small enough to live in L1; only sigma is worth
            // prefetching.
            const auto nbrs = g.neighbors(v);
            const double acc = bc_pull_sigma_row(
                nbrs.data(), static_cast<std::int64_t>(nbrs.size()),
                sigma.data(),
                [&frontier](vid u) { return frontier.test(u); });
            if (acc != 0.0) {
              distance[static_cast<std::size_t>(v)] = depth;
              sigma[static_cast<std::size_t>(v)] = acc;
              visited.set_in_word(w, bit);
              next.set_in_word(w, bit);
            }
          }
        }
      });
}

// The fused sweep over `g`, discovering vertices below `bound` only; the
// direction switch sees `bound_entries` (the adjacency entries of those
// vertices' rows) as the graph's size.
template <typename Rows>
void forward_sweep(const Rows& g, vid bound, eid bound_entries, vid source,
                   BfsResult& r, std::vector<double>& sigma) {
  // Hybrid switch thresholds (see bfs.hpp for why they differ from plain
  // BFS's 14/24).
  constexpr double kAlpha = 28.0;
  constexpr double kBeta = 24.0;
  const vid n = g.num_vertices();
  GCT_CHECK(source >= 0 && source < n, "bc_forward_sweep: source out of range");
  GCT_CHECK(static_cast<vid>(sigma.size()) >= n,
            "bc_forward_sweep: sigma buffer too small");

  r.distance.assign(static_cast<std::size_t>(n), kNoVertex);
  r.parent.clear();
  r.order.resize(static_cast<std::size_t>(n));
  r.level_offsets.assign({0, 1});
  r.distance[static_cast<std::size_t>(source)] = 0;
  r.order[0] = source;
  sigma[static_cast<std::size_t>(source)] = 1.0;

  BfsScratch& sc = scratch();
  sc.ensure_bitmaps(n);
  const int nthreads = num_threads();

  const bool profiling = obs::profile_active();
  bool bottom_up = false;
  bool frontier_bitmap_valid = false;  // sc.frontier holds level [lo,hi)
  bool visited_valid = false;          // sc.visited matches r.distance

  eid lo = 0, hi = 1;
  vid depth = 0;
  eid frontier_edges = g.degree(source);
  while (hi > lo) {
    ++depth;

    const eid remaining_edges = bound_entries - frontier_edges;
    if (!bottom_up && static_cast<double>(frontier_edges) >
                          static_cast<double>(remaining_edges) / kAlpha) {
      bottom_up = true;
    } else if (bottom_up && static_cast<double>(hi - lo) <
                                static_cast<double>(bound) / kBeta) {
      bottom_up = false;
    }

    eid tail;
    if (bottom_up) {
      GCT_SPAN("bc.forward_bu");
      if (profiling) obs::add_work(hi - lo, frontier_edges);
      if (!visited_valid) {
        rebuild_visited(sc.visited, r.distance, bound);
        visited_valid = true;
      }
      if (!frontier_bitmap_valid) {
        sc.frontier.assign_bits(r.order.data() + static_cast<std::ptrdiff_t>(lo),
                                hi - lo);
      }
      sc.next.clear();
      expand_bottom_up_sigma(g, bound, r.distance, depth, sc.frontier,
                             sc.visited, sc.next, sigma, sc.queue, nthreads);
      tail = hi + compact_set_bits(
                      sc.next, r.order.data() + static_cast<std::ptrdiff_t>(hi),
                      sc.block_counts);
    } else {
      GCT_SPAN("bc.forward_td");
      if (profiling) obs::add_work(hi - lo, frontier_edges);
      sc.next.clear();
      expand_top_down_sigma(g, bound, r.distance, r.order, lo, hi, depth,
                            sc.next, sc.queue, nthreads);
      tail = hi + compact_set_bits(
                      sc.next, r.order.data() + static_cast<std::ptrdiff_t>(hi),
                      sc.block_counts);
      pull_sigma_level(g, r.distance, r.order, hi, tail, depth, sigma,
                       sc.queue, nthreads);
      visited_valid = false;
    }
    // This level's bits are the next level's frontier.
    std::swap(sc.frontier, sc.next);
    frontier_bitmap_valid = true;

    lo = hi;
    hi = tail;
    if (hi > lo) {
      r.level_offsets.push_back(hi);
      std::int64_t fe = 0;
#pragma omp parallel for reduction(+ : fe) schedule(static)
      for (eid i = lo; i < hi; ++i) {
        fe += g.degree(r.order[static_cast<std::size_t>(i)]);
      }
      frontier_edges = fe;
    }
  }

  r.order.resize(static_cast<std::size_t>(hi));
}

}  // namespace

void BfsResult::sort_levels() {
  const auto num_levels =
      static_cast<std::int64_t>(level_offsets.size()) - 1;
  for (std::int64_t d = 0; d < num_levels; ++d) {
    std::sort(
        order.begin() + static_cast<std::ptrdiff_t>(
                            level_offsets[static_cast<std::size_t>(d)]),
        order.begin() + static_cast<std::ptrdiff_t>(
                            level_offsets[static_cast<std::size_t>(d) + 1]));
  }
}

BfsResult bfs(const GraphView& g, vid source, const BfsOptions& opts) {
  // Kernel root lives on the wrapper, not bfs_into(): kernels that run one
  // search per source (bc, closeness, diameter) call bfs_into() directly and
  // attribute it to their own phases instead of logging thousands of runs.
  obs::KernelScope scope("bfs");
  BfsResult r;
  bfs_into(g, source, opts, r);
  return r;
}

void bfs_into(const GraphView& g, vid source, const BfsOptions& opts,
              BfsResult& r) {
  const vid n = g.num_vertices();
  GCT_CHECK(source >= 0 && source < n, "bfs: source out of range");
  if (opts.strategy == BfsStrategy::kDirectionOptimizing) {
    GCT_CHECK(!g.directed(),
              "bfs: direction-optimizing strategy requires an undirected "
              "graph (bottom-up sweeps use out-neighbors as in-neighbors)");
  }

  {
    GCT_SPAN("bfs.init");
    r.distance.assign(static_cast<std::size_t>(n), kNoVertex);
    if (opts.compute_parents) {
      r.parent.assign(static_cast<std::size_t>(n), kNoVertex);
    } else {
      r.parent.clear();
    }
    r.order.resize(static_cast<std::size_t>(n));
    r.level_offsets.assign({0, 1});
  }

  r.distance[static_cast<std::size_t>(source)] = 0;
  if (opts.compute_parents) {
    r.parent[static_cast<std::size_t>(source)] = source;
  }
  r.order[0] = source;

  const bool dir_opt = opts.strategy == BfsStrategy::kDirectionOptimizing;
  BfsScratch& sc = scratch();
  if (dir_opt || opts.deterministic_order) sc.ensure_bitmaps(n);
  if (!opts.deterministic_order) sc.ensure_offsets(num_threads());

  const eid total_entries = g.num_adjacency_entries();
  // Per-level work counters keep the Graph500 convention (edges traversed
  // from level d = Σ deg(v) over level d) while attributing the work to the
  // bfs.top_down / bfs.bottom_up span that actually expanded the level, so
  // kernel_profile phase rows stop reporting 0/0. Summed over all expanded
  // levels this equals the old end-of-search bulk count for an unbounded
  // search; max_depth-bounded runs now count only expanded levels.
  const bool profiling = obs::profile_active();
  bool bottom_up = false;
  bool frontier_bitmap_valid = false;  // sc.frontier holds level [lo,hi)
  bool visited_valid = false;          // sc.visited matches r.distance

  eid lo = 0, hi = 1;
  vid depth = 0;
  eid frontier_edges = g.degree(source);
  while (hi > lo) {
    if (opts.max_depth != kNoVertex && depth >= opts.max_depth) break;
    ++depth;

    if (dir_opt) {
      const eid remaining_edges = total_entries - frontier_edges;
      if (!bottom_up &&
          static_cast<double>(frontier_edges) >
              static_cast<double>(remaining_edges) / opts.alpha) {
        bottom_up = true;
      } else if (bottom_up && static_cast<double>(hi - lo) <
                                  static_cast<double>(n) / opts.beta) {
        bottom_up = false;
      }
    }

    eid tail;
    if (bottom_up) {
      GCT_SPAN("bfs.bottom_up");
      if (profiling) obs::add_work(hi - lo, frontier_edges);
      if (!visited_valid) {
        rebuild_visited(sc.visited, r.distance, n);
        visited_valid = true;
      }
      if (!frontier_bitmap_valid) {
        sc.frontier.assign_bits(r.order.data() + static_cast<std::ptrdiff_t>(lo),
                                hi - lo);
      }
      sc.next.clear();
      expand_bottom_up(g, r.distance, r.parent, depth, opts.compute_parents,
                       sc.frontier, sc.visited, sc.next);
      {
        GCT_SPAN("bfs.compact");
        tail = hi + compact_set_bits(
                        sc.next,
                        r.order.data() + static_cast<std::ptrdiff_t>(hi),
                        sc.block_counts);
      }
      // This level's bits are the next level's frontier; swap instead of
      // rebuilding from `order`.
      std::swap(sc.frontier, sc.next);
      frontier_bitmap_valid = true;
    } else {
      GCT_SPAN("bfs.top_down");
      if (profiling) obs::add_work(hi - lo, frontier_edges);
      if (opts.deterministic_order) {
        sc.next.clear();
        expand_top_down_bitmap(g, r.distance, r.parent, r.order, lo, hi, depth,
                               opts.compute_parents, sc.next);
        {
          GCT_SPAN("bfs.compact");
          tail = hi + compact_set_bits(
                          sc.next,
                          r.order.data() + static_cast<std::ptrdiff_t>(hi),
                          sc.block_counts);
        }
        if (dir_opt) {
          std::swap(sc.frontier, sc.next);
          frontier_bitmap_valid = true;
        } else {
          frontier_bitmap_valid = false;
        }
      } else {
        tail = expand_top_down_queued(g, r.distance, r.parent, r.order, lo, hi,
                                      depth, opts.compute_parents,
                                      sc.queue_offsets);
        frontier_bitmap_valid = false;
      }
      visited_valid = false;
    }

    lo = hi;
    hi = tail;
    if (hi > lo) r.level_offsets.push_back(hi);

    // Refresh the frontier edge count only when the heuristic or the work
    // counters will read it again — the final (empty) level skips the sweep.
    if ((dir_opt || profiling) && hi > lo) {
      std::int64_t fe = 0;
#pragma omp parallel for reduction(+ : fe) schedule(static)
      for (eid i = lo; i < hi; ++i) {
        fe += g.degree(r.order[static_cast<std::size_t>(i)]);
      }
      frontier_edges = fe;
    }
  }

  r.order.resize(static_cast<std::size_t>(hi));
  // deterministic_order needs no post-sort: every level is emitted by bitmap
  // compaction, which yields ascending vertex ids for any thread count.
}

void bc_forward_sweep(const GraphView& g, vid source, BfsResult& r,
                      std::vector<double>& sigma) {
  GCT_CHECK(!g.directed(),
            "bc_forward_sweep: requires an undirected graph (sigma pulls use "
            "out-neighbors as in-neighbors)");
  forward_sweep(g, g.num_vertices(), g.num_adjacency_entries(), source, r,
                sigma);
}

void bc_forward_sweep(const BcLayout& g, vid source, BfsResult& r,
                      std::vector<double>& sigma) {
  forward_sweep(g, g.num_core,
                g.offsets[static_cast<std::size_t>(g.num_core)], source, r,
                sigma);
}

Subgraph ego_network(const CsrGraph& g, vid center, vid radius) {
  GCT_CHECK(radius >= 0, "ego_network: radius must be >= 0");
  BfsOptions opts;
  opts.max_depth = radius;
  opts.compute_parents = false;
  const BfsResult r = bfs(g, center, opts);
  std::vector<char> mask(static_cast<std::size_t>(g.num_vertices()), 0);
  for (vid v : r.order) mask[static_cast<std::size_t>(v)] = 1;
  return induced_subgraph(g, mask);
}

}  // namespace graphct
