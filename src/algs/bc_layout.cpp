#include "algs/bc_layout.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

namespace {

constexpr std::int32_t kUnlabelled = -1;
constexpr std::int32_t kLeaf = -2;

// Graphs below this many vertices build serially: on them a parallel region
// costs more than the pass it splits, and under an oversubscribed host each
// region can wait a scheduler slice for its team.
constexpr vid kParallelFrom = vid{1} << 16;

/// Original ids, no fold: each row copied in order. Serial, so a packed
/// store is read in id order through one block cache, each block decoded
/// once.
void copy_identity(const GraphView& g, BcLayout& out) {
  const vid n = g.num_vertices();
  eid pos = 0;
  for (vid v = 0; v < n; ++v) {
    out.offsets[static_cast<std::size_t>(v)] = pos;
    for (const vid u : g.neighbors(v)) {
      out.adj[static_cast<std::size_t>(pos++)] = static_cast<std::int32_t>(u);
    }
  }
  out.offsets[static_cast<std::size_t>(n)] = pos;
  out.num_core = n;
}

/// Number the vertices: the core in BFS order, one search per component
/// starting from the highest-degree vertex and then from the lowest
/// unlabelled id; each leaf when its parent's row is scanned. Fills
/// `label` (original -> layout) and `order` (layout -> original). `Rows`
/// is the graph's view or its identity layout: the same rows in the same
/// order, so both give the same numbering.
template <typename Rows>
void number_vertices(const Rows& g, std::vector<std::int32_t>& label,
                     std::vector<std::int32_t>& order, vid num_core) {
  const vid n = g.num_vertices();
  vid start = 0;
  for (vid v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(start)) start = v;
  }
  auto next_core = static_cast<std::int32_t>(0);
  auto next_leaf = static_cast<std::int32_t>(num_core);
  const auto claim = [&](vid v, std::int32_t& next) {
    label[static_cast<std::size_t>(v)] = next;
    order[static_cast<std::size_t>(next++)] = static_cast<std::int32_t>(v);
  };
  claim(start, next_core);  // max degree >= 2 whenever a leaf exists: core
  std::int32_t head = 0;
  vid cursor = 0;
  for (;;) {
    while (head < next_core) {
      const vid u = order[static_cast<std::size_t>(head++)];
      for (const vid w : g.neighbors(u)) {
        const std::int32_t lw = label[static_cast<std::size_t>(w)];
        if (lw == kUnlabelled) {
          claim(w, next_core);
        } else if (lw == kLeaf) {
          claim(w, next_leaf);
        }
      }
    }
    while (cursor < n &&
           label[static_cast<std::size_t>(cursor)] != kUnlabelled) {
      ++cursor;
    }
    if (cursor == n) break;
    claim(cursor, next_core);
  }
  // A leaf missing from its parent's row means the rows are not symmetric.
  GCT_CHECK(next_leaf == n,
            "bc layout: undirected graph has asymmetric adjacency rows");
}

/// Label the leaves, number the vertices and copy the rows in layout
/// order, ids mapped. `Rows` as in number_vertices.
template <typename Rows>
void fold(const Rows& g, BcLayout& out) {
  const vid n = g.num_vertices();
  if (n == 0) return;
  auto& label = out.label;
  label.assign(static_cast<std::size_t>(n), kUnlabelled);
  const bool parallel = n >= kParallelFrom;
  std::int64_t leaves = 0;
#pragma omp parallel for schedule(static) reduction(+ : leaves) if (parallel)
  for (vid v = 0; v < n; ++v) {
    if (g.degree(v) != 1) continue;
    const vid p = g.neighbors(v)[0];
    if (p != v && g.degree(p) >= 2) {
      label[static_cast<std::size_t>(v)] = kLeaf;
      ++leaves;
    }
  }
  out.num_core = n - leaves;

  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  number_vertices(g, label, order, out.num_core);

  auto& offsets = out.offsets;
#pragma omp parallel for schedule(static) if (parallel)
  for (vid i = 0; i < n; ++i) {
    offsets[static_cast<std::size_t>(i)] =
        g.degree(order[static_cast<std::size_t>(i)]);
  }
  offsets[static_cast<std::size_t>(n)] = 0;
  if (parallel) {
    exclusive_scan_inplace(offsets);
  } else {
    std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                        eid{0});
  }
#pragma omp parallel for schedule(dynamic, 1024) if (parallel)
  for (vid i = 0; i < n; ++i) {
    std::int32_t* row =
        out.adj.data() + offsets[static_cast<std::size_t>(i)];
    for (const vid u : g.neighbors(order[static_cast<std::size_t>(i)])) {
      *row++ = label[static_cast<std::size_t>(u)];
    }
  }
}

}  // namespace

std::uint64_t BcLayout::bytes(vid n, eid entries, bool folded) {
  const auto un = static_cast<std::uint64_t>(n);
  return (un + 1) * sizeof(eid) +
         static_cast<std::uint64_t>(entries) * sizeof(std::int32_t) +
         (folded ? un * sizeof(std::int32_t) : 0);
}

std::uint64_t bc_layout_build_bytes(const GraphView& g, bool fold) {
  const vid n = g.num_vertices();
  const eid m = g.num_adjacency_entries();
  return BcLayout::bytes(n, m, fold) +
         (fold && g.store_backed() ? BcLayout::bytes(n, m, false) : 0);
}

BcLayout build_bc_layout(const GraphView& g, bool fold_leaves) {
  const auto sized = [&g] {
    BcLayout l;
    l.offsets.resize(static_cast<std::size_t>(g.num_vertices()) + 1);
    l.adj.resize(static_cast<std::size_t>(g.num_adjacency_entries()));
    return l;
  };
  BcLayout out = sized();
  if (!fold_leaves) {
    copy_identity(g, out);
  } else if (g.store_backed()) {
    // The numbering and the permuted row copy read rows in BFS order, which
    // would walk a store's blocks at random through its cache. So decode
    // the store once, in id order, into a transient identity copy and fold
    // from that: the same rows in the same order, hence the same layout,
    // byte for byte.
    BcLayout rows = sized();
    copy_identity(g, rows);
    fold(rows, out);
  } else {
    fold(g, out);
  }
  return out;
}

}  // namespace graphct
