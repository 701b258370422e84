#pragma once

/// \file bc_layout.hpp
/// The per-call 32-bit adjacency that both betweenness sweeps read.
///
/// vid is 8 bytes, but betweenness streams the whole adjacency array twice
/// per source, so on graphs whose ids fit 32 bits one copy with int32 ids
/// halves the dominant stream (and the cache pollution that evicts the
/// per-vertex state between random accesses). betweenness_centrality
/// (core/betweenness.cpp) builds one per call, under the score-memory
/// budget, and every source of the call reads it.
///
/// For undirected in-memory graphs the layout also *folds the leaves*.
/// A leaf is a vertex of degree 1 whose one adjacency entry is a different
/// vertex (its parent) of degree >= 2; every other vertex is core (so a
/// vertex whose only entry is a self-loop is core, and so are both ends of
/// an isolated edge). The layout renumbers the vertices: the core first,
/// in BFS order from the highest-degree vertex, then the leaves, grouped
/// by parent in the order they appear in the parent's row. Each row keeps
/// its original neighbour sequence with ids mapped, so every 4-lane sum in
/// algs/bc_accum.hpp adds the same terms in the same order. The forward
/// sweep then never discovers a leaf, and betweenness fills in each
/// leaf's backward state from its parent (see fold_leaves in
/// core/betweenness.cpp for why no score bit moves).
///
/// Directed graphs and packed stores get an identity layout: original ids,
/// no fold, read by the backward sweep only.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

struct BcLayout {
  std::vector<eid> offsets;       ///< n + 1 row offsets
  std::vector<std::int32_t> adj;  ///< rows in original neighbour order
  /// Original id -> layout id. Empty for an identity layout.
  std::vector<std::int32_t> label;
  /// Layout ids [0, num_core) are core; [num_core, n) are leaves.
  vid num_core = 0;

  /// Bytes a layout of a graph this size holds (the budget check).
  static std::uint64_t bytes(vid n, eid entries, bool folded);

  [[nodiscard]] bool folded() const { return !label.empty(); }
  [[nodiscard]] vid num_vertices() const {
    return static_cast<vid>(offsets.size()) - 1;
  }
  [[nodiscard]] vid degree(vid v) const {
    return static_cast<vid>(offsets[static_cast<std::size_t>(v) + 1] -
                            offsets[static_cast<std::size_t>(v)]);
  }
  [[nodiscard]] std::span<const std::int32_t> neighbors(vid v) const {
    const eid lo = offsets[static_cast<std::size_t>(v)];
    return {adj.data() + lo, static_cast<std::size_t>(degree(v))};
  }
  /// The one neighbour of leaf `v` (a layout id below num_core).
  [[nodiscard]] vid parent(vid v) const {
    return adj[static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)])];
  }
};

/// Build the layout of `g`, whose ids must fit int32. `fold` relabels and
/// folds the leaves; it requires an undirected graph with symmetric rows.
BcLayout build_bc_layout(const GraphView& g, bool fold);

}  // namespace graphct
