#pragma once

/// \file bfs.hpp
/// Parallel level-synchronous breadth-first search.
///
/// BFS is the traversal engine under most of GraphCT: connected components,
/// diameter estimation (§IV-A), and the (k-)betweenness forward pass all run
/// level-synchronous searches. The implementation exposes the fine-grained
/// parallelism the paper describes (§II-B), but frontier slots are assigned
/// by prefix-sum compaction instead of a contended fetch-and-add tail:
/// top-down expansions collect discoveries in per-thread queues (or a
/// word-packed bitmap when deterministic order is requested) and one
/// exclusive scan assigns disjoint output ranges; bottom-up sweeps test
/// membership against a bitmap frontier, skip fully-visited vertices 64 at
/// a time, and write owner-exclusive words with no atomics at all. The only
/// remaining per-vertex synchronization is the CAS that claims the distance
/// word.
///
/// Two strategies are provided:
///  * kTopDown — the classic frontier-expansion search (what GraphCT ran on
///    the XMT).
///  * kDirectionOptimizing — switches to bottom-up sweeps when the frontier
///    is a large fraction of the graph (Beamer-style); undirected graphs
///    only. Closeness and k-betweenness run it by default, and betweenness
///    runs its fused sigma variant (bc_forward_sweep).

#include <cstdint>
#include <vector>

#include "algs/bc_layout.hpp"
#include "graph/csr_graph.hpp"
#include "graph/transforms.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

/// BFS traversal strategy.
enum class BfsStrategy {
  kTopDown,
  kDirectionOptimizing,
};

/// BFS tuning knobs.
struct BfsOptions {
  BfsStrategy strategy = BfsStrategy::kTopDown;

  /// Stop after this many levels (kNoVertex = unbounded). Implements the
  /// paper's "breadth-first search from a given vertex of a given length"
  /// kernel.
  vid max_depth = kNoVertex;

  /// Direction-optimizing heuristic: go bottom-up when the frontier's edge
  /// count exceeds (unexplored edges)/alpha; return top-down when the
  /// frontier shrinks below n/beta vertices.
  double alpha = 14.0;
  double beta = 24.0;

  /// Emit each BFS level in ascending vertex id so `order` is
  /// schedule-independent. This costs no sort: deterministic levels are
  /// produced by bitmap compaction, which is ordered by construction for any
  /// thread count. Centrality kernels still disable it — their per-vertex
  /// accumulations are order-invariant, and the per-thread discovery queues
  /// skip the bitmap's O(n/64) per-level scan on high-diameter graphs.
  bool deterministic_order = true;

  /// Record shortest-path parents. Centrality kernels disable this — they
  /// recover predecessors from distances — saving one n-sized array per
  /// search. When false, BfsResult::parent is left empty.
  bool compute_parents = true;
};

/// Result of one BFS.
struct BfsResult {
  /// distance[v] = hop count from the source, or kNoVertex if unreached.
  std::vector<vid> distance;

  /// parent[v] = predecessor on one shortest path (source's parent is
  /// itself); kNoVertex if unreached. Which predecessor wins between ties is
  /// schedule-dependent; distances and level structure are deterministic.
  std::vector<vid> parent;

  /// Vertices in discovery order, grouped by level:
  /// order[level_offsets[d] .. level_offsets[d+1]) is level d.
  std::vector<vid> order;

  /// Level boundaries into `order`; size = (#levels + 1).
  std::vector<eid> level_offsets;

  /// Number of vertices reached, including the source.
  [[nodiscard]] vid num_reached() const {
    return static_cast<vid>(order.size());
  }

  /// Eccentricity of the source within its component (deepest level).
  [[nodiscard]] vid max_distance() const {
    return static_cast<vid>(level_offsets.size()) - 2;
  }

  /// Rewrite each level's slice of `order` into ascending vertex id.
  /// Callers whose per-level sweeps are order-invariant (the centrality
  /// kernels — see BfsOptions::deterministic_order) use this to make
  /// their adjacency reads sequential: over a packed GraphStore,
  /// discovery-order iteration touches blocks near-randomly and thrashes
  /// the decode cache, turning each sweep into hundreds of full-graph
  /// decodes.
  void sort_levels();
};

/// Run BFS from `source`. Throws if source is out of range. Takes a
/// GraphView, so it traverses DRAM CSR and packed mmap stores alike;
/// passing a CsrGraph converts implicitly.
BfsResult bfs(const GraphView& g, vid source, const BfsOptions& opts = {});

/// As bfs(), but reuses `result`'s buffers — no allocations when the same
/// BfsResult is passed across many searches of one graph. This is the inner
/// loop of every sampled kernel (diameter estimation runs 256 of these,
/// betweenness one per source).
void bfs_into(const GraphView& g, vid source, const BfsOptions& opts,
              BfsResult& result);

/// Brandes forward sweep: BFS levels and shortest-path counts (sigma) in a
/// single direction-optimizing pass. This is the front half of betweenness's
/// accumulate_source, fused so the adjacency is streamed once per level
/// instead of once for discovery and again for the sigma sweep:
///
///  * top-down levels discover via the bitmap engine (CAS on distance, bit
///    order = vertex order), then pull sigma into the newly compacted level
///    — each new vertex sums sigma over its depth-1 neighbors in adjacency
///    order, so no atomics and no schedule dependence;
///  * bottom-up levels fuse discovery and sigma: every undiscovered vertex
///    scans its full neighbor list summing sigma over frontier members; a
///    non-zero sum IS discovery (word-partitioned, owner-exclusive bit and
///    sigma writes, no atomics at all).
///
/// Both directions sum sigma in adjacency order over the same predecessor
/// sets, so sigma — and everything derived from it — is bit-identical for
/// any thread count and any hybrid/top-down switch schedule. Levels are
/// emitted in ascending vertex id by bitmap compaction (no post-sort).
///
/// The sweep goes bottom-up when the frontier's edge count exceeds
/// (unexplored edges)/28 and back top-down below n/24 frontier vertices —
/// more conservative than plain BFS's 14/24, because a bottom-up sigma
/// level cannot stop at the first discovered parent: every shortest-path
/// predecessor must be summed, so bottom-up pays full degree per
/// undiscovered vertex and only wins on the fattest levels.
///
/// Undirected graphs only: both directions read a vertex's neighbor list as
/// its in-edges, which on a directed CSR are its out-arcs. Throws on a
/// directed graph.
///
/// `sigma` must have room for n entries; only entries of reached vertices
/// are written (each exactly once — no pre-clearing needed). `r.parent` is
/// left empty (Brandes recovers predecessors from distances).
void bc_forward_sweep(const GraphView& g, vid source, BfsResult& r,
                      std::vector<double>& sigma);

/// The same sweep over an undirected graph's BcLayout (layout ids in and
/// out). It discovers core vertices only: a leaf is reached only through
/// its parent, so its distance and sigma follow from the parent's, and
/// every term it adds to a core vertex's sum is exactly zero. Leaves stay
/// at kNoVertex, except a leaf source, which is the root.
void bc_forward_sweep(const BcLayout& g, vid source, BfsResult& r,
                      std::vector<double>& sigma);

/// Ego network: the subgraph induced by every vertex within `radius` hops
/// of `center` (radius 1 = the classic ego net of center + its neighbors).
/// The analyst drill-down after a ranking: "show me @ajc's neighborhood."
/// orig_ids maps back to the input graph; the center is always included.
Subgraph ego_network(const CsrGraph& g, vid center, vid radius);

}  // namespace graphct
