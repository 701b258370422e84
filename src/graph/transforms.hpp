#pragma once

/// \file transforms.hpp
/// Structural graph transformations (paper §IV-A "utility functions"):
/// directed->undirected conversion, induced subgraph extraction by a
/// coloring/mask, arc reversal, and the mutual-edge ("conversation") filter
/// the paper uses in §III to strip one-way broadcast links.

#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace graphct {

/// A subgraph plus the mapping from its new vertex ids to original ids:
/// orig_ids[new_id] == old_id.
struct Subgraph {
  CsrGraph graph;
  std::vector<vid> orig_ids;
};

/// Reverse every arc of a directed graph. (Identity for undirected input.)
CsrGraph reverse(const CsrGraph& g);

/// Convert a directed graph to undirected: each arc u->v becomes edge {u,v};
/// parallel edges collapse. (Copies an already-undirected graph.)
CsrGraph to_undirected(const CsrGraph& g);

/// Induced subgraph over vertices v with mask[v] != 0. Vertices are
/// relabelled densely in ascending original-id order; edges with either
/// endpoint unmasked are dropped. Works for directed and undirected graphs.
Subgraph induced_subgraph(const CsrGraph& g, std::span<const char> mask);

/// Induced subgraph of all vertices whose `labels[v] == label` — the paper's
/// "extract a subgraph induced by a coloring function" (component
/// extraction, k-core extraction, ...).
Subgraph extract_by_label(const CsrGraph& g, std::span<const vid> labels,
                          vid label);

/// Mutual-edge filter (§III-C): keep the unordered pair {u,v}, u != v, only
/// when both arcs u->v and v->u exist in the directed input. The result is
/// an undirected graph on the same vertex set (use drop_isolated() to shrink
/// it). Requires sorted adjacency. This is how the paper turns broadcast
/// networks into conversation networks.
CsrGraph mutual_subgraph(const CsrGraph& directed);

/// Remove degree-0 vertices, relabelling survivors densely.
Subgraph drop_isolated(const CsrGraph& g);

}  // namespace graphct
