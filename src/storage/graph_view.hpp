#pragma once

/// \file graph_view.hpp
/// GraphView — the representation-polymorphism seam between kernels and
/// graph storage.
///
/// Kernels (BFS, components, PageRank, BC, closeness, k-BC, diameter,
/// degree) take `const GraphView&` instead of `const CsrGraph&`. A view is
/// two pointers and a few cached scalars:
///
///   * DRAM-resident CsrGraph, or a packed store with the pass-through
///     codec: `adj_` is the raw adjacency base, and neighbors(v) is the
///     same pointer arithmetic CsrGraph does — no virtual call, no branch
///     miss in steady state, nothing to pay for not using compression.
///   * packed store with the varint codec: `adj_` is null and neighbors(v)
///     goes through the store's per-thread decoded-block cache.
///
/// Both constructors are implicit on purpose: every existing call site
/// passing a CsrGraph keeps compiling, and tests exercise kernels over
/// either backend by changing only what they pass in.
///
/// Spans returned by neighbors() on the decode path stay valid until the
/// calling thread touches two further blocks (BlockCache::kMinResident);
/// kernels holding at most one span at a time — all of ours — are safe.

#include <cstdint>
#include <span>

#include "graph/csr_graph.hpp"
#include "storage/graph_store.hpp"

namespace graphct {

class GraphView {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, see above.
  GraphView(const CsrGraph& g)
      : mem_(&g),
        offsets_(g.offsets().data()),
        adj_(g.adjacency().data()),
        num_vertices_(g.num_vertices()),
        num_entries_(g.num_adjacency_entries()),
        num_self_loops_(g.num_self_loops()),
        directed_(g.directed()),
        sorted_(g.sorted_adjacency()) {}

  /// Throws graphct::Error when the store holds a neighbor id outside
  /// [0, n) (GraphStore::check_neighbor_ids, a pass on the first view).
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, see above.
  GraphView(const storage::GraphStore& s)
      : store_(&s),
        offsets_(s.offsets().data()),
        adj_(s.raw_adjacency()),
        num_vertices_(s.num_vertices()),
        num_entries_(s.num_adjacency_entries()),
        num_self_loops_(s.num_self_loops()),
        directed_(s.directed()),
        sorted_(s.sorted_adjacency()) {
    s.check_neighbor_ids();
  }

  [[nodiscard]] vid num_vertices() const { return num_vertices_; }
  [[nodiscard]] eid num_adjacency_entries() const { return num_entries_; }
  [[nodiscard]] eid num_edges() const {
    return directed_ ? num_entries_ : (num_entries_ + num_self_loops_) / 2;
  }
  [[nodiscard]] vid num_self_loops() const { return num_self_loops_; }
  [[nodiscard]] bool directed() const { return directed_; }
  [[nodiscard]] bool sorted_adjacency() const { return sorted_; }

  [[nodiscard]] vid degree(vid v) const {
    return static_cast<vid>(offsets_[v + 1] - offsets_[v]);
  }

  [[nodiscard]] std::span<const vid> neighbors(vid v) const {
    const eid lo = offsets_[v];
    const eid hi = offsets_[v + 1];
    if (adj_ != nullptr) [[likely]] {
      return {adj_ + lo, static_cast<std::size_t>(hi - lo)};
    }
    if (store_ != nullptr) return store_->neighbors(v);
    // Memory-backed with zero adjacency entries: the vector's data() is
    // null, so adj_ never matched; every vertex has an empty span.
    return {};
  }

  [[nodiscard]] bool has_edge(vid u, vid v) const;

  /// The in-memory graph behind this view, or nullptr if store-backed.
  /// Used by code paths that need CSR internals (reverse, symmetrize,
  /// subgraph surgery) to pick between zero-copy and materialize().
  [[nodiscard]] const CsrGraph* as_csr() const { return mem_; }

  /// The packed store behind this view, or nullptr if memory-backed.
  [[nodiscard]] const storage::GraphStore* store() const { return store_; }

  [[nodiscard]] bool store_backed() const { return store_ != nullptr; }

  /// A DRAM copy of the graph: copies the CSR arrays, or decodes every
  /// block of a packed store. For fallback paths that genuinely need an
  /// in-memory CsrGraph (graph transforms); O(n + m) time and memory.
  [[nodiscard]] CsrGraph materialize() const;

  /// The in-memory graph behind this view, decoding into `scratch` only
  /// when store-backed — the zero-copy variant of materialize() for
  /// callers that already hold a CsrGraph slot.
  [[nodiscard]] const CsrGraph& as_csr_or(CsrGraph& scratch) const {
    if (mem_ != nullptr) return *mem_;
    scratch = materialize();
    return scratch;
  }

 private:
  const CsrGraph* mem_ = nullptr;
  const storage::GraphStore* store_ = nullptr;
  const eid* offsets_ = nullptr;
  const vid* adj_ = nullptr;  ///< non-null for DRAM CSR and pass-through codec
  vid num_vertices_ = 0;
  eid num_entries_ = 0;
  vid num_self_loops_ = 0;
  bool directed_ = false;
  bool sorted_ = false;
};

}  // namespace graphct
