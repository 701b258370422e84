#pragma once

/// \file edge_list.hpp
/// Edge-list staging container. Generators and parsers produce an EdgeList;
/// the builder turns it into a CSR graph.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace graphct {

/// A directed arc (or an undirected edge, by convention src<->dst).
struct Edge {
  vid src = 0;
  vid dst = 0;

  bool operator==(const Edge&) const = default;
};

/// Growable edge list with an optional explicit vertex-count hint.
///
/// The hint matters when isolated vertices must survive the CSR build (e.g.
/// a user who tweets without mentioning anyone still exists in the graph).
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(vid num_vertices_hint) : hint_(num_vertices_hint) {}

  void reserve(std::size_t n) { edges_.reserve(n); }
  void add(vid src, vid dst) { edges_.push_back({src, dst}); }
  void add(const Edge& e) { edges_.push_back(e); }

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] std::vector<Edge>& edges() { return edges_; }

  /// Explicit vertex count (kNoVertex when unset; the builder then uses
  /// 1 + max endpoint id).
  [[nodiscard]] vid num_vertices_hint() const { return hint_; }
  void set_num_vertices_hint(vid n) { hint_ = n; }

  /// Largest endpoint id + 1, or the hint if larger; 0 for an empty list.
  /// Throws graphct::Error when an endpoint is the largest vid, whose
  /// count would overflow.
  [[nodiscard]] vid inferred_num_vertices() const;

 private:
  std::vector<Edge> edges_;
  vid hint_ = kNoVertex;
};

}  // namespace graphct
