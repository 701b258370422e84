#include "graph/edge_list.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace graphct {

vid EdgeList::inferred_num_vertices() const {
  vid n = hint_ == kNoVertex ? 0 : hint_;
  const std::int64_t m = static_cast<std::int64_t>(edges_.size());
  vid maxid = -1;
#pragma omp parallel for reduction(max : maxid) schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    const Edge& e = edges_[static_cast<std::size_t>(i)];
    maxid = std::max(maxid, std::max(e.src, e.dst));
  }
  GCT_CHECK(maxid < std::numeric_limits<vid>::max(),
            "edge list: vertex id " + std::to_string(maxid) +
                " out of range: the vertex count would overflow");
  return std::max(n, maxid + 1);
}

}  // namespace graphct
