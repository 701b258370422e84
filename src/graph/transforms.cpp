#include "graph/transforms.hpp"

#include <omp.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

CsrGraph reverse(const CsrGraph& g) {
  if (!g.directed()) return g;
  const vid n = g.num_vertices();
  EdgeList rev(n);
  rev.reserve(static_cast<std::size_t>(g.num_adjacency_entries()));
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) rev.add(v, u);
  }
  BuildOptions opts;
  opts.symmetrize = false;
  opts.dedup = false;
  opts.sort_adjacency = true;
  return build_csr(rev, opts);
}

CsrGraph to_undirected(const CsrGraph& g) {
  const vid n = g.num_vertices();
  EdgeList el(n);
  el.reserve(static_cast<std::size_t>(g.num_adjacency_entries()));
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) {
      if (g.directed() || u <= v) el.add(u, v);
    }
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.dedup = true;
  opts.sort_adjacency = true;
  return build_csr(el, opts);
}

Subgraph induced_subgraph(const CsrGraph& g, std::span<const char> mask) {
  const vid n = g.num_vertices();
  GCT_CHECK(static_cast<vid>(mask.size()) == n,
            "induced_subgraph: mask size must equal vertex count");

  std::vector<vid> new_id(static_cast<std::size_t>(n), kNoVertex);
  std::vector<vid> orig_ids;
  for (vid v = 0; v < n; ++v) {
    if (mask[static_cast<std::size_t>(v)]) {
      new_id[static_cast<std::size_t>(v)] = static_cast<vid>(orig_ids.size());
      orig_ids.push_back(v);
    }
  }

  // New ids ascend with the original ids, so each kept row is its old row
  // filtered and renumbered in place: a sorted row stays sorted, and an
  // undirected graph keeps both halves of every edge it keeps.
  const auto k = static_cast<vid>(orig_ids.size());
  std::vector<eid> offsets(static_cast<std::size_t>(k) + 1, 0);
#pragma omp parallel for schedule(dynamic, 256)
  for (vid i = 0; i < k; ++i) {
    eid kept = 0;
    for (vid v : g.neighbors(orig_ids[static_cast<std::size_t>(i)])) {
      kept += mask[static_cast<std::size_t>(v)] ? 1 : 0;
    }
    offsets[static_cast<std::size_t>(i)] = kept;
  }
  offsets.back() = exclusive_scan(
      std::span<const eid>(offsets.data(), static_cast<std::size_t>(k)),
      std::span<eid>(offsets.data(), static_cast<std::size_t>(k)));

  std::vector<vid> adjacency(static_cast<std::size_t>(offsets.back()));
  vid self_loops = 0;
#pragma omp parallel for reduction(+ : self_loops) schedule(dynamic, 256)
  for (vid i = 0; i < k; ++i) {
    vid* const row = adjacency.data() + offsets[static_cast<std::size_t>(i)];
    vid* out = row;
    for (vid v : g.neighbors(orig_ids[static_cast<std::size_t>(i)])) {
      const vid w = new_id[static_cast<std::size_t>(v)];
      if (w == kNoVertex) continue;
      *out++ = w;
      self_loops += w == i ? 1 : 0;
    }
    if (!g.sorted_adjacency()) std::sort(row, out);
  }
  return {CsrGraph(std::move(offsets), std::move(adjacency), g.directed(),
                   self_loops, /*sorted_adjacency=*/true),
          std::move(orig_ids)};
}

Subgraph extract_by_label(const CsrGraph& g, std::span<const vid> labels,
                          vid label) {
  const vid n = g.num_vertices();
  GCT_CHECK(static_cast<vid>(labels.size()) == n,
            "extract_by_label: labels size must equal vertex count");
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
#pragma omp parallel for schedule(static)
  for (vid v = 0; v < n; ++v) {
    mask[static_cast<std::size_t>(v)] =
        labels[static_cast<std::size_t>(v)] == label ? 1 : 0;
  }
  return induced_subgraph(g, mask);
}

CsrGraph mutual_subgraph(const CsrGraph& directed) {
  GCT_CHECK(directed.directed(), "mutual_subgraph: input must be directed");
  GCT_CHECK(directed.sorted_adjacency(),
            "mutual_subgraph: input needs sorted adjacency");
  const vid n = directed.num_vertices();

  // Per-thread edge buffers keep the scan parallel; order is normalized by
  // only emitting u < v, so the result is schedule-independent.
  const int nt = num_threads();
  std::vector<std::vector<Edge>> local(static_cast<std::size_t>(nt));
#pragma omp parallel num_threads(nt)
  {
    auto& mine = local[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 256)
    for (vid u = 0; u < n; ++u) {
      for (vid v : directed.neighbors(u)) {
        if (u < v && directed.has_edge(v, u)) mine.push_back({u, v});
      }
    }
  }

  EdgeList el(n);
  std::size_t total = 0;
  for (const auto& b : local) total += b.size();
  el.reserve(total);
  for (const auto& b : local) {
    for (const Edge& e : b) el.add(e);
  }
  BuildOptions opts;
  opts.symmetrize = true;
  opts.dedup = true;  // parallel arcs u->v would otherwise duplicate pairs
  opts.sort_adjacency = true;
  return build_csr(el, opts);
}

Subgraph relabel_by_degree(const CsrGraph& g) {
  const vid n = g.num_vertices();
  std::vector<vid> order(static_cast<std::size_t>(n));
  for (vid v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](vid a, vid b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  std::vector<vid> new_id(static_cast<std::size_t>(n));
  for (vid i = 0; i < n; ++i) {
    new_id[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  }

  EdgeList el(n);
  el.reserve(static_cast<std::size_t>(g.num_adjacency_entries()));
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) {
      if (!g.directed() && u > v) continue;
      el.add(new_id[static_cast<std::size_t>(u)],
             new_id[static_cast<std::size_t>(v)]);
    }
  }
  BuildOptions opts;
  opts.symmetrize = !g.directed();
  opts.dedup = false;
  opts.sort_adjacency = true;
  return {build_csr(el, opts), std::move(order)};
}

Subgraph drop_isolated(const CsrGraph& g) {
  const vid n = g.num_vertices();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
#pragma omp parallel for schedule(static)
  for (vid v = 0; v < n; ++v) {
    mask[static_cast<std::size_t>(v)] = g.degree(v) > 0 ? 1 : 0;
  }
  // Directed graphs: a vertex with only in-arcs has out-degree 0 but is not
  // isolated; check in-degree via a sweep.
  if (g.directed()) {
    for (vid u = 0; u < n; ++u) {
      for (vid v : g.neighbors(u)) mask[static_cast<std::size_t>(v)] = 1;
    }
  }
  return induced_subgraph(g, mask);
}

}  // namespace graphct
