#include "graph/transforms.hpp"

#include <omp.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

namespace {

/// The arcs u->v of `g` for which keep(u, v) holds, as in-rows: row v lists
/// every such u with its multiplicity. One counting pass, a prefix sum and
/// one scatter in source order, so every row comes out ascending with no
/// sort.
template <typename Keep>
std::pair<std::vector<eid>, std::vector<vid>> transpose(const CsrGraph& g,
                                                        Keep keep) {
  const vid n = g.num_vertices();
  std::vector<eid> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid u = 0; u < n; ++u) {
    for (const vid v : g.neighbors(u)) {
      if (keep(u, v)) ++offsets[static_cast<std::size_t>(v)];
    }
  }
  offsets.back() = exclusive_scan(
      std::span<const eid>(offsets.data(), static_cast<std::size_t>(n)),
      std::span<eid>(offsets.data(), static_cast<std::size_t>(n)));
  std::vector<eid> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<vid> adjacency(static_cast<std::size_t>(offsets.back()));
  for (vid u = 0; u < n; ++u) {
    for (const vid v : g.neighbors(u)) {
      if (keep(u, v)) {
        adjacency[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(v)]++)] = u;
      }
    }
  }
  return {std::move(offsets), std::move(adjacency)};
}

/// The ascending union of two ascending ranges, each value once. Writes it
/// to `out` unless null; returns its length.
eid merge_unique(std::span<const vid> a, std::span<const vid> b, vid* out) {
  eid k = 0;
  vid last = kNoVertex;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const vid x =
        j == b.size() || (i < a.size() && a[i] <= b[j]) ? a[i++] : b[j++];
    if (x != last) {
      if (out != nullptr) out[k] = x;
      ++k;
      last = x;
    }
  }
  return k;
}

}  // namespace

CsrGraph reverse(const CsrGraph& g) {
  if (!g.directed()) return g;
  auto [offsets, adjacency] = transpose(g, [](vid, vid) { return true; });
  const vid n = g.num_vertices();
  vid self_loops = 0;
#pragma omp parallel for reduction(+ : self_loops) schedule(dynamic, 256)
  for (vid v = 0; v < n; ++v) {
    for (eid i = offsets[static_cast<std::size_t>(v)];
         i < offsets[static_cast<std::size_t>(v) + 1]; ++i) {
      self_loops += adjacency[static_cast<std::size_t>(i)] == v ? 1 : 0;
    }
  }
  return CsrGraph(std::move(offsets), std::move(adjacency), /*directed=*/true,
                  self_loops, /*sorted_adjacency=*/true);
}

CsrGraph to_undirected(const CsrGraph& g) {
  // Each arc of a directed graph, and each edge of an undirected one once
  // (from its lower endpoint's row), joins both endpoints' rows: row u is
  // the ascending union of u's kept out-row and its in-row, each neighbor
  // once, a self-loop included once.
  const bool directed = g.directed();
  const auto keep = [directed](vid u, vid v) { return directed || u <= v; };
  const auto [in_offsets, in_adjacency] = transpose(g, keep);
  const vid n = g.num_vertices();

  // Both passes merge the same rows. A sorted out-row is read in place (an
  // undirected one from its first entry >= u); an unsorted one is copied
  // into per-thread scratch and sorted, in each pass.
  const bool sorted = g.sorted_adjacency();
  const auto merge_row = [&](vid u, std::vector<vid>& scratch, vid* out) {
    std::span<const vid> row = g.neighbors(u);
    if (!sorted) {
      scratch.clear();
      for (const vid v : row) {
        if (keep(u, v)) scratch.push_back(v);
      }
      std::sort(scratch.begin(), scratch.end());
      row = scratch;
    } else if (!directed) {
      row = row.subspan(static_cast<std::size_t>(
          std::lower_bound(row.begin(), row.end(), u) - row.begin()));
    }
    const eid lo = in_offsets[static_cast<std::size_t>(u)];
    const eid hi = in_offsets[static_cast<std::size_t>(u) + 1];
    return merge_unique(row,
                        std::span<const vid>(in_adjacency.data() + lo,
                                             static_cast<std::size_t>(hi - lo)),
                        out);
  };

  std::vector<eid> offsets(static_cast<std::size_t>(n) + 1, 0);
#pragma omp parallel
  {
    std::vector<vid> scratch;
#pragma omp for schedule(dynamic, 256)
    for (vid u = 0; u < n; ++u) {
      offsets[static_cast<std::size_t>(u)] = merge_row(u, scratch, nullptr);
    }
  }
  offsets.back() = exclusive_scan(
      std::span<const eid>(offsets.data(), static_cast<std::size_t>(n)),
      std::span<eid>(offsets.data(), static_cast<std::size_t>(n)));

  std::vector<vid> adjacency(static_cast<std::size_t>(offsets.back()));
  vid self_loops = 0;
#pragma omp parallel reduction(+ : self_loops)
  {
    std::vector<vid> scratch;
#pragma omp for schedule(dynamic, 256)
    for (vid u = 0; u < n; ++u) {
      vid* const row = adjacency.data() + offsets[static_cast<std::size_t>(u)];
      const eid len = merge_row(u, scratch, row);
      self_loops += std::binary_search(row, row + len, u) ? 1 : 0;
    }
  }
  return CsrGraph(std::move(offsets), std::move(adjacency),
                  /*directed=*/false, self_loops, /*sorted_adjacency=*/true);
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
