#include "graph/transforms.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;

TEST(ReverseTest, FlipsArcs) {
  const auto g = make_directed(3, {{0, 1}, {1, 2}});
  const auto r = reverse(g);
  EXPECT_TRUE(r.directed());
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_FALSE(r.has_edge(0, 1));
  EXPECT_EQ(r.num_edges(), 2);
}

TEST(ReverseTest, UndirectedIsIdentity) {
  const auto g = make_undirected(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(reverse(g), g);
}

TEST(ToUndirectedTest, MergesBothDirections) {
  const auto g = make_directed(3, {{0, 1}, {1, 0}, {1, 2}});
  const auto u = to_undirected(g);
  EXPECT_FALSE(u.directed());
  EXPECT_EQ(u.num_edges(), 2);  // {0,1} collapses
  EXPECT_TRUE(u.has_edge(2, 1));
}

TEST(ToUndirectedTest, PreservesSelfLoops) {
  const auto g = make_directed(2, {{0, 0}, {0, 1}});
  const auto u = to_undirected(g);
  EXPECT_EQ(u.num_self_loops(), 1);
  EXPECT_EQ(u.num_edges(), 2);
}

// reverse and to_undirected as they were before they transposed rows
// directly: stage every arc in an EdgeList and rebuild with build_csr. The
// references the transposes must equal bit for bit.
CsrGraph staged_reverse(const CsrGraph& g) {
  if (!g.directed()) return g;
  const vid n = g.num_vertices();
  EdgeList rev(n);
  for (vid u = 0; u < n; ++u) {
    for (vid v : g.neighbors(u)) rev.add(v, u);
  }
  BuildOptions opts;
  opts.symmetrize = false;
  opts.dedup = false;
  opts.sort_adjacency = true;
  return build_csr(rev, opts);
}

CsrGraph staged_to_undirected(const CsrGraph& g) {
  const vid n = g.num_vertices();
  EdgeList el(n);
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

/// Random arcs with self-loops and repeats on up to `max_n` vertices (the
/// count can exceed every endpoint, leaving isolated vertices at the end),
/// built every way a CsrGraph can hold them: directed or undirected, rows
/// sorted or not, repeats kept or merged.
CsrGraph random_csr(Rng& rng, int trial, std::uint64_t max_n) {
  const vid n = 1 + static_cast<vid>(rng.next_below(max_n));
  EdgeList el(n);
  const auto hi = 1 + rng.next_below(static_cast<std::uint64_t>(n));
  const auto m = rng.next_below(4 * hi);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<vid>(rng.next_below(hi));
    const auto v =
        rng.next_bool(0.1) ? u : static_cast<vid>(rng.next_below(hi));
    el.add(u, v);
    if (rng.next_bool(0.2)) el.add(u, v);  // a repeated entry
  }
  BuildOptions b;
  b.symmetrize = trial % 2 == 0;
  b.sort_adjacency = trial % 4 < 2;
  b.dedup = b.sort_adjacency && trial % 8 < 4;
  CsrGraph g = build_csr(el, b);
  EXPECT_EQ(g.sorted_adjacency(), b.sort_adjacency);
  return g;
}

TEST(ReverseTest, TransposeEqualsTheStagedRebuild) {
  Rng rng(77);
  for (int trial = 0; trial < 48; ++trial) {
    const CsrGraph g = random_csr(rng, trial, trial < 40 ? 40 : 2000);
    EXPECT_EQ(reverse(g), staged_reverse(g)) << "trial " << trial;
  }
  const CsrGraph empty = make_directed(0, {});
  EXPECT_EQ(reverse(empty), staged_reverse(empty));
}

TEST(ToUndirectedTest, MergeEqualsTheStagedRebuild) {
  // Equality covers the rows, num_self_loops() and sorted_adjacency().
  Rng rng(78);
  for (int trial = 0; trial < 48; ++trial) {
    const CsrGraph g = random_csr(rng, trial, trial < 40 ? 40 : 2000);
    const CsrGraph got = to_undirected(g);
    EXPECT_EQ(got, staged_to_undirected(g)) << "trial " << trial;
    EXPECT_FALSE(got.directed());
    EXPECT_TRUE(got.sorted_adjacency());
  }
  const CsrGraph empty = make_directed(0, {});
  EXPECT_EQ(to_undirected(empty), staged_to_undirected(empty));
}

TEST(InducedSubgraphTest, KeepsInternalEdgesOnly) {
  const auto g = make_undirected(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  std::vector<char> mask{1, 1, 1, 0, 0};
  const auto sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1, 1-2
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{0, 1, 2}));
}

TEST(InducedSubgraphTest, RelabelsDensely) {
  const auto g = make_undirected(6, {{1, 4}, {4, 5}});
  std::vector<char> mask{0, 1, 0, 0, 1, 1};
  const auto sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{1, 4, 5}));
  // 1->0, 4->1, 5->2: edges (0,1) and (1,2)
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(1, 2));
  EXPECT_FALSE(sub.graph.has_edge(0, 2));
}

TEST(InducedSubgraphTest, DirectedPreservesDirection) {
  const auto g = make_directed(4, {{0, 1}, {1, 0}, {2, 3}});
  std::vector<char> mask{1, 1, 0, 0};
  const auto sub = induced_subgraph(g, mask);
  EXPECT_TRUE(sub.graph.directed());
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(1, 0));
}

TEST(InducedSubgraphTest, KeepsSelfLoops) {
  const auto g = make_undirected(3, {{0, 0}, {0, 1}});
  std::vector<char> mask{1, 0, 0};
  const auto sub = induced_subgraph(g, mask);
  EXPECT_EQ(sub.graph.num_self_loops(), 1);
}

// induced_subgraph as it was before it cut rows directly: stage every kept
// edge in an EdgeList and rebuild with build_csr. The reference the direct
// cut must equal bit for bit.
Subgraph staged_induced_subgraph(const CsrGraph& g,
                                 std::span<const char> mask) {
  const vid n = g.num_vertices();
  std::vector<vid> new_id(static_cast<std::size_t>(n), kNoVertex);
  std::vector<vid> orig_ids;
  for (vid v = 0; v < n; ++v) {
    if (mask[static_cast<std::size_t>(v)]) {
      new_id[static_cast<std::size_t>(v)] = static_cast<vid>(orig_ids.size());
      orig_ids.push_back(v);
    }
  }
  EdgeList el(static_cast<vid>(orig_ids.size()));
  for (vid u = 0; u < n; ++u) {
    if (!mask[static_cast<std::size_t>(u)]) continue;
    for (vid v : g.neighbors(u)) {
      if (!mask[static_cast<std::size_t>(v)]) continue;
      if (!g.directed() && u > v) continue;
      el.add(new_id[static_cast<std::size_t>(u)],
             new_id[static_cast<std::size_t>(v)]);
    }
  }
  BuildOptions opts;
  opts.symmetrize = !g.directed();
  opts.dedup = false;
  opts.sort_adjacency = true;
  return {build_csr(el, opts), std::move(orig_ids)};
}

TEST(InducedSubgraphTest, DirectCutEqualsTheStagedRebuild) {
  // Masks run from empty to full.
  Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    const CsrGraph g = random_csr(rng, trial, 40);
    const vid n = g.num_vertices();
    for (const double keep : {0.0, 0.3, 0.7, 1.0}) {
      std::vector<char> mask(static_cast<std::size_t>(n));
      for (auto& c : mask) c = rng.next_bool(keep) ? 1 : 0;
      const Subgraph got = induced_subgraph(g, mask);
      const Subgraph want = staged_induced_subgraph(g, mask);
      EXPECT_EQ(got.graph, want.graph) << "trial " << trial << " keep " << keep;
      EXPECT_EQ(got.orig_ids, want.orig_ids);
      EXPECT_TRUE(got.graph.sorted_adjacency());
      EXPECT_EQ(got.graph.num_self_loops(), want.graph.num_self_loops());
      EXPECT_EQ(got.graph.directed(), g.directed());
    }
  }
}

TEST(InducedSubgraphTest, MaskSizeMismatchThrows) {
  const auto g = make_undirected(3, {{0, 1}});
  std::vector<char> mask{1, 1};
  EXPECT_THROW(induced_subgraph(g, mask), Error);
}

TEST(ExtractByLabelTest, PullsOneColor) {
  const auto g = make_undirected(6, {{0, 1}, {2, 3}, {4, 5}});
  std::vector<vid> labels{7, 7, 9, 9, 7, 7};
  const auto sub = extract_by_label(g, labels, 7);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{0, 1, 4, 5}));
}

TEST(MutualSubgraphTest, KeepsOnlyReciprocatedPairs) {
  // 0<->1 mutual; 0->2 one-way; 3<->4 mutual; 5 self-loop.
  const auto g = make_directed(
      6, {{0, 1}, {1, 0}, {0, 2}, {3, 4}, {4, 3}, {5, 5}});
  const auto m = mutual_subgraph(g);
  EXPECT_FALSE(m.directed());
  EXPECT_EQ(m.num_vertices(), 6);  // vertex set preserved
  EXPECT_EQ(m.num_edges(), 2);
  EXPECT_TRUE(m.has_edge(0, 1));
  EXPECT_TRUE(m.has_edge(3, 4));
  EXPECT_FALSE(m.has_edge(0, 2));
  EXPECT_FALSE(m.has_edge(5, 5));  // self-reference is not a conversation
}

TEST(MutualSubgraphTest, RequiresDirectedInput) {
  const auto g = make_undirected(2, {{0, 1}});
  EXPECT_THROW(mutual_subgraph(g), Error);
}

TEST(MutualSubgraphTest, EmptyWhenNoReciprocation) {
  const auto g = make_directed(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto m = mutual_subgraph(g);
  EXPECT_EQ(m.num_edges(), 0);
}

TEST(DropIsolatedTest, RemovesZeroDegreeVertices) {
  const auto g = make_undirected(6, {{1, 2}, {4, 5}});
  const auto sub = drop_isolated(g);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{1, 2, 4, 5}));
  EXPECT_EQ(sub.graph.num_edges(), 2);
}

TEST(DropIsolatedTest, DirectedInOnlyVerticesSurvive) {
  // 2 has only an incoming arc; it must survive.
  const auto g = make_directed(4, {{0, 2}});
  const auto sub = drop_isolated(g);
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{0, 2}));
}

// Property: induced subgraph on a random mask never contains an edge whose
// endpoint was masked out, and degrees never exceed the originals.
class InducedSubgraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InducedSubgraphProperty, SoundUnderRandomMasks) {
  Rng rng(GetParam());
  const vid n = 10 + static_cast<vid>(rng.next_below(50));
  EdgeList el(n);
  for (int i = 0; i < 200; ++i) {
    el.add(static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))),
           static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  const auto g = build_csr(el);
  std::vector<char> mask(static_cast<std::size_t>(n));
  for (auto& c : mask) c = rng.next_bool(0.5) ? 1 : 0;
  const auto sub = induced_subgraph(g, mask);

  for (vid v = 0; v < sub.graph.num_vertices(); ++v) {
    const vid orig = sub.orig_ids[static_cast<std::size_t>(v)];
    EXPECT_TRUE(mask[static_cast<std::size_t>(orig)]);
    EXPECT_LE(sub.graph.degree(v), g.degree(orig));
    for (vid w : sub.graph.neighbors(v)) {
      const vid worig = sub.orig_ids[static_cast<std::size_t>(w)];
      EXPECT_TRUE(g.has_edge(orig, worig));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMasks, InducedSubgraphProperty,
                         ::testing::Range<std::uint64_t>(100, 115));

}  // namespace
}  // namespace graphct
