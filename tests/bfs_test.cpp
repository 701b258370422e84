#include "algs/bfs.hpp"

#include <gtest/gtest.h>

#include "gen/random_graphs.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {
namespace {

using testing::make_undirected;
using testing::reference_bfs_distances;

TEST(BfsTest, SingleVertex) {
  const auto g = make_undirected(1, {});
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.num_reached(), 1);
  EXPECT_EQ(r.max_distance(), 0);
  EXPECT_EQ(r.distance[0], 0);
  EXPECT_EQ(r.parent[0], 0);
}

TEST(BfsTest, PathDistances) {
  const auto g = path_graph(6);
  const auto r = bfs(g, 0);
  for (vid v = 0; v < 6; ++v) {
    EXPECT_EQ(r.distance[static_cast<std::size_t>(v)], v);
  }
  EXPECT_EQ(r.max_distance(), 5);
  EXPECT_EQ(r.num_reached(), 6);
}

TEST(BfsTest, MiddleOfPath) {
  const auto g = path_graph(7);
  const auto r = bfs(g, 3);
  EXPECT_EQ(r.distance[0], 3);
  EXPECT_EQ(r.distance[6], 3);
  EXPECT_EQ(r.max_distance(), 3);
}

TEST(BfsTest, DisconnectedVerticesUnreached) {
  const auto g = make_undirected(5, {{0, 1}, {3, 4}});
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.num_reached(), 2);
  EXPECT_EQ(r.distance[3], kNoVertex);
  EXPECT_EQ(r.distance[4], kNoVertex);
  EXPECT_EQ(r.parent[3], kNoVertex);
}

TEST(BfsTest, ParentsFormATree) {
  const auto g = erdos_renyi(200, 600, 11);
  const auto r = bfs(g, 0);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    if (r.distance[static_cast<std::size_t>(v)] == kNoVertex) continue;
    if (v == 0) continue;
    const vid p = r.parent[static_cast<std::size_t>(v)];
    ASSERT_NE(p, kNoVertex);
    EXPECT_EQ(r.distance[static_cast<std::size_t>(p)] + 1,
              r.distance[static_cast<std::size_t>(v)]);
    EXPECT_TRUE(g.has_edge(p, v));
  }
}

TEST(BfsTest, OrderGroupsLevelsAndIsSortedWithinLevel) {
  const auto g = erdos_renyi(150, 400, 13);
  const auto r = bfs(g, 0);
  for (std::size_t d = 0; d + 1 < r.level_offsets.size(); ++d) {
    const auto lo = static_cast<std::size_t>(r.level_offsets[d]);
    const auto hi = static_cast<std::size_t>(r.level_offsets[d + 1]);
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_EQ(r.distance[static_cast<std::size_t>(r.order[i])],
                static_cast<vid>(d));
      if (i > lo) {
        EXPECT_LT(r.order[i - 1], r.order[i]);
      }
    }
  }
}

TEST(BfsTest, MaxDepthTruncates) {
  const auto g = path_graph(10);
  BfsOptions o;
  o.max_depth = 3;
  const auto r = bfs(g, 0, o);
  EXPECT_EQ(r.num_reached(), 4);  // levels 0..3
  EXPECT_EQ(r.distance[3], 3);
  EXPECT_EQ(r.distance[4], kNoVertex);
}

TEST(BfsTest, MaxDepthZeroReachesOnlySource) {
  const auto g = star_graph(5);
  BfsOptions o;
  o.max_depth = 0;
  const auto r = bfs(g, 0, o);
  EXPECT_EQ(r.num_reached(), 1);
}

TEST(BfsTest, SourceOutOfRangeThrows) {
  const auto g = path_graph(3);
  EXPECT_THROW(bfs(g, 3), Error);
  EXPECT_THROW(bfs(g, -1), Error);
}

TEST(BfsTest, SelfLoopDoesNotChangeDistances) {
  const auto g = make_undirected(3, {{0, 1}, {1, 2}, {1, 1}});
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.distance[1], 1);
  EXPECT_EQ(r.distance[2], 2);
}

TEST(BfsTest, DirectionOptimizingRequiresUndirected) {
  const auto g = testing::make_directed(3, {{0, 1}});
  BfsOptions o;
  o.strategy = BfsStrategy::kDirectionOptimizing;
  EXPECT_THROW(bfs(g, 0, o), Error);
}

TEST(BfsTest, NoParentsOptionLeavesParentEmpty) {
  const auto g = path_graph(6);
  BfsOptions o;
  o.compute_parents = false;
  const auto r = bfs(g, 0, o);
  EXPECT_TRUE(r.parent.empty());
  EXPECT_EQ(r.distance[5], 5);
}

TEST(BfsTest, BfsIntoReusesBuffersAcrossSources) {
  const auto g = erdos_renyi(120, 400, 17);
  BfsOptions o;
  BfsResult buffer;
  for (vid s = 0; s < 10; ++s) {
    bfs_into(g, s, o, buffer);
    EXPECT_EQ(buffer.distance, reference_bfs_distances(g, s)) << "source " << s;
  }
  // Stale state from a big component must not leak into a later search from
  // an isolated vertex.
  const auto iso = make_undirected(5, {{0, 1}});
  bfs_into(iso, 4, o, buffer);
  EXPECT_EQ(buffer.num_reached(), 1);
  EXPECT_EQ(buffer.distance[0], kNoVertex);
}

TEST(EgoNetworkTest, RadiusOneIsClassicEgoNet) {
  // Star with an outlier: ego of the hub at radius 1 is the star itself.
  const auto g = make_undirected(6, {{0, 1}, {0, 2}, {0, 3}, {4, 5}});
  const auto ego = ego_network(g, 0, 1);
  EXPECT_EQ(ego.graph.num_vertices(), 4);
  EXPECT_EQ(ego.orig_ids, (std::vector<vid>{0, 1, 2, 3}));
}

TEST(EgoNetworkTest, RadiusZeroIsJustTheCenter) {
  const auto g = path_graph(5);
  const auto ego = ego_network(g, 2, 0);
  EXPECT_EQ(ego.graph.num_vertices(), 1);
  EXPECT_EQ(ego.orig_ids[0], 2);
}

TEST(EgoNetworkTest, IncludesEdgesAmongNeighbors) {
  // Triangle 0-1-2 with pendant 3 on 1: ego(0, 1) includes the 1-2 edge.
  const auto g = make_undirected(4, {{0, 1}, {1, 2}, {0, 2}, {1, 3}});
  const auto ego = ego_network(g, 0, 1);
  EXPECT_EQ(ego.graph.num_vertices(), 3);
  EXPECT_EQ(ego.graph.num_edges(), 3);
}

TEST(EgoNetworkTest, LargeRadiusCoversComponent) {
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  const auto ego = ego_network(g, 0, 100);
  EXPECT_EQ(ego.graph.num_vertices(), 4);  // never crosses components
}

TEST(EgoNetworkTest, NegativeRadiusThrows) {
  const auto g = path_graph(3);
  EXPECT_THROW(ego_network(g, 0, -1), Error);
}

TEST(BfsTest, UnsortedOrderStillGroupsLevels) {
  const auto g = erdos_renyi(150, 500, 19);
  BfsOptions o;
  o.deterministic_order = false;
  const auto r = bfs(g, 0, o);
  for (std::size_t d = 0; d + 1 < r.level_offsets.size(); ++d) {
    for (auto i = static_cast<std::size_t>(r.level_offsets[d]);
         i < static_cast<std::size_t>(r.level_offsets[d + 1]); ++i) {
      EXPECT_EQ(r.distance[static_cast<std::size_t>(r.order[i])],
                static_cast<vid>(d));
    }
  }
}

TEST(BfsTest, DeterministicAcrossThreadCounts) {
  // With deterministic_order, the vertex order, level offsets, and
  // distances must be byte-identical no matter how many threads ran the
  // search — the prefix-sum compaction emits each level in ascending id
  // order by construction.
  const auto g = erdos_renyi(3000, 15000, 77);
  BfsOptions o;
  o.deterministic_order = true;
  for (auto strategy :
       {BfsStrategy::kTopDown, BfsStrategy::kDirectionOptimizing}) {
    o.strategy = strategy;
    set_num_threads(1);
    const auto base = bfs(g, 0, o);
    for (int t : {2, 8}) {
      set_num_threads(t);
      const auto r = bfs(g, 0, o);
      EXPECT_EQ(r.order, base.order) << "threads=" << t;
      EXPECT_EQ(r.level_offsets, base.level_offsets) << "threads=" << t;
      EXPECT_EQ(r.distance, base.distance) << "threads=" << t;
    }
    set_num_threads(0);

    // Each level must come out in ascending vertex id.
    for (std::size_t lvl = 0; lvl + 1 < base.level_offsets.size(); ++lvl) {
      for (auto i = base.level_offsets[lvl] + 1;
           i < base.level_offsets[lvl + 1]; ++i) {
        EXPECT_LT(base.order[static_cast<std::size_t>(i - 1)],
                  base.order[static_cast<std::size_t>(i)]);
      }
    }
  }
}

TEST(BcForwardSweepTest, DirectedInputThrows) {
  // The sigma pulls read a vertex's neighbor list as its in-edges; on a
  // directed CSR those are its out-arcs, which would give wrong path counts
  // (here sigma(1) would sum sigma(2), a successor).
  const auto g = testing::make_directed(3, {{0, 1}, {1, 2}});
  BfsResult r;
  std::vector<double> sigma(3, 0.0);
  EXPECT_THROW(bc_forward_sweep(g, 0, r, sigma), Error);
}

/// 0 is a hub with leaves 2, 3, 4 and a path 0-1-5 to a second hub 5 with
/// leaves 6, 7; 8-9 is an isolated edge, 10 has only a self-loop and 11 is
/// isolated. Only 2, 3, 4, 6 and 7 are leaves.
CsrGraph hub_with_leaves() {
  return make_undirected(12, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {5, 6},
                              {5, 7}, {8, 9}, {10, 10}});
}

TEST(BcLayoutTest, FoldsLeavesAndKeepsEveryRowsOrder) {
  const CsrGraph g = hub_with_leaves();
  const BcLayout l = build_bc_layout(g, /*fold=*/true);
  ASSERT_TRUE(l.folded());
  ASSERT_EQ(l.num_vertices(), 12);
  EXPECT_EQ(l.num_core, 7);
  // The core in BFS order from the highest-degree vertex, then one search
  // per remaining component; each leaf after the core, where its parent's
  // row names it.
  const std::vector<std::int32_t> want{0, 1, 7, 8, 9, 2, 10, 11, 3, 4, 5, 6};
  EXPECT_EQ(l.label, want);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const auto row = l.neighbors(l.label[static_cast<std::size_t>(v)]);
    const auto orig = g.neighbors(v);
    ASSERT_EQ(row.size(), orig.size()) << "vertex " << v;
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_EQ(row[j], l.label[static_cast<std::size_t>(orig[j])])
          << "vertex " << v << " entry " << j;
    }
  }
  EXPECT_EQ(l.parent(l.label[6]), l.label[5]);
  EXPECT_EQ(build_bc_layout(make_undirected(0, {}), true).num_vertices(), 0);
}

TEST(BcLayoutTest, IdentityLayoutCopiesRows) {
  const CsrGraph g = hub_with_leaves();
  const BcLayout l = build_bc_layout(g, /*fold=*/false);
  EXPECT_FALSE(l.folded());
  EXPECT_EQ(l.num_core, g.num_vertices());
  EXPECT_EQ(std::vector<eid>(l.offsets.begin(), l.offsets.end()),
            std::vector<eid>(g.offsets().begin(), g.offsets().end()));
  EXPECT_EQ(std::vector<vid>(l.adj.begin(), l.adj.end()),
            std::vector<vid>(g.adjacency().begin(), g.adjacency().end()));
}

TEST(BcLayoutTest, LeafMissingFromItsParentsRowThrows) {
  // 3's only entry is 0, but 0's row does not name 3: not a symmetric
  // undirected graph, so 3 could never be reached through its parent.
  const CsrGraph g({0, 2, 4, 6, 7}, {1, 2, 0, 2, 0, 1, 0},
                   /*directed=*/false, /*num_self_loops=*/0,
                   /*sorted_adjacency=*/true);
  EXPECT_THROW(build_bc_layout(g, /*fold=*/true), Error);
}

TEST(BcForwardSweepTest, LayoutSweepDiscoversTheCoreOnly) {
  // Core vertices get the view's distances and the same sigma bits; leaves
  // stay undiscovered unless one is the source (7 is a leaf).
  const CsrGraph g = testing::caterpillar(6, 2);
  const BcLayout l = build_bc_layout(g, /*fold=*/true);
  const vid n = g.num_vertices();
  for (const vid s : {vid{0}, vid{3}, vid{7}}) {
    BfsResult rv, rl;
    std::vector<double> sv(static_cast<std::size_t>(n), 0.0), sl = sv;
    bc_forward_sweep(GraphView(g), s, rv, sv);
    const vid ls = l.label[static_cast<std::size_t>(s)];
    bc_forward_sweep(l, ls, rl, sl);
    for (vid v = 0; v < n; ++v) {
      const vid lv = l.label[static_cast<std::size_t>(v)];
      const auto d = rl.distance[static_cast<std::size_t>(lv)];
      if (lv < l.num_core || lv == ls) {
        EXPECT_EQ(d, rv.distance[static_cast<std::size_t>(v)]) << v;
        EXPECT_EQ(sl[static_cast<std::size_t>(lv)],
                  sv[static_cast<std::size_t>(v)]) << v;
      } else {
        EXPECT_EQ(d, kNoVertex) << v;
      }
    }
  }
}

// Property sweep: top-down and direction-optimizing must both match the
// serial reference on random graphs of assorted shapes.
class BfsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsPropertyTest, MatchesReferenceDistances) {
  Rng rng(GetParam());
  const vid n = 20 + static_cast<vid>(rng.next_below(200));
  const auto m = static_cast<std::int64_t>(n * (1 + rng.next_below(6)));
  const auto g = erdos_renyi(n, m, GetParam() * 7 + 1);
  const vid src = static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n)));

  const auto expect = reference_bfs_distances(g, src);

  const auto td = bfs(g, src);
  EXPECT_EQ(td.distance, expect);

  BfsOptions dopt;
  dopt.strategy = BfsStrategy::kDirectionOptimizing;
  const auto du = bfs(g, src, dopt);
  EXPECT_EQ(du.distance, expect);

  // Aggressive switching thresholds force bottom-up sweeps even on small
  // graphs, exercising both directions.
  dopt.alpha = 1.0;
  dopt.beta = 1e9;
  const auto forced = bfs(g, src, dopt);
  EXPECT_EQ(forced.distance, expect);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BfsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace graphct
