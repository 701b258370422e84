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
