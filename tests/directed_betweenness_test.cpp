#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>

#include "algs/ranking.hpp"
#include "core/betweenness.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "twitter/mention_graph.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;

// Serial reference Brandes on a directed graph (out-arcs only).
std::vector<double> reference_directed_bc(const CsrGraph& g) {
  const vid n = g.num_vertices();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  for (vid s = 0; s < n; ++s) {
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    std::vector<vid> dist(static_cast<std::size_t>(n), kNoVertex);
    std::vector<vid> stack;
    std::deque<vid> q{s};
    sigma[static_cast<std::size_t>(s)] = 1.0;
    dist[static_cast<std::size_t>(s)] = 0;
    while (!q.empty()) {
      const vid u = q.front();
      q.pop_front();
      stack.push_back(u);
      for (vid v : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] == kNoVertex) {
          dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
          q.push_back(v);
        }
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(u)] + 1) {
          sigma[static_cast<std::size_t>(v)] += sigma[static_cast<std::size_t>(u)];
        }
      }
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const vid w = *it;
      for (vid v : g.neighbors(w)) {
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(w)] + 1) {
          delta[static_cast<std::size_t>(w)] +=
              sigma[static_cast<std::size_t>(w)] /
              sigma[static_cast<std::size_t>(v)] *
              (1.0 + delta[static_cast<std::size_t>(v)]);
        }
      }
      if (w != s) bc[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
    }
  }
  return bc;
}

TEST(DirectedBcTest, DirectedPath) {
  // 0 -> 1 -> 2 -> 3: vertex 1 lies on (0,2),(0,3); vertex 2 on (0,3),(1,3).
  const auto g = make_directed(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto r = betweenness_centrality(g);
  EXPECT_DOUBLE_EQ(r.score[0], 0.0);
  EXPECT_DOUBLE_EQ(r.score[1], 2.0);
  EXPECT_DOUBLE_EQ(r.score[2], 2.0);
  EXPECT_DOUBLE_EQ(r.score[3], 0.0);
}

TEST(DirectedBcTest, DirectionMatters) {
  // Star with arcs inward: no directed path passes *through* the hub.
  const auto inward = make_directed(4, {{1, 0}, {2, 0}, {3, 0}});
  const auto rin = betweenness_centrality(inward);
  for (double s : rin.score) EXPECT_DOUBLE_EQ(s, 0.0);

  // In-and-out hub: all spoke pairs route through it.
  const auto both = make_directed(
      4, {{1, 0}, {2, 0}, {3, 0}, {0, 1}, {0, 2}, {0, 3}});
  const auto rb = betweenness_centrality(both);
  EXPECT_DOUBLE_EQ(rb.score[0], 6.0);  // 3*2 ordered spoke pairs
}

TEST(DirectedBcTest, DirectedCycleIsUniform) {
  const auto g = make_directed(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const auto r = betweenness_centrality(g);
  for (std::size_t v = 1; v < 5; ++v) {
    EXPECT_NEAR(r.score[v], r.score[0], 1e-9);
  }
  EXPECT_GT(r.score[0], 0.0);
}

TEST(DirectedBcTest, SymmetricDigraphMatchesUndirected) {
  // A digraph with both arcs per edge computes the same scores as the
  // undirected graph (each unordered pair counted twice in both).
  const auto dir = make_directed(
      5, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}, {3, 4}, {4, 3}});
  const auto und = make_undirected(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto rd = betweenness_centrality(dir);
  const auto ru = betweenness_centrality(und);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(rd.score[v], ru.score[v], 1e-9);
  }
}

TEST(DirectedBcTest, FineAndCoarsePlansAgree) {
  Rng rng(31);
  const vid n = 80;
  EdgeList el(n);
  for (std::int64_t i = 0; i < 400; ++i) {
    el.add(static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))),
           static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  BuildOptions b;
  b.symmetrize = false;
  const auto g = build_csr(el, b);

  BetweennessOptions fine;
  fine.score_memory_budget_bytes = 640;  // one buffer of 640 B -> fine
  BetweennessOptions small;
  small.score_memory_budget_bytes = 2000;  // 3 buffers of 640 B
  set_num_threads(4);
  const auto rc = betweenness_centrality(g);
  const auto rf = betweenness_centrality(g, fine);
  const auto rs = betweenness_centrality(g, small);
  set_num_threads(0);
  // Every plan adds the same per-source terms in source order, and each
  // term's sums (sigma pulled over the reverse, coefficients over out-rows)
  // run in row order, so the plans agree bit for bit.
  ASSERT_EQ(rs.score.size(), rc.score.size());
  for (std::size_t v = 0; v < rc.score.size(); ++v) {
    EXPECT_EQ(rs.score[v], rc.score[v]) << "vertex " << v;
    EXPECT_EQ(rf.score[v], rc.score[v]) << "vertex " << v;
  }
  EXPECT_EQ(rc.plan.team, 4);
  EXPECT_EQ(rf.plan.team, 1);
  EXPECT_EQ(rs.plan.team, 3);
  EXPECT_LE(rs.plan.buffer_bytes, small.score_memory_budget_bytes);
}

TEST(DirectedBcTest, SerialPlanGivesTheSameBitsAtEveryThreadCount) {
  // 40 layers of 600 vertices, each with 6 random arcs into the next layer:
  // levels are wider than the 512-vertex serial cutoff, so the serial plan
  // sweeps them in parallel at 2+ threads, and path counts from the early
  // layers pass 2^53, where a double sum depends on its order. Sigma is
  // pulled over each vertex's in-row in row order, so the order is fixed.
  constexpr vid kLayers = 40;
  constexpr vid kWidth = 600;
  const vid n = kLayers * kWidth;
  Rng rng(5);
  EdgeList el(n);
  for (vid layer = 0; layer + 1 < kLayers; ++layer) {
    for (vid i = 0; i < kWidth; ++i) {
      for (int a = 0; a < 6; ++a) {
        el.add(layer * kWidth + i,
               (layer + 1) * kWidth +
                   static_cast<vid>(rng.next_below(kWidth)));
      }
    }
  }
  BuildOptions b;
  b.symmetrize = false;
  b.dedup = false;
  const auto g = build_csr(el, b);

  // The input must reach the regime it is built for: path counts from
  // vertex 0, pushed layer by layer (ids ascend with the layer).
  std::vector<double> paths(static_cast<std::size_t>(n), 0.0);
  paths[0] = 1.0;
  for (vid u = 0; u < n; ++u) {
    for (const vid v : g.neighbors(u)) {
      paths[static_cast<std::size_t>(v)] += paths[static_cast<std::size_t>(u)];
    }
  }
  ASSERT_GT(*std::max_element(paths.begin(), paths.end()), 0x1p53);

  BetweennessOptions o;
  o.num_sources = 64;
  o.score_memory_budget_bytes =
      2 * static_cast<std::uint64_t>(n) * sizeof(double) - 1;
  set_num_threads(1);
  const auto base = betweenness_centrality(g, o);
  for (const int threads : {2, 4}) {
    set_num_threads(threads);
    const auto r = betweenness_centrality(g, o);
    set_num_threads(0);
    EXPECT_EQ(r.plan.team, 1) << "threads=" << threads;
    for (std::size_t v = 0; v < base.score.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(r.score[v]),
                std::bit_cast<std::uint64_t>(base.score[v]))
          << "threads=" << threads << " vertex " << v;
    }
  }
}

class DirectedBcPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectedBcPropertyTest, MatchesSerialReference) {
  Rng rng(GetParam());
  const vid n = 10 + static_cast<vid>(rng.next_below(60));
  EdgeList el(n);
  const std::int64_t m = n * (1 + static_cast<std::int64_t>(rng.next_below(4)));
  for (std::int64_t i = 0; i < m; ++i) {
    el.add(static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))),
           static_cast<vid>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  BuildOptions b;
  b.symmetrize = false;
  const auto g = build_csr(el, b);
  const auto expect = reference_directed_bc(g);
  const auto got = betweenness_centrality(g);
  ASSERT_EQ(got.score.size(), expect.size());
  for (std::size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR(got.score[v], expect[v], 1e-7) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDigraphs, DirectedBcPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(DirectedRankingTest, FlowBrokersDifferFromAssociationHubs) {
  // fan tweets cite @hub (arcs fan->hub); hub never mentions anyone, but a
  // relay account @relay both cites the hub and is cited by others:
  // others -> relay -> hub. Directed BC crowns the relay; undirected BC
  // still favors the hub's degree.
  twitter::MentionGraphBuilder b;
  std::int64_t id = 1;
  for (int f = 0; f < 6; ++f) {
    b.add({id++, "fan" + std::to_string(f), "@relay saw this?", id});
  }
  b.add({id++, "relay", "via @hub", id});
  for (int f = 0; f < 3; ++f) {
    b.add({id++, "viewer" + std::to_string(f), "@hub news", id});
  }
  const auto mg = std::move(b).build();
  const auto bc = betweenness_centrality(mg.directed);
  const auto top =
      top_k(std::span<const double>(bc.score.data(), bc.score.size()), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(mg.users[static_cast<std::size_t>(top[0])], "relay");
  EXPECT_GT(bc.score[static_cast<std::size_t>(top[0])], 0.0);
}

}  // namespace
}  // namespace graphct
