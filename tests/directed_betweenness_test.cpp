#include <gtest/gtest.h>

#include <deque>

#include "core/betweenness.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "twitter/conversation.hpp"
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
  // Every plan adds the same per-source terms in source order. The fine
  // plan at 4 threads pushes sigma with atomic adds in schedule order;
  // that stays exact only because path counts are integers below 2^53,
  // until directed graphs pull sigma over in-edges as undirected ones do.
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
  const auto directed = twitter::rank_users_by_directed_betweenness(mg, 1);
  ASSERT_EQ(directed.size(), 1u);
  EXPECT_EQ(directed[0].name, "relay");
  EXPECT_GT(directed[0].score, 0.0);
}

}  // namespace
}  // namespace graphct
