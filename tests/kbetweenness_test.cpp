#include "core/kbetweenness.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/betweenness.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {
namespace {

using testing::brute_force_kbc;
using testing::make_directed;
using testing::make_undirected;

void expect_scores_near(const std::vector<double>& got,
                        const std::vector<double>& want, double tol = 1e-8) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

TEST(KBetweennessTest, KZeroEqualsBrandesOnShapes) {
  for (const auto& g :
       {path_graph(7), star_graph(8), cycle_graph(9), barbell_graph(4)}) {
    KBetweennessOptions o;
    o.k = 0;
    const auto kbc = k_betweenness_centrality(g, o);
    const auto bc = betweenness_centrality(g);
    expect_scores_near(kbc.score, bc.score);
  }
}

TEST(KBetweennessTest, KZeroEqualsBrandesOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = erdos_renyi(80, 300, seed);
    KBetweennessOptions o;
    o.k = 0;
    expect_scores_near(k_betweenness_centrality(g, o).score,
                       betweenness_centrality(g).score);
  }
}

TEST(KBetweennessTest, SquareWithDiagonalK1) {
  // Square 0-1-2-3 with chord 0-2. For pair (1,3) the shortest paths run
  // through 0 and 2; k=1 admits no longer alternatives of length 3 within
  // the level constraints... validated against brute force.
  const auto g = make_undirected(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  KBetweennessOptions o;
  o.k = 1;
  expect_scores_near(k_betweenness_centrality(g, o).score,
                     brute_force_kbc(g, 1));
}

TEST(KBetweennessTest, KLargeSeesAlternatePaths) {
  // Two parallel routes of length 2 and 3 between 0 and 4:
  //   0-1-4 (short), 0-2-3-4 (long). For the pair (0,4), k=0 credits only
  //   vertex 1; k=1 also credits the long route's vertices 2 and 3, so
  //   their scores strictly grow while staying below the short route's.
  const auto g = make_undirected(5, {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}});
  KBetweennessOptions o0{.k = 0};
  KBetweennessOptions o1{.k = 1};
  const auto k0 = k_betweenness_centrality(g, o0);
  const auto k1 = k_betweenness_centrality(g, o1);
  EXPECT_GT(k0.score[1], 0.0);
  EXPECT_GT(k1.score[2], k0.score[2]);
  EXPECT_GT(k1.score[3], k0.score[3]);
  // And the k=1 result matches brute-force walk enumeration exactly.
  expect_scores_near(k1.score, brute_force_kbc(g, 1));
}

TEST(KBetweennessTest, RobustnessMotivation) {
  // The paper motivates k-BC as robust to single-edge changes: on the
  // two-route graph above, removing the short route's middle vertex leaves
  // the k=1 ranking of 2,3 meaningful while k=0 scored them zero.
  const auto g = make_undirected(5, {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}});
  KBetweennessOptions o1{.k = 1};
  const auto before = k_betweenness_centrality(g, o1);
  // Remove vertex 1's edges (simulating failure of the shortest route).
  const auto g2 = make_undirected(5, {{0, 2}, {2, 3}, {3, 4}});
  const auto after = betweenness_centrality(g2);
  // Vertices 2,3 — which k-BC already flagged — are now the top actors.
  EXPECT_GT(after.score[2], 0.0);
  EXPECT_GT(before.score[2], 0.0);
}

TEST(KBetweennessTest, DirectedThrows) {
  const auto g = make_directed(3, {{0, 1}});
  EXPECT_THROW(k_betweenness_centrality(g), Error);
}

TEST(KBetweennessTest, NegativeKThrows) {
  const auto g = path_graph(3);
  KBetweennessOptions o;
  o.k = -1;
  EXPECT_THROW(k_betweenness_centrality(g, o), Error);
}

// A slack whose workspace counts overflow int64 (or the byte count uint64)
// is rejected before anything is allocated. The first two once wrapped the
// slack tables to empty on an even vertex count and crashed in the first
// write.
TEST(KBetweennessTest, SlackThatOverflowsTheWorkspaceThrows) {
  struct Case {
    CsrGraph g;
    std::int64_t k;
  };
  const Case cases[] = {
      {cycle_graph(6), std::numeric_limits<std::int64_t>::max()},  // k + 1
      {cycle_graph(6), (std::int64_t{1} << 62) - 1},  // 2(k + 1)
      {cycle_graph(6), (std::int64_t{1} << 60) - 1},  // (2(k + 1) + 1) n
      {cycle_graph(6), (std::int64_t{1} << 58) - 1},  // bytes of that
      {complete_graph(16), (std::int64_t{1} << 55) - 1},  // 2(k + 1) m
  };
  for (const Case& c : cases) {
    KBetweennessOptions o;
    o.k = c.k;
    o.num_sources = 1;
    EXPECT_THROW(k_betweenness_centrality(c.g, o), Error) << c.k;
  }
}

TEST(KBetweennessTest, SampledSourcesSubsetAndDeterministic) {
  const auto g = erdos_renyi(60, 200, 3);
  KBetweennessOptions o;
  o.k = 1;
  o.num_sources = 10;
  o.seed = 5;
  set_num_threads(4);
  const auto a = k_betweenness_centrality(g, o);
  set_num_threads(1);
  const auto b = k_betweenness_centrality(g, o);
  set_num_threads(0);
  EXPECT_EQ(a.sources_used, 10);
  EXPECT_EQ(a.score, b.score);
}

TEST(KBetweennessTest, SameBitsAtEveryThreadCount) {
  // Each source adds one term per reached vertex, and every plan adds the
  // sources in order: 2 and 4 threads run parallel plans, 1 thread the
  // serial one, and all three give the same bits.
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 3;
  const auto g = rmat_graph(ro);
  KBetweennessOptions o;
  o.k = 1;
  o.num_sources = 32;
  o.seed = 1;
  set_num_threads(1);
  const auto base = k_betweenness_centrality(g, o);
  for (const int threads : {2, 4}) {
    set_num_threads(threads);
    const auto r = k_betweenness_centrality(g, o);
    set_num_threads(0);
    EXPECT_EQ(r.score, base.score) << "threads=" << threads;
  }
}

TEST(KBetweennessTest, TinyBudgetShrinksTeamWithoutChangingScores) {
  const auto g = erdos_renyi(120, 500, 7);
  KBetweennessOptions o;
  o.k = 1;
  o.num_sources = 40;
  o.seed = 3;
  const auto wide = k_betweenness_centrality(g, o);

  // A worker's slack tables for k=1 take (2*(k+1)+1)*n*8 = 4800 bytes; a
  // 6 KiB budget cannot add a second worker and its score buffers, so the
  // sources run serially in one workspace, within the budget.
  KBetweennessOptions tight = o;
  tight.score_memory_budget_bytes = 6 * 1024;
  const auto one_slot = k_betweenness_centrality(g, tight);
  EXPECT_EQ(one_slot.peak_buffer_bytes, 4800u);
  EXPECT_LE(one_slot.peak_buffer_bytes, tight.score_memory_budget_bytes);
  EXPECT_EQ(one_slot.score, wide.score);
}

TEST(KBetweennessTest, ScoresNonNegative) {
  const auto g = erdos_renyi(100, 400, 9);
  for (std::int64_t k = 0; k <= 2; ++k) {
    KBetweennessOptions o;
    o.k = k;
    const auto r = k_betweenness_centrality(g, o);
    for (double s : r.score) EXPECT_GE(s, -1e-9);
  }
}

struct KbcCase {
  std::uint64_t seed;
  std::int64_t k;
};

// Property sweep: match brute-force walk enumeration on tiny random graphs
// for k = 0, 1, 2. The brute force is exponential, so graphs stay small.
class KbcBruteForceTest : public ::testing::TestWithParam<KbcCase> {};

TEST_P(KbcBruteForceTest, MatchesWalkEnumeration) {
  const auto p = GetParam();
  Rng rng(p.seed);
  const vid n = 5 + static_cast<vid>(rng.next_below(6));
  const auto m = static_cast<std::int64_t>(n + rng.next_below(static_cast<std::uint64_t>(n)));
  const auto g = erdos_renyi(n, m, p.seed * 211 + 17);
  KBetweennessOptions o;
  o.k = p.k;
  expect_scores_near(k_betweenness_centrality(g, o).score,
                     brute_force_kbc(g, p.k), 1e-8);
}

std::vector<KbcCase> kbc_cases() {
  std::vector<KbcCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (std::int64_t k = 0; k <= 2; ++k) cases.push_back({seed, k});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(TinyRandomGraphs, KbcBruteForceTest,
                         ::testing::ValuesIn(kbc_cases()));

TEST(KBetweennessTest, BruteForceOnShapesK1) {
  for (const auto& g : {cycle_graph(6), star_of_cliques(2, 3),
                        grid_graph(3, 3), complete_graph(4)}) {
    KBetweennessOptions o;
    o.k = 1;
    expect_scores_near(k_betweenness_centrality(g, o).score,
                       brute_force_kbc(g, 1), 1e-8);
  }
}

}  // namespace
}  // namespace graphct
