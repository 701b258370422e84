#include "algs/closeness.hpp"

#include <gtest/gtest.h>

#include "gen/random_graphs.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;

TEST(ClosenessTest, PathCenterIsClosest) {
  const auto g = path_graph(7);
  const auto r = closeness_centrality(g);
  // Center (3): 2*(1 + 1/2 + 1/3) = 11/3.
  EXPECT_NEAR(r.score[3], 2.0 * (1.0 + 0.5 + 1.0 / 3.0), 1e-9);
  // Ends are least close, center most.
  EXPECT_GT(r.score[3], r.score[1]);
  EXPECT_GT(r.score[1], r.score[0]);
  EXPECT_NEAR(r.score[0], r.score[6], 1e-12);
}

TEST(ClosenessTest, StarHubValue) {
  const auto g = star_graph(11);  // hub + 10 spokes
  const auto r = closeness_centrality(g);
  EXPECT_NEAR(r.score[0], 10.0, 1e-9);              // all at distance 1
  EXPECT_NEAR(r.score[1], 1.0 + 9.0 / 2.0, 1e-9);   // hub at 1, others at 2
}

TEST(ClosenessTest, CompleteGraphUniform) {
  const auto g = complete_graph(6);
  const auto r = closeness_centrality(g);
  for (double s : r.score) EXPECT_NEAR(s, 5.0, 1e-9);
}

TEST(ClosenessTest, DisconnectedIsFinite) {
  // Harmonic closeness handles disconnection gracefully (the classic
  // formulation would be 0 everywhere).
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto r = closeness_centrality(g);
  EXPECT_NEAR(r.score[1], 2.0, 1e-9);
  EXPECT_NEAR(r.score[3], 1.0, 1e-9);
  EXPECT_NEAR(r.score[5], 0.0, 1e-12);  // isolated
}

TEST(ClosenessTest, SampledApproximatesExact) {
  const auto g = erdos_renyi(400, 2000, 9);
  const auto exact = closeness_centrality(g);
  ClosenessOptions o;
  o.num_sources = 100;
  o.seed = 3;
  const auto approx = closeness_centrality(g, o);
  EXPECT_EQ(approx.sources_used, 100);
  // Rescaled estimates track exact values within a modest relative error
  // for well-connected vertices.
  double rel_err_sum = 0;
  std::int64_t counted = 0;
  for (std::size_t v = 0; v < exact.score.size(); ++v) {
    if (exact.score[v] < 50.0) continue;
    rel_err_sum += std::abs(approx.score[v] - exact.score[v]) / exact.score[v];
    ++counted;
  }
  ASSERT_GT(counted, 100);
  EXPECT_LT(rel_err_sum / static_cast<double>(counted), 0.10);
}

TEST(ClosenessTest, DeterministicForFixedSeed) {
  const auto g = erdos_renyi(100, 400, 11);
  ClosenessOptions o;
  o.num_sources = 20;
  o.seed = 5;
  set_num_threads(4);
  const auto a = closeness_centrality(g, o);
  set_num_threads(1);
  const auto b = closeness_centrality(g, o);
  set_num_threads(0);
  EXPECT_EQ(a.score, b.score);
}

TEST(ClosenessTest, SameBitsAtEveryThreadCount) {
  // Each pivot adds 1/d once per reached vertex, and every plan adds the
  // pivots in order: 2 and 4 threads run parallel plans, 1 thread the
  // serial one, and all three give the same bits.
  const auto g = testing::mention_lwcc("atlflood");
  ClosenessOptions o;
  o.num_sources = 64;
  o.seed = 1;
  set_num_threads(1);
  const auto base = closeness_centrality(g, o);
  for (const int threads : {2, 4}) {
    set_num_threads(threads);
    const auto r = closeness_centrality(g, o);
    set_num_threads(0);
    EXPECT_EQ(r.score, base.score) << "threads=" << threads;
  }
}

TEST(ClosenessTest, DirectedThrows) {
  const auto g = make_directed(3, {{0, 1}});
  EXPECT_THROW(closeness_centrality(g), Error);
}

TEST(ClosenessTest, InvalidSourcesThrow) {
  const auto g = path_graph(5);
  ClosenessOptions o;
  o.num_sources = 0;
  EXPECT_THROW(closeness_centrality(g, o), Error);
}

TEST(ClosenessTest, EmptyGraph) {
  CsrGraph g;
  EXPECT_TRUE(closeness_centrality(g).score.empty());
}

}  // namespace
}  // namespace graphct
