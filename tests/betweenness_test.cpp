#include "core/betweenness.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "algs/bc_layout.hpp"
#include "algs/ranking.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "graph/builder.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace graphct {
namespace {

using testing::make_undirected;
using testing::mention_lwcc;
using testing::reference_betweenness;

void expect_scores_near(const std::vector<double>& got,
                        const std::vector<double>& want, double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

void expect_scores_bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "vertex " << i;
  }
}

TEST(BetweennessTest, PathAnalytic) {
  // Path 0-1-2-3-4: interior vertex v lies on all pairs crossing it; with
  // directed-pair counting BC(v) = 2*(v+1-0)*(n-1-v) for interior vertices
  // counting ordered pairs (left x right): v=1: 2*2*3=12? Careful: pairs
  // strictly through v: left={0..v-1} (v choices... vertex count v... )
  const auto g = path_graph(5);
  const auto r = betweenness_centrality(g);
  // v=1: pairs {0}x{2,3,4} -> 3 ordered both ways = 6.
  // v=2: {0,1}x{3,4} -> 4 pairs -> 8. v=3: symmetric with v=1.
  expect_scores_near(r.score, {0, 6, 8, 6, 0});
  EXPECT_EQ(r.sources_used, 5);
}

TEST(BetweennessTest, StarAnalytic) {
  const auto g = star_graph(6);  // hub + 5 spokes
  const auto r = betweenness_centrality(g);
  // Hub carries all 5*4 ordered spoke pairs.
  expect_scores_near(r.score, {20, 0, 0, 0, 0, 0});
}

TEST(BetweennessTest, CycleAndCompleteAreFlat) {
  const auto cyc = betweenness_centrality(cycle_graph(7));
  for (std::size_t v = 1; v < 7; ++v) {
    EXPECT_NEAR(cyc.score[v], cyc.score[0], 1e-9);
  }
  const auto comp = betweenness_centrality(complete_graph(5));
  for (double s : comp.score) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(BetweennessTest, BarbellBridgeDominates) {
  const auto g = barbell_graph(6);
  const auto r = betweenness_centrality(g);
  const auto top = top_k(std::span<const double>(r.score.data(), r.score.size()), 2);
  const std::set<vid> bridge{5, 6};
  EXPECT_TRUE(bridge.count(top[0]));
  EXPECT_TRUE(bridge.count(top[1]));
}

TEST(BetweennessTest, DisconnectedComponentsIndependent) {
  // Two paths; scores must match two independent path computations.
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto r = betweenness_centrality(g);
  expect_scores_near(r.score, {0, 2, 0, 0, 2, 0});
}

TEST(BetweennessTest, SelfLoopIgnored) {
  const auto with = betweenness_centrality(
      make_undirected(3, {{0, 1}, {1, 2}, {1, 1}}));
  const auto without =
      betweenness_centrality(make_undirected(3, {{0, 1}, {1, 2}}));
  expect_scores_near(with.score, without.score);
}

TEST(BetweennessTest, TinyBudgetShrinksTeamAndStaysUnderBudget) {
  // n = 200 so one score buffer is 1600 bytes. A 4000-byte budget affords
  // two buffers, so at 4 threads the team shrinks to 2 while buffer memory
  // stays under the budget.
  const auto g = erdos_renyi(200, 800, 21);
  BetweennessOptions o;
  o.num_sources = 64;
  o.seed = 5;
  BetweennessOptions tight = o;
  tight.score_memory_budget_bytes = 4000;
  set_num_threads(4);
  const auto wide = betweenness_centrality(g, o);
  const auto r = betweenness_centrality(g, tight);
  set_num_threads(0);
  EXPECT_EQ(wide.plan.team, 4);
  EXPECT_EQ(r.plan.team, 2);
  EXPECT_GT(r.plan.buffer_bytes, 0u);
  EXPECT_LE(r.plan.buffer_bytes, tight.score_memory_budget_bytes);

  // A smaller team must not change a bit of the scores.
  expect_scores_bitwise_equal(r.score, wide.score);
}

TEST(BetweennessTest, SampledSubsetOfSourcesUnderestimates) {
  const auto g = erdos_renyi(150, 600, 5);
  BetweennessOptions o;
  o.num_sources = 30;
  o.seed = 9;
  const auto approx = betweenness_centrality(g, o);
  const auto exact = betweenness_centrality(g);
  EXPECT_EQ(approx.sources_used, 30);
  for (std::size_t v = 0; v < approx.score.size(); ++v) {
    EXPECT_LE(approx.score[v], exact.score[v] + 1e-9);
  }
}

TEST(BetweennessTest, DeterministicForFixedSeed) {
  const auto g = erdos_renyi(100, 400, 13);
  BetweennessOptions o;
  o.num_sources = 20;
  o.seed = 77;
  set_num_threads(4);
  const auto a = betweenness_centrality(g, o);
  set_num_threads(1);
  const auto b = betweenness_centrality(g, o);
  set_num_threads(0);
  expect_scores_bitwise_equal(a.score, b.score);
}

TEST(BetweennessTest, EmptyGraph) {
  CsrGraph g;
  const auto r = betweenness_centrality(g);
  EXPECT_TRUE(r.score.empty());
  EXPECT_EQ(r.sources_used, 0);
}

// ---- Plan parity ----
//
// Sigma is pulled and the backward coefficient sums run in adjacency order,
// so every per-source contribution is the same bits at any thread count, and
// every plan adds them into the scores in source order: scores must be
// BIT-IDENTICAL for any thread count and budget — compared with ASSERT_EQ,
// not a tolerance. (The distributed engine's top-down pull is the
// independent reference for the hybrid sweep; see DistBcTest.)

TEST(BcPlanTest, DefaultPlanRunsTwoSlotsPerThread) {
  const auto g = star_graph(16);
  set_num_threads(4);
  const auto r = betweenness_centrality(g);  // 16 sources, 1 GiB budget
  set_num_threads(0);
  EXPECT_EQ(r.plan.team, 4);
  EXPECT_EQ(r.plan.buffer_bytes, 8u * 16u * sizeof(double));
  EXPECT_DOUBLE_EQ(r.score[0], 15.0 * 14.0);  // the hub carries every pair
}

TEST(BcPlanTest, DirectedRunsTheFusedSweepUnderEitherPlan) {
  // Directed input runs the fused sweep under either plan, pulling sigma
  // over the graph's reverse: the fine plan at one thread repeats bit for
  // bit, and the coarse team gives the same bits.
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 4;
  BuildOptions bo;
  bo.symmetrize = false;
  const auto g = build_csr(rmat_edges(ro), bo);
  ASSERT_TRUE(g.directed());

  BetweennessOptions o;
  o.num_sources = 64;
  o.seed = 7;
  set_num_threads(1);
  const auto fine = betweenness_centrality(g, o);
  const auto again = betweenness_centrality(g, o);
  set_num_threads(4);
  const auto coarse = betweenness_centrality(g, o);
  set_num_threads(0);
  EXPECT_EQ(fine.plan.team, 1);
  EXPECT_EQ(coarse.plan.team, 4);
  double sum = 0.0;
  for (const double s : fine.score) sum += s;
  EXPECT_GT(sum, 0.0);
  expect_scores_bitwise_equal(fine.score, again.score);
  expect_scores_bitwise_equal(coarse.score, fine.score);
}

/// FNV-1a over the bit patterns of a score vector, each double's bytes
/// little-endian.
std::uint64_t score_fingerprint(const std::vector<double>& score) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double s : score) {
    const auto bits = std::bit_cast<std::uint64_t>(s);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(BetweennessTest, OneThreadScoresMatchRecordedBuilds) {
  // Every other bitwise test compares two runs of the same build, so a
  // score bit that moved in every run would pass them all. The first three
  // constants were recorded at one thread from the build before the
  // leaf-folding layout, whose mention-graph inputs are 51% (atlflood) and
  // 57% (h1n1) leaves; the directed R-MAT's from the last build with the
  // push forward pass, before directed graphs pulled sigma over their
  // reverse. Every thread count and budget must give them:
  //  * the default budget runs the folded layout, under a parallel plan of
  //    team t at t >= 2 threads. Its workers run the sweeps inside a
  //    parallel region, where nested utilities (level compaction's prefix
  //    scan, the work-stealing scheduler) take their serial paths; a nested
  //    scan that once returned a stale 0 total emptied every level and
  //    zeroed the scores, which no fingerprint survives;
  //  * exactly the identity layout's bytes: the unfolded int32 layout;
  //  * one byte less: no layout, both sweeps read the graph itself;
  //  * below two score buffers: the serial plan, whose level sweeps run
  //    parallel at t threads, with no buffer.
  // A directed graph never folds, so its default budget runs the identity
  // layout in the backward sweep.
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 3;
  RmatOptions directed_ro = ro;
  directed_ro.seed = 4;
  BuildOptions arcs;
  arcs.symmetrize = false;
  struct Case {
    const char* name;
    CsrGraph graph;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {"atlflood", mention_lwcc("atlflood"), 0xdbb199ccaf8f07e1ULL},
      {"h1n1", mention_lwcc("h1n1"), 0xe70062c74216f606ULL},
      {"rmat11", rmat_graph(ro), 0xdf136485ab24adc1ULL},
      {"rmat11_directed", build_csr(rmat_edges(directed_ro), arcs),
       0x45e753dd428317cbULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t identity = bc_layout_build_bytes(c.graph, false);
    const std::uint64_t two_buffers =
        2 * static_cast<std::uint64_t>(c.graph.num_vertices()) *
        sizeof(double);
    ASSERT_GT(identity, two_buffers) << c.name;
    for (const int threads : {1, 2, 4}) {
      for (const std::uint64_t budget :
           {kSourceSumBudgetBytes, identity, identity - 1, two_buffers - 1}) {
        BetweennessOptions o;
        o.num_sources = 64;
        o.seed = 1;
        o.score_memory_budget_bytes = budget;
        set_num_threads(threads);
        const auto r = betweenness_centrality(c.graph, o);
        set_num_threads(0);
        EXPECT_EQ(score_fingerprint(r.score), c.fingerprint)
            << c.name << " threads=" << threads << " budget=" << budget;
        if (budget == two_buffers - 1) {
          EXPECT_EQ(r.plan.team, 1);
          EXPECT_EQ(r.plan.buffer_bytes, 0u);
        } else if (budget == kSourceSumBudgetBytes) {
          EXPECT_EQ(r.plan.team, threads);
        }
      }
    }
  }
}

// Property sweep: parallel implementation matches the serial Brandes
// reference exactly (modulo float noise) across random graphs.
class BetweennessPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BetweennessPropertyTest, MatchesSerialBrandes) {
  Rng rng(GetParam());
  const vid n = 10 + static_cast<vid>(rng.next_below(80));
  const auto m = static_cast<std::int64_t>(n * (1 + rng.next_below(4)));
  const auto g = erdos_renyi(n, m, GetParam() * 101 + 13);
  const auto expect = reference_betweenness(g);
  const auto got = betweenness_centrality(g);
  expect_scores_near(got.score, expect, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BetweennessPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace graphct
