#include "core/betweenness.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "algs/ranking.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "graph/builder.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
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

TEST(BetweennessTest, FineAndCoarseAgree) {
  const auto g = erdos_renyi(120, 500, 3);
  BetweennessOptions coarse;
  BetweennessOptions fine;
  fine.score_memory_budget_bytes = 120 * sizeof(double);  // one buffer
  set_num_threads(4);
  const auto rc = betweenness_centrality(g, coarse);
  const auto rf = betweenness_centrality(g, fine);
  set_num_threads(0);
  EXPECT_EQ(rc.plan.team, 4);
  EXPECT_EQ(rf.plan.team, 1);
  expect_scores_near(rc.score, rf.score, 1e-7);
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

  // A smaller team must not change the scores.
  expect_scores_near(r.score, wide.score, 1e-7);
}

TEST(BetweennessTest, FineWhenBudgetTooSmall) {
  const auto g = erdos_renyi(100, 300, 9);
  BetweennessOptions o;
  o.score_memory_budget_bytes = 100;  // cannot fit even one 800-byte buffer
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.plan.team, 1);
  EXPECT_EQ(r.plan.buffer_bytes, 0u);
  expect_scores_near(r.score, betweenness_centrality(g).score, 1e-7);
}

TEST(BcPlanTest, BudgetArithmetic) {
  // Budget affords 2 buffers for n=200 (1600 B each): team = 2.
  const auto p = plan_betweenness(/*n=*/200, /*num_sources=*/64,
                                  /*threads=*/8, /*budget_bytes=*/4000);
  EXPECT_EQ(p.team, 2);
  EXPECT_EQ(p.buffer_bytes, 3200u);

  // Plenty of budget: team capped by threads, then by sources.
  const std::uint64_t gib = std::uint64_t{1} << 30;
  const auto wide = plan_betweenness(200, 10, 4, gib);
  EXPECT_EQ(wide.team, 4);
  EXPECT_EQ(wide.buffer_bytes, 4u * 1600u);
  EXPECT_EQ(plan_betweenness(200, 3, 8, gib).team, 3);

  // One thread, one source, or a budget below two buffers: fine, with no
  // buffers at all.
  for (const BcPlan fine :
       {plan_betweenness(200, 64, 1, gib), plan_betweenness(200, 1, 8, gib),
        plan_betweenness(200, 64, 8, 3000), plan_betweenness(200, 64, 8, 100)}) {
    EXPECT_EQ(fine.team, 1);
    EXPECT_EQ(fine.buffer_bytes, 0u);
  }
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

TEST(BetweennessTest, RescaleMatchesMagnitudeInExpectation) {
  const auto g = erdos_renyi(200, 1000, 7);
  const auto exact = betweenness_centrality(g);
  BetweennessOptions o;
  o.num_sources = 100;
  o.rescale = true;
  o.seed = 3;
  const auto approx = betweenness_centrality(g, o);
  double sum_exact = 0, sum_approx = 0;
  for (std::size_t v = 0; v < exact.score.size(); ++v) {
    sum_exact += exact.score[v];
    sum_approx += approx.score[v];
  }
  EXPECT_NEAR(sum_approx / sum_exact, 1.0, 0.25);
}

TEST(BetweennessTest, SampleFractionOverridesNumSources) {
  const auto g = erdos_renyi(100, 300, 11);
  BetweennessOptions o;
  o.num_sources = 3;
  o.sample_fraction = 0.25;
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.sources_used, 25);
}

TEST(BetweennessTest, DeterministicForFixedSeed) {
  const auto g = erdos_renyi(100, 400, 13);
  BetweennessOptions o;
  o.num_sources = 20;
  o.seed = 77;
  const auto a = betweenness_centrality(g, o);
  const auto b = betweenness_centrality(g, o);
  expect_scores_near(a.score, b.score, 0.0);
}

TEST(ChooseSourcesTest, ExactUsesAllVertices) {
  const auto g = path_graph(7);
  BetweennessOptions o;
  const auto s = choose_sources(g, o);
  EXPECT_EQ(s.size(), 7u);
}

TEST(ChooseSourcesTest, UniformSampleSizeAndRange) {
  const auto g = erdos_renyi(500, 1000, 17);
  BetweennessOptions o;
  o.num_sources = 50;
  const auto s = choose_sources(g, o);
  EXPECT_EQ(s.size(), 50u);
  std::set<vid> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 50u);
}

TEST(ChooseSourcesTest, ComponentAwareCoversEveryComponent) {
  // Five components; uniform sampling of 5 sources will often miss some,
  // but component-aware sampling must hit all five.
  EdgeList el(50);
  for (vid c = 0; c < 5; ++c) {
    const vid base = c * 10;
    for (vid i = 0; i < 9; ++i) el.add(base + i, base + i + 1);
  }
  const auto g = build_csr(el);
  BetweennessOptions o;
  o.num_sources = 5;
  o.sampling = BcSampling::kComponentAware;
  o.seed = 3;
  const auto sources = choose_sources(g, o);
  ASSERT_EQ(sources.size(), 5u);
  std::set<vid> comps;
  for (vid s : sources) comps.insert(s / 10);
  EXPECT_EQ(comps.size(), 5u);
}

TEST(ChooseSourcesTest, InvalidArgumentsThrow) {
  const auto g = path_graph(5);
  BetweennessOptions o;
  o.num_sources = 0;
  EXPECT_THROW(choose_sources(g, o), Error);
  o.num_sources = kNoVertex;
  o.sample_fraction = 1.5;
  EXPECT_THROW(choose_sources(g, o), Error);
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
// the fine plan adds them into the scores in source order: its scores must
// be BIT-IDENTICAL for any thread count — compared with ASSERT_EQ, not a
// tolerance. (The distributed engine's top-down pull is the independent
// reference for the hybrid sweep; see DistBcTest.)

void expect_scores_bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "vertex " << i;
  }
}

TEST(BcPlanTest, DefaultPlanRunsOneBufferPerThread) {
  const auto g = star_graph(16);
  set_num_threads(4);
  const auto r = betweenness_centrality(g);  // 16 sources, 1 GiB budget
  set_num_threads(0);
  EXPECT_EQ(r.plan.team, 4);
  EXPECT_EQ(r.plan.buffer_bytes, 4u * 16u * sizeof(double));
  EXPECT_DOUBLE_EQ(r.score[0], 15.0 * 14.0);  // the hub carries every pair
}

TEST(BcPlanTest, DirectedRunsThePushForwardPass) {
  // Directed input takes forward_push_directed under either plan (the fused
  // sweep throws on directed graphs): the fine plan at one thread repeats
  // bit for bit, and the coarse team agrees to float noise.
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
  expect_scores_near(coarse.score, fine.score, 1e-7);
}

TEST(BcPlanTest, CoarseModeMatchesAcrossThreadCounts) {
  // Coarse workers run the full sweep machinery from inside a parallel
  // region, where nested utilities (level compaction's prefix scan, the
  // work-stealing scheduler's in-parallel guard) take their serial paths.
  // Regression: exclusive_scan once returned a stale 0 total for nested
  // callers, truncating every BFS level to empty — coarse multi-thread
  // runs silently produced all-zero scores while every threads=1 and
  // fine-mode test stayed green. Scores reassociate across the per-thread
  // buffers (dynamic source assignment), hence near, not bitwise.
  RmatOptions ro;
  ro.scale = 10;
  ro.edge_factor = 16;
  ro.seed = 9;
  const auto g = rmat_graph(ro);
  BetweennessOptions o;
  o.num_sources = 96;
  o.seed = 5;
  set_num_threads(1);
  const auto base = betweenness_centrality(g, o);
  double sum = 0.0;
  for (const double s : base.score) sum += s;
  EXPECT_GT(sum, 0.0);
  for (int t : {2, 8}) {
    set_num_threads(t);
    const auto got = betweenness_centrality(g, o);
    set_num_threads(0);
    expect_scores_near(got.score, base.score, 1e-7);
  }
  set_num_threads(0);
}

TEST(BcPlanTest, FineModeBitIdenticalAcrossThreadCounts) {
  // A budget below two buffers keeps the fine plan at every thread count;
  // with no atomic accumulations left its scores must be bit-identical to
  // the one-thread run. The small budget also skips the layout, so this
  // pins the folded int32 layout (one thread) and the unfolded view (two
  // and eight threads) to the same bits.
  RmatOptions ro;
  ro.scale = 10;
  ro.edge_factor = 16;
  ro.seed = 9;
  const auto g = rmat_graph(ro);
  BetweennessOptions o;
  o.num_sources = 96;
  o.seed = 7;
  set_num_threads(1);
  const auto base = betweenness_centrality(g, o);
  o.score_memory_budget_bytes =
      2 * static_cast<std::uint64_t>(g.num_vertices()) * sizeof(double) - 1;
  for (int t : {2, 8}) {
    set_num_threads(t);
    const auto got = betweenness_centrality(g, o);
    set_num_threads(0);
    EXPECT_EQ(got.plan.team, 1);
    expect_scores_bitwise_equal(base.score, got.score);
  }
  set_num_threads(0);
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
  // score bit that moved in every run would pass them all. These constants
  // were recorded from the build before the leaf-folding layout, whose
  // mention-graph inputs are 51% (atlflood) and 57% (h1n1) leaves.
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 3;
  struct Case {
    const char* name;
    CsrGraph graph;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {"atlflood", mention_lwcc("atlflood"), 0xdbb199ccaf8f07e1ULL},
      {"h1n1", mention_lwcc("h1n1"), 0xe70062c74216f606ULL},
      {"rmat11", rmat_graph(ro), 0xdf136485ab24adc1ULL},
  };
  BetweennessOptions o;
  o.num_sources = 64;
  o.seed = 1;
  set_num_threads(1);
  for (const Case& c : cases) {
    EXPECT_EQ(score_fingerprint(betweenness_centrality(c.graph, o).score),
              c.fingerprint)
        << c.name;
  }
  set_num_threads(0);
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
