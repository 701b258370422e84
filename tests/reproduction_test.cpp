/// Reproduction guards: scaled-down versions of every paper claim the
/// benches regenerate, asserted as tests so regressions in kernels,
/// generators, or calibration break CI rather than silently bending the
/// curves in EXPERIMENTS.md. Each test names the table/figure it guards.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algs/assortativity.hpp"
#include "algs/connected_components.hpp"
#include "algs/degree.hpp"
#include "algs/ranking.hpp"
#include "core/betweenness.hpp"
#include "gen/rmat.hpp"
#include "graph/io_dimacs.hpp"
#include "test_support.hpp"
#include "twitter/conversation.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "twitter/mention_graph.hpp"
#include "util/timer.hpp"

namespace graphct {
namespace {

twitter::MentionGraph preset_graph(const char* name, double scale) {
  const auto preset = twitter::dataset_preset(name, scale);
  const auto tweets = twitter::generate_corpus(preset.corpus);
  twitter::MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  return std::move(b).build();
}

TEST(ReproductionTest, TableII_OnsetBurstShape) {
  twitter::ArticleVolumeOptions o;
  o.seed = 2009;
  const auto rows = twitter::simulate_weekly_articles(o);
  ASSERT_EQ(rows.size(), 8u);
  // Paper: 5,591 -> 108,038 (19x) then decay; guard a >5x burst and that
  // the peak dominates the tail.
  EXPECT_GT(rows[1].second, 5 * rows[0].second);
  EXPECT_GT(rows[1].second, rows[4].second);
  EXPECT_GT(rows[1].second, rows[7].second);
}

TEST(ReproductionTest, TableIII_FragmentedBroadcastForest) {
  const auto mg = preset_graph("h1n1", 0.2);
  // Paper row 1: interactions (36,886) < users (46,457); a dominant but
  // partial LWCC; responses a small fraction of tweets.
  EXPECT_LT(mg.unique_interactions, mg.num_users);
  const auto und = mg.undirected();
  const auto stats = component_stats(connected_components(und));
  EXPECT_GT(stats.largest_size(), mg.num_users / 10);
  EXPECT_LT(stats.largest_size(), mg.num_users);
  EXPECT_LT(mg.tweets_with_responses, mg.num_tweets / 5);
  EXPECT_GT(mg.tweets_with_responses, 0);
}

TEST(ReproductionTest, TableIV_HubsDominateBcRanking) {
  const auto preset = twitter::dataset_preset("atlflood", 0.5);
  const auto tweets = twitter::generate_corpus(preset.corpus);
  twitter::MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  const auto mg = std::move(b).build();
  const auto ranked = twitter::rank_users_by_betweenness(mg, 10);
  std::set<std::string> hubs(preset.corpus.hub_names.begin(),
                             preset.corpus.hub_names.end());
  int hub_hits = 0;
  for (const auto& r : ranked) {
    if (hubs.count(r.name) || r.name.rfind("hub", 0) == 0) ++hub_hits;
  }
  // Paper: the top-15 are dominated by media/government accounts.
  EXPECT_GE(hub_hits, 5);
}

TEST(ReproductionTest, Fig2_HeavyTailAndDisassortativity) {
  const auto mg = preset_graph("h1n1", 0.2);
  const auto und = mg.undirected();
  const auto s = degree_summary(und);
  EXPECT_GT(s.max, 30.0 * s.mean);  // a few broadcast vertices dominate
  const double alpha = degree_power_law_alpha(und, 2);
  EXPECT_GT(alpha, 1.3);
  EXPECT_LT(alpha, 4.5);
  EXPECT_LT(degree_assortativity(und), -0.05);  // broadcast signature
}

TEST(ReproductionTest, Fig3_MutualFilterCollapsesGraph) {
  for (const char* name : {"h1n1", "atlflood"}) {
    const auto mg = preset_graph(name, 0.3);
    const auto r = twitter::subcommunity_filter(mg);
    // Paper: reduction factors up to two orders of magnitude; guard >= 5x
    // at test scale and that something survives.
    EXPECT_GT(r.reduction_factor, 5.0) << name;
    EXPECT_GT(r.mutual_vertices, 0) << name;
    EXPECT_LE(r.mutual_lwcc_vertices, r.mutual_vertices) << name;
  }
}

TEST(ReproductionTest, Fig4_RuntimeLinearInSampledFraction) {
  const auto mg = preset_graph("h1n1", 0.15);
  const auto lwcc = largest_component(mg.undirected());
  const auto& g = lwcc.graph;

  auto run = [&](double frac) {
    BetweennessOptions o;
    o.num_sources = static_cast<std::int64_t>(
        std::ceil(frac * static_cast<double>(g.num_vertices())));
    o.seed = 5;
    return betweenness_centrality(g, o).seconds;
  };
  const double t10 = run(0.10);
  const double t100 = run(1.0);
  // Paper: "a clear and dramatic runtime performance difference of 10%
  // sampling compared to exact" — 30 s vs 49 min. Guard a >=4x gap (the
  // asymptotic factor is 10x; small graphs carry fixed overheads).
  EXPECT_GT(t100, 4.0 * t10);
}

TEST(ReproductionTest, Fig5_AccuracyRisesWithSampling) {
  const auto mg = preset_graph("atlflood", 1.0);
  const auto lwcc = largest_component(mg.undirected());
  const auto& g = lwcc.graph;
  const auto exact = betweenness_centrality(g);
  const std::span<const double> ex(exact.score.data(), exact.score.size());

  auto mean_overlap = [&](double frac) {
    double sum = 0;
    for (int rep = 0; rep < 5; ++rep) {
      BetweennessOptions o;
      o.num_sources = static_cast<std::int64_t>(
          std::ceil(frac * static_cast<double>(g.num_vertices())));
      o.seed = 40 + static_cast<std::uint64_t>(rep);
      const auto approx = betweenness_centrality(g, o);
      sum += top_k_overlap(
          ex, {approx.score.data(), approx.score.size()}, 5.0);
    }
    return sum / 5.0;
  };
  const double at10 = mean_overlap(0.10);
  const double at50 = mean_overlap(0.50);
  // Paper: >80% overlap for top 1%/5% at 10% sampling, >90% at 25-50%.
  EXPECT_GE(at10, 0.6);
  EXPECT_GE(at50, 0.8);
  EXPECT_GE(at50, at10 - 0.05);
}

TEST(ReproductionTest, Fig6_TimeScalesWithGraphSize) {
  // Fixed 64 sources across an R-MAT family: time must grow with E and
  // stay within a loose near-linear envelope.
  double prev = 0;
  double prev_edges = 0;
  for (std::int64_t scale : {10, 12, 14}) {
    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    const auto g = rmat_graph(r);
    BetweennessOptions o;
    o.num_sources = 64;
    o.seed = 3;
    // Best of three: the scale-10 run takes ~2 ms, so a single host stall
    // could otherwise invert the ordering.
    double secs = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      secs = std::min(secs, betweenness_centrality(g, o).seconds);
    }
    secs = std::max(secs, 1e-4);
    if (prev > 0) {
      const double time_ratio = secs / prev;
      const double edge_ratio = static_cast<double>(g.num_edges()) / prev_edges;
      EXPECT_GT(time_ratio, 1.2);                // grows with size
      EXPECT_LT(time_ratio, edge_ratio * 4.0);   // not superlinear blowup
    }
    prev = secs;
    prev_edges = static_cast<double>(g.num_edges());
  }
}

TEST(ReproductionTest, SectionIVC_LoadRivalsKernelCost) {
  // "Loading massive datasets into memory ... often occupies a majority of
  // computation time": parse+build should be within an order of magnitude
  // of one components pass, not negligible.
  RmatOptions r;
  r.scale = 13;
  r.edge_factor = 8;
  const auto g = rmat_graph(r);
  const std::string text = to_dimacs(g);
  Timer t;
  const auto rebuilt = build_csr(parse_dimacs(text));
  const double load_s = t.seconds();
  t.restart();
  (void)connected_components(rebuilt);
  const double cc_s = t.seconds();
  EXPECT_GT(load_s, cc_s * 0.5);
}

}  // namespace
}  // namespace graphct
