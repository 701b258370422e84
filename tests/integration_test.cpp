/// End-to-end integration tests: the full paper pipeline — synthesize a
/// tweet stream, parse it, build the mention graph, characterize it with
/// every kernel, filter to conversations, and rank actors — plus a
/// cross-module script-driven run.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "algs/degree.hpp"
#include "algs/diameter.hpp"
#include "algs/kcore.hpp"
#include "algs/ranking.hpp"
#include "core/toolkit.hpp"
#include "gen/rmat.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_dimacs.hpp"
#include "script/interpreter.hpp"
#include "twitter/conversation.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "twitter/mention_graph.hpp"

namespace graphct {
namespace {

using twitter::MentionGraphBuilder;

TEST(IntegrationTest, FullTwitterPipelineOnTinyPreset) {
  const auto preset = twitter::dataset_preset("tiny");
  const auto tweets = twitter::generate_corpus(preset.corpus);

  MentionGraphBuilder builder;
  for (const auto& t : tweets) builder.add(t);
  const auto mg = std::move(builder).build();

  // Corpus statistics are internally consistent.
  EXPECT_EQ(mg.num_tweets, static_cast<std::int64_t>(tweets.size()));
  EXPECT_LE(mg.tweets_with_responses, mg.tweets_with_mentions);
  EXPECT_LE(mg.tweets_with_mentions, mg.num_tweets);
  EXPECT_EQ(mg.num_users, mg.directed.num_vertices());

  // Toolkit characterization of the undirected view.
  ToolkitOptions topts;
  topts.diameter_samples = 32;
  Toolkit tk(mg.undirected(), topts);
  EXPECT_GT(tk.diameter().estimate, 0);
  EXPECT_GE(tk.components_stats().num_components, 1);
  EXPECT_GT(tk.degree_stats().mean, 0.0);

  // Conversation filtering shrinks the graph dramatically (broadcast-heavy
  // corpus), and the survivors hold mutual edges.
  const auto sub = twitter::subcommunity_filter(mg);
  EXPECT_LT(sub.mutual_vertices, sub.original_vertices / 2);
  EXPECT_GT(sub.mutual_vertices, 0);
  for (vid v = 0; v < sub.mutual.graph.num_vertices(); ++v) {
    EXPECT_GE(sub.mutual.graph.degree(v), 1);
  }

  // BC ranking surfaces the named hubs at the top (broadcast centers).
  const auto ranked = twitter::rank_users_by_betweenness(mg, 5);
  ASSERT_EQ(ranked.size(), 5u);
  std::set<std::string> hubs(preset.corpus.hub_names.begin(),
                             preset.corpus.hub_names.end());
  int hub_hits = 0;
  for (const auto& r : ranked) {
    if (hubs.count(r.name) || r.name.rfind("hub", 0) == 0) ++hub_hits;
  }
  EXPECT_GE(hub_hits, 1);
}

TEST(IntegrationTest, ApproximateBcTracksExactOnTweetGraph) {
  // The Fig. 5 claim in miniature: sampled BC preserves the top actors.
  const auto preset = twitter::dataset_preset("tiny");
  const auto tweets = twitter::generate_corpus(preset.corpus);
  MentionGraphBuilder builder;
  for (const auto& t : tweets) builder.add(t);
  const auto mg = std::move(builder).build();
  const auto und = mg.undirected();

  const auto exact = betweenness_centrality(und);
  BetweennessOptions o;
  o.num_sources = static_cast<std::int64_t>(
      std::ceil(0.5 * static_cast<double>(und.num_vertices())));
  o.seed = 11;
  const auto approx = betweenness_centrality(und, o);
  const double overlap = top_k_overlap(
      std::span<const double>(exact.score.data(), exact.score.size()),
      std::span<const double>(approx.score.data(), approx.score.size()), 5.0);
  EXPECT_GE(overlap, 0.5);
}

TEST(IntegrationTest, RmatCharacterizationSuite) {
  // Generate -> characterize, the artificial-network half of the paper.
  RmatOptions r;
  r.scale = 10;
  r.edge_factor = 8;
  const auto g = rmat_graph(r);
  ToolkitOptions topts;
  topts.diameter_samples = 64;
  Toolkit tk(g, topts);

  const auto& d = tk.diameter();
  EXPECT_GT(d.longest_distance, 0);
  EXPECT_EQ(d.estimate, d.longest_distance * 4);

  const auto& cstats = tk.components_stats();
  // R-MAT graphs have one giant component plus isolated-vertex dust.
  EXPECT_GT(cstats.largest_size(), g.num_vertices() / 2);

  const auto bc = tk.betweenness({.num_sources = 64, .seed = 3});
  EXPECT_EQ(bc.sources_used, 64);
  // Hubs of the giant component should carry nonzero centrality.
  const auto top = top_k(std::span<const double>(bc.score.data(), bc.score.size()), 1);
  EXPECT_GT(bc.score[static_cast<std::size_t>(top[0])], 0.0);
}

TEST(IntegrationTest, ScriptDrivesTwitterGraph) {
  // Export a tweet graph to DIMACS, then run an analyst script over it.
  const auto preset = twitter::dataset_preset("tiny");
  const auto tweets = twitter::generate_corpus(preset.corpus);
  MentionGraphBuilder builder;
  for (const auto& t : tweets) builder.add(t);
  const auto mg = std::move(builder).build();

  const std::string path = "/tmp/gct_integration_tweets.dimacs";
  graphct::write_dimacs(mg.undirected(), path);

  std::ostringstream out;
  script::InterpreterOptions iopts;
  iopts.toolkit.diameter_samples = 16;
  script::Interpreter in(out, iopts);
  in.run("read dimacs " + path +
         "\nprint graph\nprint components\nsave graph\nextract component 1\n"
         "print degrees\nkcentrality 0 32\nrestore graph\n");
  EXPECT_NE(out.str().find("components:"), std::string::npos);
  EXPECT_NE(out.str().find("vertex"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IntegrationTest, BinaryRoundTripPreservesKernelResults) {
  const auto g = rmat_graph({.scale = 8, .edge_factor = 6, .seed = 9});
  const std::string path = "/tmp/gct_integration_rt.bin";
  write_binary(g, path);
  const auto g2 = read_binary(path);
  EXPECT_EQ(degrees(g), degrees(g2));
  EXPECT_EQ(core_numbers(g), core_numbers(g2));
  const auto a = betweenness_centrality(g, {.num_sources = 16, .seed = 1});
  const auto b = betweenness_centrality(g2, {.num_sources = 16, .seed = 1});
  EXPECT_EQ(a.score, b.score);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphct
