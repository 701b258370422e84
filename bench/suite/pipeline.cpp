/// \file pipeline.cpp
/// twitter_pipeline: the paper's workload end to end. Tweets (TSV) ->
/// mention graph -> undirected view -> largest component (LWCC) ->
/// mutual-mention filter -> sampled betweenness on the LWCC and on the
/// largest conversation cluster -> top-15 users, at Table III "sep1" scale.

#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algs/connected_components.hpp"
#include "algs/ranking.hpp"
#include "core/toolkit.hpp"
#include "twitter/conversation.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "twitter/mention_graph.hpp"
#include "twitter/tweet_io.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace graphct::suite {

namespace {

constexpr std::int64_t kBcSources = 64;
constexpr std::int64_t kTopK = 15;

/// What one pass produced: the funnel counts, scores and top-15 names.
struct PassResult {
  std::int64_t tweets = 0;
  std::int64_t users = 0;
  std::int64_t interactions = 0;
  std::int64_t lwcc_vertices = 0;
  std::int64_t lwcc_entries = 0;  ///< adjacency entries of the LWCC
  std::int64_t mutual_vertices = 0;
  std::int64_t conv_vertices = 0;
  std::vector<double> lwcc_scores;
  std::vector<double> conv_scores;
  std::set<std::string> lwcc_top;
  std::set<std::string> conv_top;
};

std::set<std::string> top_names(const std::vector<double>& scores,
                                const std::vector<vid>& orig_ids,
                                const twitter::MentionGraph& mg) {
  std::set<std::string> names;
  for (const vid v : top_k(std::span<const double>(scores), kTopK)) {
    const vid user = orig_ids[static_cast<std::size_t>(v)];
    names.insert(mg.users[static_cast<std::size_t>(user)]);
  }
  return names;
}

PassResult run_pass(const std::string& tsv, std::uint64_t bc_seed,
                    Tracer& tracer, std::uint64_t op) {
  PassResult r;
  ScopedSpan op_span(tracer, "op", op);
  twitter::MentionGraph mg;
  {
    std::vector<twitter::Tweet> tweets;
    {
      ScopedSpan s(tracer, "twitter.read", op);
      tweets = twitter::read_tweets(tsv);
    }
    ScopedSpan s(tracer, "twitter.build", op);
    twitter::MentionGraphBuilder builder;
    for (const auto& t : tweets) builder.add(t);
    mg = std::move(builder).build();
  }
  r.tweets = mg.num_tweets;
  r.users = mg.num_users;
  r.interactions = mg.unique_interactions;

  CsrGraph undirected;
  {
    ScopedSpan s(tracer, "graph.undirected", op);
    undirected = mg.undirected();
  }
  Subgraph lwcc;
  {
    ScopedSpan s(tracer, "algs.lwcc", op);
    lwcc = largest_component(undirected);
  }
  twitter::SubcommunityResult sub;
  {
    ScopedSpan s(tracer, "twitter.filter", op);
    sub = twitter::subcommunity_filter(mg);
  }
  r.lwcc_vertices = lwcc.graph.num_vertices();
  r.mutual_vertices = sub.mutual_vertices;
  r.conv_vertices = sub.mutual_lwcc.graph.num_vertices();

  ToolkitOptions topts;
  topts.estimate_diameter_on_load = false;
  BetweennessOptions bo;
  bo.num_sources = kBcSources;
  bo.seed = bc_seed;
  std::vector<vid> lwcc_ids = std::move(lwcc.orig_ids);
  std::vector<vid> conv_ids = sub.mutual_lwcc.orig_ids;
  std::optional<Toolkit> lwcc_tk;
  std::optional<Toolkit> conv_tk;
  {
    ScopedSpan s(tracer, "core.load", op);
    lwcc_tk.emplace(std::move(lwcc.graph), topts);
    conv_tk.emplace(std::move(sub.mutual_lwcc.graph), topts);
  }
  r.lwcc_entries = lwcc_tk->graph().num_adjacency_entries();
  {
    ScopedSpan s(tracer, "core.bc_lwcc", op);
    r.lwcc_scores = lwcc_tk->betweenness(bo).score;
  }
  {
    ScopedSpan s(tracer, "core.bc_conv", op);
    r.conv_scores = conv_tk->betweenness(bo).score;
  }
  ScopedSpan s(tracer, "algs.topk", op);
  r.lwcc_top = top_names(r.lwcc_scores, lwcc_ids, mg);
  // Conversation ids index the mention graph directly.
  r.conv_top = top_names(r.conv_scores, conv_ids, mg);
  return r;
}

bool scores_match(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rel_diff(a[i], b[i]) > 1e-12) return false;
  }
  return true;
}

/// Multi-threaded betweenness is not bitwise reproducible, so scores match
/// the 1-thread reference within 1e-12 relative and the top-15 sets are
/// identical; the funnel counts match exactly.
void check_pass(Report& report, const PassResult& got, const PassResult& ref,
                const char* what) {
  const bool ok = got.tweets == ref.tweets && got.users == ref.users &&
                  got.interactions == ref.interactions &&
                  got.lwcc_vertices == ref.lwcc_vertices &&
                  got.mutual_vertices == ref.mutual_vertices &&
                  got.conv_vertices == ref.conv_vertices &&
                  got.lwcc_top == ref.lwcc_top && got.conv_top == ref.conv_top &&
                  scores_match(got.lwcc_scores, ref.lwcc_scores) &&
                  scores_match(got.conv_scores, ref.conv_scores);
  report.check(ok, std::string(what) + " differs from the 1-thread reference");
}

}  // namespace

void run_twitter_pipeline(const RunConfig& cfg, Tracer& tracer,
                          Report& report) {
  // Full-size sep1 (~1.25M tweets); only the corpus seed varies.
  auto preset = twitter::dataset_preset("sep1");
  preset.corpus.seed = derive_seed(cfg.seed, 1);
  const std::uint64_t bc_seed = derive_seed(cfg.seed, 2);
  const std::string tsv = cfg.tmp_dir + "/sep1.tsv";
  if (!run_in_child([&] {
        twitter::write_tweets(twitter::generate_corpus(preset.corpus), tsv);
      })) {
    report.fail("could not generate the sep1 corpus");
    return;
  }

  // Set-up: the cold first pass at N threads, which is also the untimed
  // warm-up. Its high-water mark is the pipeline's peak RSS: later passes
  // in the same process only add allocator fragmentation.
  set_num_threads(kThreads);
  double t0 = now_s();
  const PassResult warm = run_pass(tsv, bc_seed, tracer, 0);
  const double setup = now_s() - t0;
  const double peak_rss = peak_rss_mib();

  set_num_threads(1);
  const PassResult ref = run_pass(tsv, bc_seed, tracer, 0);
  set_num_threads(kThreads);
  check_pass(report, warm, ref, "warm-up pass");

  std::vector<double> untraced, traced;
  run_for(cfg.seconds, cfg.trace ? 2 : 1, [&](int i) {
    const bool traced_rep = cfg.trace && i % 2 == 1;
    tracer.set_enabled(traced_rep);
    t0 = now_s();
    const PassResult got =
        run_pass(tsv, bc_seed, tracer, static_cast<std::uint64_t>(i) + 1);
    (traced_rep ? traced : untraced).push_back(now_s() - t0);
    tracer.set_enabled(false);
    check_pass(report, got, ref, "timed pass");
  });

  report.sequential_e2e({setup}, untraced, peak_rss);

  report.layer("twitter.tweets", "count", static_cast<double>(ref.tweets));
  report.layer("twitter.users", "count", static_cast<double>(ref.users));
  report.layer("twitter.interactions", "count",
               static_cast<double>(ref.interactions));
  report.layer("twitter.lwcc_vertices", "count",
               static_cast<double>(ref.lwcc_vertices));
  report.layer("twitter.mutual_vertices", "count",
               static_cast<double>(ref.mutual_vertices));
  if (!cfg.trace) return;

  const auto secs = [&](const char* span) { return tracer.durations(span); };
  const auto read = secs("twitter.read");
  const auto build = secs("twitter.build");
  report.layer("twitter.read_s", "s", read);
  report.layer("twitter.build_s", "s", build);
  std::vector<double> tweets_per_s;
  for (std::size_t i = 0; i < read.size() && i < build.size(); ++i) {
    tweets_per_s.push_back(static_cast<double>(ref.tweets) /
                           (read[i] + build[i]));
  }
  report.layer("twitter.tweets_per_s", "1/s", tweets_per_s);
  report.layer("graph.undirected_s", "s", secs("graph.undirected"));
  report.layer("algs.lwcc_s", "s", secs("algs.lwcc"));
  report.layer("twitter.filter_s", "s", secs("twitter.filter"));
  report.layer("core.load_s", "s", secs("core.load"));
  report.layer("core.bc_lwcc_s", "s", secs("core.bc_lwcc"));
  report.layer("core.bc_conv_s", "s", secs("core.bc_conv"));
  std::vector<double> mteps;
  for (const double s : secs("core.bc_lwcc")) {
    mteps.push_back(static_cast<double>(kBcSources * ref.lwcc_entries) / s /
                    1e6);
  }
  report.bc_rate(mteps);
  report.add_trace_metrics(traced, untraced);
}

}  // namespace graphct::suite
