#include "script/interpreter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "gen/shapes.hpp"
#include "graph/io_binary.hpp"
#include "obs/trace.hpp"
#include "graph/io_dimacs.hpp"
#include "server/graph_registry.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct::script {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Interpreter with fast toolkit defaults for tests.
InterpreterOptions fast_opts() {
  InterpreterOptions o;
  o.toolkit.diameter_samples = 16;
  return o;
}

TEST(InterpreterTest, GenerateAndPrintGraph) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nprint graph\n");
  EXPECT_NE(out.str().find("64 vertices"), std::string::npos);
  EXPECT_NE(out.str().find("undirected"), std::string::npos);
}

// A read or generate that throws leaves the session on the graph it had:
// the new graph is built before the stack is cleared.
TEST(InterpreterTest, FailedReadOrGenerateKeepsTheCurrentGraph) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 4 4\n");
  for (const std::string& bad :
       {"read binary " + temp_path("gct_interp_missing.bin"),
        std::string("generate rmat 2 4611686018427387904")}) {
    EXPECT_THROW(in.run(bad + "\n"), graphct::Error) << bad;
    EXPECT_EQ(in.stack_depth(), 1u) << bad;
    out.str("");
    in.run("print graph\n");
    EXPECT_NE(out.str().find("16 vertices"), std::string::npos)
        << bad << ": " << out.str();
  }
}

TEST(InterpreterTest, ReadDimacs) {
  const std::string path = temp_path("gct_interp.dimacs");
  graphct::write_dimacs(graphct::path_graph(8), path);
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("read dimacs " + path + "\nprint degrees\n");
  EXPECT_NE(out.str().find("8 vertices"), std::string::npos);
  EXPECT_NE(out.str().find("mean="), std::string::npos);
  std::remove(path.c_str());
}

TEST(InterpreterTest, CommandWithoutGraphThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("print degrees\n"), graphct::Error);
}

TEST(InterpreterTest, UnknownCommandThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("frobnicate\n"), graphct::Error);
}

TEST(InterpreterTest, SaveExtractRestoreStack) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  // Two components: sizes 4 and 2 — build via edgelist file.
  const std::string el = temp_path("gct_interp.el");
  {
    std::ofstream f(el);
    f << "0 1\n1 2\n2 3\n8 9\n";
  }
  in.run("read edgelist " + el + "\n");
  EXPECT_EQ(in.current().graph().num_vertices(), 10);
  in.run("save graph\nextract component 1\n");
  EXPECT_EQ(in.current().graph().num_vertices(), 4);
  in.run("restore graph\n");
  EXPECT_EQ(in.current().graph().num_vertices(), 10);
  in.run("extract component 2\n");
  EXPECT_EQ(in.current().graph().num_vertices(), 2);
  std::remove(el.c_str());
}

TEST(InterpreterTest, RestoreWithoutSaveThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 5 2\n");
  EXPECT_THROW(in.run("restore graph\n"), graphct::Error);
}

TEST(InterpreterTest, ExtractComponentWritesBinary) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const std::string bin = temp_path("gct_interp_comp.bin");
  in.run("generate rmat 6 8\nsave graph\nextract component 1 => " + bin + "\n");
  const auto g = graphct::read_binary(bin);
  EXPECT_EQ(g.num_vertices(), in.current().graph().num_vertices());
  std::remove(bin.c_str());
}

TEST(InterpreterTest, KcentralityToFile) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const std::string scores = temp_path("gct_interp_scores.txt");
  in.run("generate rmat 6 4\nkcentrality 1 16 => " + scores + "\n");
  std::ifstream f(scores);
  ASSERT_TRUE(f.good());
  std::int64_t lines = 0;
  std::string line;
  while (std::getline(f, line)) ++lines;
  EXPECT_EQ(lines, in.current().graph().num_vertices());
  std::remove(scores.c_str());
}

TEST(InterpreterTest, KcentralityToScreenShowsTopVertices) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nkcentrality 0 16\n");
  EXPECT_NE(out.str().find("vertex"), std::string::npos);
}

TEST(InterpreterTest, BcVerbBudget) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  // A 16-vertex graph, so `bc 17` also runs all 16 sources, but under its
  // own cache key: `bc 16 1` would be served the `bc 16` result, which no
  // budget changes, with the plan of the run that computed it.
  in.run("generate rmat 4 4\nthreads 2\nbc 16\nthreads 1\nbc 17 1\n"
         "threads 0\n");
  const std::string s = out.str();
  EXPECT_NE(s.find("bc sources=16 team=2"), std::string::npos);
  EXPECT_NE(s.find("bc sources=16 team=1"), std::string::npos);
  EXPECT_NE(s.find("vertex"), std::string::npos);  // top-vertex table

  EXPECT_THROW(in.run("bc 16 fine\n"), Error);  // no mode token any more
  EXPECT_THROW(in.run("bc 16 0\n"), Error);
  EXPECT_THROW(in.run("bc 16 1 2\n"), Error);
}

// The budget is range-checked before it is shifted to bytes: 2^44 MiB
// once wrapped to a 0-byte budget and was accepted.
TEST(InterpreterTest, BcBudgetOutsideItsRangeNamesTheRange) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 4 4\n");
  for (const char* mib : {"17592186044416", "0", "-1"}) {
    try {
      in.run(std::string("bc 4 ") + mib + "\n");
      ADD_FAILURE() << "bc 4 " << mib << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("script line 1: bc budget (MiB) must be in [1, "
                            "8796093022208], got ") +
                    mib);
    }
  }
  in.run("bc 4 8796093022208\n");
  EXPECT_NE(out.str().find("bc sources=4"), std::string::npos);
}

TEST(InterpreterTest, BcVerbToFile) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const std::string scores = temp_path("gct_interp_bc_scores.txt");
  in.run("generate rmat 6 4\nbc 16 => " + scores + "\n");
  std::ifstream f(scores);
  ASSERT_TRUE(f.good());
  std::int64_t lines = 0;
  std::string line;
  while (std::getline(f, line)) ++lines;
  EXPECT_EQ(lines, in.current().graph().num_vertices());
  std::remove(scores.c_str());
}

TEST(InterpreterTest, DiameterWithPercentArgument) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nprint diameter 10\n");
  EXPECT_NE(out.str().find("diameter estimate"), std::string::npos);
}

TEST(InterpreterTest, ComponentsClusteringKcores) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 7 4\nprint components\nprint clustering\nprint kcores\n");
  const std::string s = out.str();
  EXPECT_NE(s.find("components:"), std::string::npos);
  EXPECT_NE(s.find("triangles="), std::string::npos);
  EXPECT_NE(s.find("degeneracy="), std::string::npos);
}

TEST(InterpreterTest, ExtractKcore) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 7 8\nextract kcore 2\n");
  const auto& g = in.current().graph();
  for (graphct::vid v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), 2);
  }
}

TEST(InterpreterTest, BfsCommand) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nbfs 0 2\n");
  EXPECT_NE(out.str().find("reached"), std::string::npos);
}

TEST(InterpreterTest, WriteFormats) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const std::string bin = temp_path("gct_interp_w.bin");
  const std::string dim = temp_path("gct_interp_w.dimacs");
  in.run("generate rmat 5 4\nwrite binary " + bin + "\nwrite dimacs " + dim + "\n");
  EXPECT_EQ(graphct::read_binary(bin), in.current().graph());
  std::remove(bin.c_str());
  std::remove(dim.c_str());
}

TEST(InterpreterTest, EchoPassesThrough) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("echo hello analyst world\n");
  EXPECT_NE(out.str().find("hello analyst world"), std::string::npos);
}

TEST(InterpreterTest, PaperScriptEndToEnd) {
  // The paper's §IV-B example, with a generated stand-in for patents.txt.
  const std::string dimacs = temp_path("gct_patents.dimacs");
  const std::string comp1 = temp_path("gct_comp1.bin");
  const std::string k1 = temp_path("gct_k1.txt");
  const std::string k2 = temp_path("gct_k2.txt");
  {
    std::ostringstream gen_out;
    Interpreter gen(gen_out, fast_opts());
    gen.run("generate rmat 7 2\nwrite dimacs " + dimacs + "\n");
  }
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("read dimacs " + dimacs +
         "\n"
         "print diameter 10\n"
         "save graph\n"
         "extract component 1 => " + comp1 +
         "\n"
         "print degrees\n"
         "kcentrality 1 32 => " + k1 +
         "\n"
         "kcentrality 2 32 => " + k2 +
         "\n"
         "restore graph\n"
         "extract component 2\n"
         "print degrees\n");
  EXPECT_TRUE(std::filesystem::exists(comp1));
  EXPECT_TRUE(std::filesystem::exists(k1));
  EXPECT_TRUE(std::filesystem::exists(k2));
  for (const auto& p : {dimacs, comp1, k1, k2}) std::remove(p.c_str());
}

TEST(InterpreterTest, RunFileMissingThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run_file("/nonexistent/script.gct"), graphct::Error);
}

TEST(InterpreterTest, ReadTweetsBuildsMentionGraph) {
  // Write a tiny tweet stream, then script the whole §III workflow.
  const std::string tsv = temp_path("gct_interp_tweets.tsv");
  {
    std::ofstream f(tsv);
    f << "1\t100\talice\thello @bob\n"
         "2\t110\tbob\t@alice hi back\n"
         "3\t120\tcarol\tRT @hub news\n";
  }
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("read tweets " + tsv + "\nprint graph\nprint components\n");
  const std::string s = out.str();
  // Directed interactions: alice->bob, bob->alice, carol->hub.
  EXPECT_NE(s.find("3 unique interactions"), std::string::npos);
  EXPECT_NE(s.find("4 vertices"), std::string::npos);
  EXPECT_NE(s.find("components: 2"), std::string::npos);
  std::remove(tsv.c_str());
}

TEST(InterpreterTest, PageRankClosenessCommunities) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 7 4\npagerank\ncloseness 16\ncommunities\n");
  const std::string s = out.str();
  EXPECT_NE(s.find("pagerank:"), std::string::npos);
  EXPECT_NE(s.find("closeness:"), std::string::npos);
  EXPECT_NE(s.find("modularity"), std::string::npos);
}

TEST(InterpreterTest, PageRankScoresToFile) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const std::string path = temp_path("gct_interp_pr.txt");
  in.run("generate rmat 6 4\npagerank => " + path + "\n");
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::int64_t lines = 0;
  std::string line;
  while (std::getline(f, line)) ++lines;
  EXPECT_EQ(lines, in.current().graph().num_vertices());
  std::remove(path.c_str());
}

TEST(InterpreterLoopTest, RepeatRunsBodyNTimes) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("repeat 3\necho tick\nend\n");
  std::size_t count = 0;
  for (std::size_t p = out.str().find("tick"); p != std::string::npos;
       p = out.str().find("tick", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(InterpreterLoopTest, RepeatZeroSkipsBody) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("repeat 0\necho never\nend\necho after\n");
  EXPECT_EQ(out.str().find("never"), std::string::npos);
  EXPECT_NE(out.str().find("after"), std::string::npos);
}

TEST(InterpreterLoopTest, NestedRepeat) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("repeat 2\nrepeat 3\necho x\nend\nend\n");
  std::size_t count = 0;
  for (std::size_t p = out.str().find('x'); p != std::string::npos;
       p = out.str().find('x', p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 6u);
}

TEST(InterpreterLoopTest, RepeatDrivesKernels) {
  // The analyst use case: re-estimate a sampled kernel several times.
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 5 4\nrepeat 3\nprint diameter 50\nend\n");
  std::size_t count = 0;
  for (std::size_t p = out.str().find("diameter estimate");
       p != std::string::npos;
       p = out.str().find("diameter estimate", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(InterpreterLoopTest, UnmatchedRepeatThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("repeat 2\necho x\n"), graphct::Error);
}

TEST(InterpreterLoopTest, DanglingEndThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("echo x\nend\n"), graphct::Error);
}

TEST(InterpreterLoopTest, NegativeCountThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("repeat -1\necho x\nend\n"), graphct::Error);
}

TEST(InterpreterTest, ThreadsCommandPinsOpenMp) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("threads 2\n");
  EXPECT_NE(out.str().find("threads set to 2"), std::string::npos);
  EXPECT_EQ(in.requested_threads(), 2);
  EXPECT_EQ(graphct::num_threads(), 2);
  in.run("threads 0\n");  // back to the hardware default
  EXPECT_EQ(in.requested_threads(), 0);
  EXPECT_GE(graphct::num_threads(), 1);
}

// Counts outside [0, kMaxThreads] are rejected before any OpenMP call, and
// the int64 is checked before it is narrowed: 2^32 + 1 once ran as 1
// thread.
TEST(InterpreterTest, ThreadsOutOfRangeThrowsAndKeepsTheCount) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  const int requested = in.requested_threads();
  const int threads = graphct::num_threads();
  for (const char* n : {"-3", "257", "4294967297"}) {
    EXPECT_THROW(in.run(std::string("threads ") + n + "\n"), graphct::Error)
        << n;
    EXPECT_EQ(in.requested_threads(), requested) << n;
    EXPECT_EQ(graphct::num_threads(), threads) << n;
  }
}

TEST(InterpreterTest, LoadAndUseGraphViaProvider) {
  const std::string path = temp_path("gct_interp_prov.dimacs");
  graphct::write_dimacs(graphct::path_graph(12), path);
  graphct::server::GraphRegistry registry;
  InterpreterOptions o = fast_opts();
  o.provider = &registry;

  std::ostringstream out;
  Interpreter in(out, o);
  in.run("load graph twelve " + path + "\n");
  EXPECT_NE(out.str().find("loaded graph 'twelve'"), std::string::npos);
  EXPECT_EQ(in.current_graph_key(), "graph:twelve");
  EXPECT_EQ(in.current().graph().num_vertices(), 12);

  // A second interpreter resolves the resident graph by name — same object.
  std::ostringstream out2;
  Interpreter other(out2, o);
  other.run("use graph twelve\n");
  EXPECT_EQ(&other.current(), &in.current());
  std::remove(path.c_str());
}

TEST(InterpreterTest, UseUnknownGraphThrows) {
  graphct::server::GraphRegistry registry;
  InterpreterOptions o = fast_opts();
  o.provider = &registry;
  std::ostringstream out;
  Interpreter in(out, o);
  EXPECT_THROW(in.run("use graph nope\n"), graphct::Error);
}

TEST(InterpreterTest, LoadGraphWithoutProviderThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("load graph g /tmp/x.dimacs\n"), graphct::Error);
}

TEST(InterpreterTest, ExtractNeverServesStaleKernelResults) {
  // Regression for the cache-invalidation satellite: kernels computed for
  // the pre-surgery graph must not survive `extract`.
  const std::string el = temp_path("gct_interp_stale.el");
  {
    std::ofstream f(el);
    f << "0 1\n1 2\n2 3\n8 9\n";  // components of size 4 and 2
  }
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("read edgelist " + el + "\n");
  EXPECT_EQ(in.current().diameter().longest_distance, 3);
  EXPECT_EQ(in.current().components_stats().num_components, 6);  // 4 singletons
  in.run("extract component 2\n");
  EXPECT_EQ(in.current().graph().num_vertices(), 2);
  EXPECT_EQ(in.current().diameter().longest_distance, 1);  // recomputed
  EXPECT_EQ(in.current().components_stats().num_components, 1);
  std::remove(el.c_str());
}

TEST(InterpreterTest, ExtractOnSharedGraphLeavesRegistryUntouched) {
  // Surgery on a provider-shared graph must rebind the session to a private
  // copy instead of mutating the toolkit other sessions share.
  const std::string path = temp_path("gct_interp_shared.dimacs");
  graphct::write_dimacs(graphct::star_of_cliques(3, 5), path);
  graphct::server::GraphRegistry registry;
  InterpreterOptions o = fast_opts();
  o.provider = &registry;

  std::ostringstream out;
  Interpreter in(out, o);
  in.run("load graph shared " + path + "\n");
  const auto resident = registry.get_graph("shared");
  const auto n = resident->graph().num_vertices();

  in.run("extract kcore 4\n");  // drops the degree-3 hub
  EXPECT_LT(in.current().graph().num_vertices(), n);
  EXPECT_EQ(in.current_graph_key(), "");  // now session-private
  EXPECT_EQ(resident->graph().num_vertices(), n);
  EXPECT_EQ(registry.get_graph("shared").get(), resident.get());
  std::remove(path.c_str());
}

TEST(InterpreterTest, TimingsOptionPrintsDurations) {
  InterpreterOptions o = fast_opts();
  o.timings = true;
  std::ostringstream out;
  Interpreter in(out, o);
  in.run("generate rmat 5 2\n");
  EXPECT_NE(out.str().find("["), std::string::npos);
}

// Restores the process-wide profiling switch so these tests can't leak
// phase tables into unrelated ones.
struct ProfilingGuard {
  bool saved = obs::profiling_enabled();
  ~ProfilingGuard() { obs::set_profiling_enabled(saved); }
};

TEST(InterpreterTest, ProfileOnPrintsPhaseTables) {
  ProfilingGuard guard;
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nprofile on\nprint components\n");
  EXPECT_NE(out.str().find("profiling on"), std::string::npos);
  EXPECT_NE(out.str().find("profile components:"), std::string::npos);
  EXPECT_NE(out.str().find("cc.hook"), std::string::npos);
}

TEST(InterpreterTest, ProfileOffSuppressesPhaseTables) {
  ProfilingGuard guard;
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nprofile on\nprofile off\nprint components\n");
  EXPECT_NE(out.str().find("profiling off"), std::string::npos);
  EXPECT_EQ(out.str().find("profile components:"), std::string::npos);
}

TEST(InterpreterTest, ProfileBadArgThrows) {
  ProfilingGuard guard;
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("profile maybe\n"), Error);
}

TEST(InterpreterTest, StatsDumpsPrometheusText) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\nprint components\nstats\n");
  EXPECT_NE(out.str().find("# TYPE"), std::string::npos);
  EXPECT_NE(out.str().find("gct_kernel_runs_total{kernel=\"components\"}"),
            std::string::npos);
}

TEST(InterpreterTest, StatsJsonIsOneLine) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("stats json\n");
  const std::string s = out.str();
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 1);
  EXPECT_THROW(in.run("stats yaml\n"), Error);
}

TEST(InterpreterTest, PackAndReadPackedRoundTrip) {
  const std::string packed = temp_path("gct_interp_pack.gctp");
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 6 4\npack " + packed + " varint 4\nread packed " +
         packed + "\nprint graph\nprint components\n");
  EXPECT_NE(out.str().find("packed " + packed), std::string::npos);
  EXPECT_NE(out.str().find("packed store"), std::string::npos);
  EXPECT_NE(out.str().find("64 vertices"), std::string::npos);
  EXPECT_TRUE(in.current().store_backed());
  // Surgery decodes back to DRAM through the replace_graph() path.
  in.run("extract component 1\n");
  EXPECT_FALSE(in.current().store_backed());
  std::remove(packed.c_str());
}

TEST(InterpreterTest, PackArgumentValidation) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 5 4\n");
  EXPECT_THROW(in.run("pack /tmp/x.gctp zstd\n"), graphct::Error);
  EXPECT_THROW(in.run("pack /tmp/x.gctp varint 0\n"), graphct::Error);
}

TEST(InterpreterTest, LoadPackedViaProvider) {
  const std::string packed = temp_path("gct_interp_prov_pack.gctp");
  {
    std::ostringstream tmp;
    Interpreter packer(tmp, fast_opts());
    packer.run("generate rmat 6 4\npack " + packed + "\n");
  }
  graphct::server::GraphRegistry registry;
  InterpreterOptions o = fast_opts();
  o.provider = &registry;

  std::ostringstream out;
  Interpreter in(out, o);
  in.run("load packed shared_pack " + packed + "\n");
  EXPECT_NE(out.str().find("loaded packed graph 'shared_pack'"),
            std::string::npos);
  EXPECT_EQ(in.current_graph_key(), "graph:shared_pack");
  EXPECT_TRUE(in.current().store_backed());

  // Resident under the name: a second session resolves the same toolkit.
  std::ostringstream out2;
  Interpreter other(out2, o);
  other.run("use graph shared_pack\n");
  EXPECT_EQ(&other.current(), &in.current());

  // The plain load path refuses packed files and points at 'load packed'.
  try {
    registry.load_graph("oops", packed);
    FAIL() << "expected Error";
  } catch (const graphct::Error& e) {
    EXPECT_NE(std::string(e.what()).find("load packed"), std::string::npos);
  }
  std::remove(packed.c_str());
}

TEST(InterpreterTest, LoadPackedWithoutProviderThrows) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("load packed g /tmp/x.gctp\n"), graphct::Error);
}

TEST(InterpreterTest, ThreadsEchoesEffectiveCount) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("threads 2\n");
  EXPECT_NE(out.str().find("threads set to 2 (effective "),
            std::string::npos);
  in.run("threads 0\n");  // back to the hardware default
}

// bc, kcentrality, pagerank and closeness share one report: the ten most
// central vertices on screen, or every vertex's score in the redirect
// file. Pinned on the 10-vertex Krackhardt kite, where the ten on screen
// are every vertex, so the file must hold the same scores in vertex order.
TEST(InterpreterTest, ScoreVerbsReportTopTenOrRedirectFile) {
  const std::string el = temp_path("gct_interp_kite.el");
  const std::string file = temp_path("gct_interp_scores.txt");
  {
    std::ofstream f(el);
    f << "0 1\n0 2\n0 3\n0 5\n1 3\n1 4\n1 6\n2 3\n2 5\n3 4\n3 5\n3 6\n"
         "4 6\n5 6\n5 7\n6 7\n7 8\n8 9\n";
  }
  struct Case {
    const char* command;
    const char* top_ten;
  };
  const Case cases[] = {
      {"bc 10",
       "  vertex 7  score 28\n  vertex 5  score 16.6667\n"
       "  vertex 6  score 16.6667\n  vertex 8  score 16\n"
       "  vertex 3  score 7.33333\n  vertex 0  score 1.66667\n"
       "  vertex 1  score 1.66667\n  vertex 2  score 0\n"
       "  vertex 4  score 0\n  vertex 9  score 0\n"},
      {"kcentrality 1 10",
       "  vertex 7  score 29.4\n  vertex 5  score 26.7992\n"
       "  vertex 6  score 26.7992\n  vertex 3  score 23.2952\n"
       "  vertex 8  score 16\n  vertex 0  score 8.41032\n"
       "  vertex 1  score 8.41032\n  vertex 2  score 4.50556\n"
       "  vertex 4  score 4.50556\n  vertex 9  score -2.22045e-16\n"},
      {"pagerank",
       "  vertex 3  score 0.147148\n  vertex 5  score 0.128907\n"
       "  vertex 6  score 0.128907\n  vertex 1  score 0.10192\n"
       "  vertex 0  score 0.10192\n  vertex 7  score 0.0952483\n"
       "  vertex 8  score 0.085694\n  vertex 2  score 0.0794181\n"
       "  vertex 4  score 0.0794181\n  vertex 9  score 0.0514199\n"},
      {"closeness 10",
       "  vertex 3  score 7.08333\n  vertex 5  score 6.83333\n"
       "  vertex 6  score 6.83333\n  vertex 0  score 6.08333\n"
       "  vertex 1  score 6.08333\n  vertex 7  score 6\n"
       "  vertex 2  score 5.58333\n  vertex 4  score 5.58333\n"
       "  vertex 8  score 4.66667\n  vertex 9  score 3.41667\n"},
  };
  for (const Case& c : cases) {
    std::ostringstream out;
    Interpreter in(out, fast_opts());
    in.run("read edgelist " + el + "\n" + c.command + "\n");
    std::string screen;
    std::map<long, std::string> by_vertex;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      long v = 0;
      char score[32];
      if (std::sscanf(line.c_str(), "  vertex %ld  score %31s", &v, score) ==
          2) {
        screen += line + "\n";
        by_vertex[v] = score;
      }
    }
    EXPECT_EQ(screen, c.top_ten) << c.command;

    out.str("");
    in.run(std::string(c.command) + " => " + file + "\n");
    EXPECT_EQ(out.str().find("  vertex "), std::string::npos) << c.command;
    std::ifstream f(file);
    std::ostringstream written;
    written << f.rdbuf();
    std::string expected;
    for (const auto& [v, score] : by_vertex) {
      expected += std::to_string(v) + " " + score + "\n";
    }
    EXPECT_EQ(written.str(), expected) << c.command;
  }
  std::remove(el.c_str());
  std::remove(file.c_str());
}

TEST(InterpreterTest, PartitionInfoPrintsBlocks) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 8 4\npartition info 3\n");
  EXPECT_NE(out.str().find("block 0:"), std::string::npos);
  EXPECT_NE(out.str().find("block 2:"), std::string::npos);
  EXPECT_NE(out.str().find("edge-cut fraction"), std::string::npos);
  EXPECT_THROW(in.run("partition info 0\n"), graphct::Error);
}

TEST(InterpreterTest, WorkersRouteKernelsAndMatchSingleProcess) {
  // Same script through 2 loopback workers and single-process; the kernel
  // lines must agree verbatim modulo the "[workers=2]" marker.
  const std::string kernels = "print components\npagerank\nbfs 0 2\n";
  std::ostringstream dist_out;
  {
    Interpreter in(dist_out, fast_opts());
    in.run("generate rmat 8 4\nworkers 2\n" + kernels + "workers off\n");
  }
  std::ostringstream single_out;
  {
    Interpreter in(single_out, fast_opts());
    in.run("generate rmat 8 4\n" + kernels);
  }
  EXPECT_NE(dist_out.str().find("workers set to 2"), std::string::npos);
  EXPECT_NE(dist_out.str().find("[workers=2]"), std::string::npos);
  std::string scrubbed = dist_out.str();
  for (std::string::size_type pos;
       (pos = scrubbed.find(" [workers=2]")) != std::string::npos;) {
    scrubbed.erase(pos, 12);
  }
  // Every single-process kernel line appears verbatim in the dist run.
  std::istringstream lines(single_out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("components:", 0) == 0 ||
        line.rfind("pagerank:", 0) == 0 || line.rfind("bfs", 0) == 0) {
      EXPECT_NE(scrubbed.find(line), std::string::npos) << line;
    }
  }
}

TEST(InterpreterTest, WorkersSurviveGraphSwap) {
  // Replacing the current graph must rebind the dist substrate, not serve
  // results computed for the old graph.
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  in.run("generate rmat 7 4\nworkers 2\nprint components\n");
  in.run("generate rmat 8 4\nprint components\n");
  std::ostringstream expected;
  Interpreter ref(expected, fast_opts());
  ref.run("generate rmat 8 4\nprint components\n");
  std::istringstream lines(expected.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("components:", 0) == 0) {
      EXPECT_NE(out.str().find(line + " [workers=2]"), std::string::npos)
          << line;
    }
  }
}

TEST(InterpreterTest, WorkersArgumentValidation) {
  std::ostringstream out;
  Interpreter in(out, fast_opts());
  EXPECT_THROW(in.run("workers -1\n"), graphct::Error);
  EXPECT_THROW(in.run("workers 1000\n"), graphct::Error);
  EXPECT_THROW(in.run("workers 2 bogus\n"), graphct::Error);
  EXPECT_THROW(in.run("workers 2 threads=0\n"), graphct::Error);
  EXPECT_THROW(in.run("workers 2 threads=999\n"), graphct::Error);
  // Workers are threads of this process: there is no fork mode (a child
  // forked from a multithreaded process deadlocks in OpenMP) and no mode
  // word to name.
  EXPECT_THROW(in.run("workers 2 fork\n"), graphct::Error);
  EXPECT_THROW(in.run("workers 2 threads\n"), graphct::Error);
  in.run("workers off\n");  // valid with no substrate running
  EXPECT_NE(out.str().find("workers off"), std::string::npos);
}

TEST(InterpreterTest, WorkersRouteBcBitIdentically) {
  // `bc` through 2 two-thread workers must print the same top-vertex lines
  // as the single-process one-thread (fine plan) run — the scores are
  // bit-identical, so the formatted output agrees verbatim.
  std::ostringstream dist_out;
  {
    Interpreter in(dist_out, fast_opts());
    in.run("generate rmat 8 4\nworkers 2 threads=2\nbc 16\nworkers off\n");
  }
  std::ostringstream single_out;
  {
    Interpreter in(single_out, fast_opts());
    in.run("generate rmat 8 4\nthreads 1\nbc 16\nthreads 0\n");
  }
  EXPECT_NE(dist_out.str().find("workers set to 2 (threads mode, 2 threads "
                                "each)"),
            std::string::npos);
  EXPECT_NE(dist_out.str().find("[workers=2]"), std::string::npos);
  std::istringstream lines(single_out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  vertex", 0) == 0) {
      EXPECT_NE(dist_out.str().find(line), std::string::npos) << line;
    }
  }
}

}  // namespace
}  // namespace graphct::script
