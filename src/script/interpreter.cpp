#include "script/interpreter.hpp"

#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "algs/bfs.hpp"
#include "algs/degree.hpp"
#include "algs/kcore.hpp"
#include "algs/ranking.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "dist/partition.hpp"
#include "gen/rmat.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_edgelist.hpp"
#include "graph/builder.hpp"
#include "graph/transforms.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/packed_writer.hpp"
#include "twitter/mention_graph.hpp"
#include "twitter/tweet_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace graphct::script {

using graphct::Error;
using graphct::Toolkit;

struct Interpreter::Impl {
  std::ostream& out;
  InterpreterOptions opts;

  /// One graph-stack entry. Provider-resolved graphs carry their registry
  /// name and are shared read-only with other sessions; entries created by
  /// read/generate/save are private to this interpreter.
  struct Slot {
    std::shared_ptr<Toolkit> tk;
    std::string registry_name;  // empty => session-private

    [[nodiscard]] bool shared() const { return !registry_name.empty(); }
  };

  // Stack "memory": back() is the current graph.
  std::vector<Slot> stack;

  /// Last `threads N` request (0 = runtime default).
  int requested_threads = 0;

  /// Distributed execution context (`workers N`). The worker set and
  /// coordinator are created lazily on the first dist-dispatched kernel and
  /// rebuilt whenever the current graph changes (graph_epoch) or the
  /// substrate degrades — a failed worker never wedges the session, the
  /// next dist kernel simply gets a fresh set.
  struct DistCtx {
    int requested = 0;  ///< worker count; 0 = distribution off
    int threads = 1;    ///< OpenMP threads per worker (`threads=k`)
    std::unique_ptr<dist::LocalWorkerSet> workers;
    std::unique_ptr<dist::Coordinator> coord;
    std::int64_t bound_epoch = -1;  ///< graph_epoch the coordinator loaded
  };
  DistCtx dist_ctx;

  /// Bumped on every current-graph change (read/generate/load/use/save/
  /// restore/extract/ego) so stale dist workers are never consulted.
  std::int64_t graph_epoch = 0;

  Impl(std::ostream& o, InterpreterOptions op) : out(o), opts(std::move(op)) {}

  Toolkit& current(int line) {
    if (stack.empty()) {
      throw Error("script line " + std::to_string(line) +
                  ": no graph loaded (use 'read' or 'generate' first)");
    }
    return *stack.back().tk;
  }

  void push_private(Toolkit tk) {
    ++graph_epoch;
    stack.push_back({std::make_shared<Toolkit>(std::move(tk)), ""});
  }

  /// Make `slot` the only graph on the stack (read, generate, load, use).
  /// Callers build it first, so a load that throws keeps the session's
  /// graph.
  void switch_to(Slot slot) {
    stack.clear();
    ++graph_epoch;
    stack.push_back(std::move(slot));
  }

  void switch_to(Toolkit tk) {
    switch_to(Slot{std::make_shared<Toolkit>(std::move(tk)), ""});
  }

  /// Tear down the worker set and coordinator (mode selection survives).
  void drop_dist_workers() {
    if (dist_ctx.coord) dist_ctx.coord->shutdown();
    dist_ctx.coord.reset();
    dist_ctx.workers.reset();
    dist_ctx.bound_epoch = -1;
  }

  /// The coordinator to dispatch kernels through, or nullptr when
  /// distribution is off. Spawns/rebuilds workers as needed.
  dist::Coordinator* ensure_dist(int line) {
    if (dist_ctx.requested <= 0) return nullptr;
    current(line);  // dist kernels need a graph like any other kernel
    const bool stale = !dist_ctx.coord || dist_ctx.coord->degraded() ||
                       dist_ctx.bound_epoch != graph_epoch;
    if (stale) {
      drop_dist_workers();
      dist::LocalWorkerSetOptions wo;
      wo.num_workers = dist_ctx.requested;
      wo.threads = dist_ctx.threads;
      dist_ctx.workers = std::make_unique<dist::LocalWorkerSet>(wo);
      dist_ctx.coord = std::make_unique<dist::Coordinator>();
      dist_ctx.coord->connect(dist_ctx.workers->ports());
      dist_ctx.bound_epoch = graph_epoch;
    }
    return dist_ctx.coord.get();
  }

  /// Replace the current graph with `g` — the script's `extract`/`ego`
  /// surgery. A private, exclusively-held toolkit is mutated through
  /// Toolkit::replace_graph(), the single invalidation path that drops
  /// every cached result; a provider-shared (or otherwise aliased) toolkit
  /// is never touched — the slot is rebound to a fresh private Toolkit so
  /// other sessions keep their resident graph and caches.
  void replace_current_graph(CsrGraph g, int line) {
    GCT_ASSERT(!stack.empty());
    (void)line;
    ++graph_epoch;
    Slot& slot = stack.back();
    if (!slot.shared() && slot.tk.use_count() == 1) {
      slot.tk->replace_graph(std::move(g));
      return;
    }
    ToolkitOptions topts = opts.toolkit;
    topts.estimate_diameter_on_load = false;  // computed lazily on demand
    slot = Slot{std::make_shared<Toolkit>(std::move(g), topts), ""};
  }
};

namespace {

std::int64_t parse_i64(const std::string& s, const Command& cmd) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    GCT_CHECK(used == s.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw Error("script line " + std::to_string(cmd.line) +
                ": expected an integer, got '" + s + "'");
  }
}

double parse_f64(const std::string& s, const Command& cmd) {
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw Error("script line " + std::to_string(cmd.line) +
                ": expected a number, got '" + s + "'");
  }
}

void require_arity(const Command& cmd, std::size_t min_tokens,
                   std::size_t max_tokens) {
  if (cmd.tokens.size() < min_tokens || cmd.tokens.size() > max_tokens) {
    throw Error("script line " + std::to_string(cmd.line) + ": command '" +
                cmd.tokens.front() + "' has wrong number of arguments");
  }
}

template <typename T>
void write_per_vertex(const std::string& path, const std::vector<T>& values) {
  std::ofstream f(path);
  GCT_CHECK(f.good(), "cannot open output file: " + path);
  for (std::size_t v = 0; v < values.size(); ++v) {
    f << v << ' ' << values[v] << '\n';
  }
  GCT_CHECK(f.good(), "write failed: " + path);
}

/// True for the verbs whose screen output reads only ResultCache-keyed
/// results of the current graph and formats them in O(n) at most. Every
/// value such a verb reads without `=>` must come through the cache: the
/// HitsOnly scope around run_cached_read is what keeps kernels off the
/// server's event loop.
bool is_cached_read(const Command& cmd) {
  const std::string& verb = cmd.tokens[0];
  if (verb == "print") {
    if (cmd.tokens.size() < 2) return false;
    const std::string& what = cmd.tokens[1];
    return what == "degrees" || what == "components" || what == "kcores" ||
           what == "clustering";
  }
  return verb == "bc" || verb == "kcentrality" || verb == "pagerank" ||
         verb == "closeness" || verb == "communities";
}

/// A score verb's report: every vertex's score to the redirect file, or
/// else the ten most central vertices on screen.
void report_scores(std::ostream& out, const Command& cmd,
                   const std::vector<double>& score) {
  if (cmd.has_redirect()) {
    write_per_vertex(cmd.redirect, score);
    return;
  }
  for (const auto v : graphct::top_k(score, 10)) {
    out << "  vertex " << v << "  score "
        << score[static_cast<std::size_t>(v)] << "\n";
  }
}

}  // namespace

Interpreter::Interpreter(std::ostream& out, InterpreterOptions opts)
    : impl_(std::make_unique<Impl>(out, std::move(opts))) {}

Interpreter::~Interpreter() = default;

std::size_t Interpreter::stack_depth() const { return impl_->stack.size(); }

Toolkit& Interpreter::current() { return impl_->current(0); }

Toolkit* Interpreter::current_or_null() {
  return impl_->stack.empty() ? nullptr : impl_->stack.back().tk.get();
}

std::string Interpreter::current_graph_key() const {
  if (impl_->stack.empty() || !impl_->stack.back().shared()) return "";
  return "graph:" + impl_->stack.back().registry_name;
}

int Interpreter::requested_threads() const { return impl_->requested_threads; }

void Interpreter::run(std::string_view script_text) {
  const std::vector<Command> cmds = parse_script(script_text);

  // Script-level control flow: `repeat <n> ... end`, nestable. The original
  // GraphCT had "no loop constructs or feedback mechanisms"; this is the
  // future-work extension, kept out of execute() so single commands stay
  // loop-free.
  struct Loop {
    std::size_t body_start;
    std::int64_t remaining;
  };
  std::vector<Loop> loops;

  auto matching_end = [&](std::size_t open) {
    std::int64_t depth = 1;
    for (std::size_t j = open + 1; j < cmds.size(); ++j) {
      if (cmds[j].tokens[0] == "repeat") ++depth;
      if (cmds[j].tokens[0] == "end" && --depth == 0) return j;
    }
    throw Error("script line " + std::to_string(cmds[open].line) +
                ": 'repeat' without matching 'end'");
  };

  std::size_t i = 0;
  while (i < cmds.size()) {
    const Command& cmd = cmds[i];
    if (cmd.tokens[0] == "repeat") {
      GCT_CHECK(cmd.tokens.size() == 2,
                "script line " + std::to_string(cmd.line) +
                    ": 'repeat' takes exactly one count");
      const std::int64_t count = parse_i64(cmd.tokens[1], cmd);
      GCT_CHECK(count >= 0, "script line " + std::to_string(cmd.line) +
                                ": repeat count must be >= 0");
      if (count == 0) {
        i = matching_end(i) + 1;  // skip the body entirely
      } else {
        matching_end(i);  // validate pairing up front
        loops.push_back({i + 1, count});
        ++i;
      }
      continue;
    }
    if (cmd.tokens[0] == "end") {
      GCT_CHECK(!loops.empty(), "script line " + std::to_string(cmd.line) +
                                    ": 'end' without 'repeat'");
      if (--loops.back().remaining > 0) {
        i = loops.back().body_start;
      } else {
        loops.pop_back();
        ++i;
      }
      continue;
    }
    execute(cmd);
    ++i;
  }
  GCT_CHECK(loops.empty(), "script: 'repeat' without matching 'end'");
}

bool Interpreter::run_cached_read(std::string_view line) {
  if (impl_->stack.empty() || impl_->dist_ctx.requested > 0) return false;
  const std::vector<Command> cmds = parse_script(line);
  if (cmds.size() != 1 || cmds[0].has_redirect() || !is_cached_read(cmds[0])) {
    return false;
  }
  execute(cmds[0]);
  return true;
}

void Interpreter::run_file(const std::string& path) {
  std::ifstream in(path);
  GCT_CHECK(in.good(), "cannot open script file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  run(ss.str());
}

void Interpreter::execute(const Command& cmd) {
  if (cmd.tokens.empty()) return;
  auto& im = *impl_;
  std::ostream& out = im.out;
  const std::string& verb = cmd.tokens[0];
  Timer timer;

  if (verb == "read") {
    require_arity(cmd, 3, 3);
    const std::string& fmt = cmd.tokens[1];
    const std::string& path = cmd.tokens[2];
    if (fmt == "dimacs") {
      im.switch_to(Toolkit::load_dimacs(path, im.opts.toolkit));
    } else if (fmt == "binary") {
      im.switch_to(Toolkit::load_binary(path, im.opts.toolkit));
    } else if (fmt == "edgelist") {
      im.switch_to(
          Toolkit(graphct::build_csr(graphct::read_edge_list(path)),
                  im.opts.toolkit));
    } else if (fmt == "packed") {
      // Open a block-compressed packed file (see `pack`) as a session-
      // private store-backed graph; adjacency stays on disk and decodes
      // per block through the mmap store.
      im.switch_to(Toolkit::load_packed(path, im.opts.toolkit));
    } else if (fmt == "tweets") {
      // Build the undirected user-to-user mention graph from a TSV tweet
      // stream — the §III-B ingest, scriptable.
      const auto tweets = graphct::twitter::read_tweets(path);
      graphct::twitter::MentionGraphBuilder builder;
      for (const auto& t : tweets) builder.add(t);
      const auto mg = std::move(builder).build();
      im.switch_to(Toolkit(mg.undirected(), im.opts.toolkit));
      out << "mention graph: " << mg.num_users << " users, "
          << mg.unique_interactions << " unique interactions, "
          << mg.tweets_with_responses << " tweets with responses\n";
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": unknown read format '" + fmt + "'");
    }
    const auto g = im.stack.back().tk->view();
    out << "read " << fmt << " " << path << ": " << g.num_vertices()
        << " vertices, " << g.num_edges() << " edges\n";
  } else if (verb == "generate") {
    require_arity(cmd, 4, 5);
    GCT_CHECK(cmd.tokens[1] == "rmat",
              "script line " + std::to_string(cmd.line) +
                  ": only 'generate rmat' is supported");
    graphct::RmatOptions r;
    r.scale = parse_i64(cmd.tokens[2], cmd);
    r.edge_factor = parse_i64(cmd.tokens[3], cmd);
    if (cmd.tokens.size() > 4) {
      r.seed = static_cast<std::uint64_t>(parse_i64(cmd.tokens[4], cmd));
    }
    im.switch_to(Toolkit(graphct::rmat_graph(r), im.opts.toolkit));
    const auto& g = im.stack.back().tk->graph();
    out << "generated rmat scale " << r.scale << ": " << g.num_vertices()
        << " vertices, " << g.num_edges() << " edges\n";
  } else if (verb == "load") {
    // load graph <name> <path>: load once into the shared registry and make
    // it the current graph; a taken name resolves to the resident graph.
    // load packed <name> <path>: same, but opening a packed file as an
    // mmap-backed store (the graph stays on disk).
    require_arity(cmd, 4, 4);
    const std::string& kind = cmd.tokens[1];
    GCT_CHECK(kind == "graph" || kind == "packed",
              "script line " + std::to_string(cmd.line) +
                  ": expected 'load graph <name> <path>' or "
                  "'load packed <name> <path>'");
    GCT_CHECK(im.opts.provider != nullptr,
              "script line " + std::to_string(cmd.line) + ": 'load " + kind +
                  "' needs a graph registry (server mode)");
    const std::string& name = cmd.tokens[2];
    auto tk = kind == "packed"
                  ? im.opts.provider->load_packed_graph(name, cmd.tokens[3])
                  : im.opts.provider->load_graph(name, cmd.tokens[3]);
    im.switch_to({tk, name});
    const auto g = tk->view();
    out << "loaded " << (kind == "packed" ? "packed graph '" : "graph '")
        << name << "': " << g.num_vertices() << " vertices, " << g.num_edges()
        << " edges\n";
  } else if (verb == "use") {
    // use graph <name>: switch to a registry-resident graph (shared
    // read-only with every other session using it).
    require_arity(cmd, 3, 3);
    GCT_CHECK(cmd.tokens[1] == "graph",
              "script line " + std::to_string(cmd.line) +
                  ": expected 'use graph <name>'");
    GCT_CHECK(im.opts.provider != nullptr,
              "script line " + std::to_string(cmd.line) +
                  ": 'use graph' needs a graph registry (server mode)");
    const std::string& name = cmd.tokens[2];
    auto tk = im.opts.provider->get_graph(name);
    if (!tk) {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": no graph named '" + name + "' (see 'load graph')");
    }
    im.switch_to({tk, name});
    const auto g = tk->view();
    out << "using graph '" << name << "': " << g.num_vertices()
        << " vertices, " << g.num_edges() << " edges\n";
  } else if (verb == "threads") {
    require_arity(cmd, 2, 2);
    const std::int64_t n = parse_i64(cmd.tokens[1], cmd);
    graphct::set_num_threads(n);  // throws outside [0, kMaxThreads]
    im.requested_threads = static_cast<int>(n);
    // Echo what the runtime will actually deliver, not the request — the
    // two differ when the request exceeds the machine or a thread limit.
    const int effective = graphct::effective_num_threads();
    out << "threads set to "
        << (n == 0 ? "default" : std::to_string(n)) << " (effective "
        << effective << ")\n";
  } else if (verb == "workers") {
    // workers <n> [threads=k] | workers off: route components/pagerank/
    // bfs/bc through n loopback workers, each a thread of this process.
    // threads=k gives every worker its own k-thread OpenMP team for
    // block-local sweeps (default 1 — serial, so a one-core host is never
    // oversubscribed). The workers spawn lazily on the first distributed
    // kernel. There is no fork mode here: by then this process runs other
    // threads (job workers, OpenMP teams), and a child forked from it
    // deadlocks in its first OpenMP team (dist/local_worker_set.hpp).
    require_arity(cmd, 2, 3);
    const std::string& arg = cmd.tokens[1];
    if (arg == "off") {
      require_arity(cmd, 2, 2);
      im.drop_dist_workers();
      im.dist_ctx.requested = 0;
      out << "workers off\n";
    } else {
      const std::int64_t n = parse_i64(arg, cmd);
      GCT_CHECK(n >= 0 && n <= 256,
                "script line " + std::to_string(cmd.line) +
                    ": worker count must be in [0, 256] (0 = off)");
      int threads = 1;
      if (cmd.tokens.size() == 3) {
        const std::string& opt = cmd.tokens[2];
        GCT_CHECK(opt.rfind("threads=", 0) == 0,
                  "script line " + std::to_string(cmd.line) +
                      ": expected 'threads=<k>' after the worker count (got '" +
                      opt + "')");
        const std::int64_t k =
            parse_i64(opt.substr(std::string("threads=").size()), cmd);
        GCT_CHECK(k >= 1 && k <= graphct::kMaxThreads,
                  "script line " + std::to_string(cmd.line) +
                      ": worker threads must be in [1, 256]");
        threads = static_cast<int>(k);
      }
      if (n != im.dist_ctx.requested || threads != im.dist_ctx.threads) {
        im.drop_dist_workers();
      }
      im.dist_ctx.requested = static_cast<int>(n);
      im.dist_ctx.threads = threads;
      if (n == 0) {
        out << "workers off\n";
      } else {
        out << "workers set to " << n << " (threads mode, " << threads
            << (threads == 1 ? " thread" : " threads") << " each)\n";
      }
    }
  } else if (verb == "partition") {
    // partition info <N>: show the 1-D edge-balanced blocks `workers N`
    // would use — per-block vertex/entry counts, edge-cut fraction, and
    // imbalance — without spawning anything.
    require_arity(cmd, 3, 3);
    GCT_CHECK(cmd.tokens[1] == "info",
              "script line " + std::to_string(cmd.line) +
                  ": expected 'partition info <num blocks>'");
    const std::int64_t n = parse_i64(cmd.tokens[2], cmd);
    GCT_CHECK(n >= 1 && n <= 4096,
              "script line " + std::to_string(cmd.line) +
                  ": block count must be in [1, 4096]");
    Toolkit& tk = im.current(cmd.line);
    graphct::CsrGraph decoded;
    const dist::Partition p =
        dist::partition_graph(tk.view().as_csr_or(decoded),
                              static_cast<int>(n));
    out << "partition into " << p.num_blocks() << " blocks ("
        << p.num_vertices << " vertices, " << p.total_entries
        << " adjacency entries)\n";
    for (int b = 0; b < p.num_blocks(); ++b) {
      const auto& blk = p.blocks[static_cast<std::size_t>(b)];
      out << "  block " << b << ": vertices [" << blk.begin << ", "
          << blk.end << ") entries " << blk.entries << " cut "
          << blk.cut_entries << "\n";
    }
    out << "edge-cut fraction " << p.edge_cut_fraction() << ", imbalance "
        << p.imbalance() << "\n";
  } else if (verb == "profile") {
    // profile on|off: toggle per-kernel phase profiling. While on, every
    // command that runs kernels prints a phase-breakdown table per kernel.
    require_arity(cmd, 2, 2);
    const std::string& arg = cmd.tokens[1];
    if (arg == "on") {
      obs::set_profiling_enabled(true);
    } else if (arg == "off") {
      obs::set_profiling_enabled(false);
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": expected 'profile on' or 'profile off'");
    }
    out << "profiling " << arg << "\n";
  } else if (verb == "stats") {
    // stats [prom|json]: dump the process-wide metrics registry (kernel
    // runs and latencies, cache hits/misses, job queue, thread gauges).
    require_arity(cmd, 1, 2);
    const auto snap = obs::registry().snapshot();
    if (cmd.tokens.size() > 1 && cmd.tokens[1] == "json") {
      out << snap.to_json() << "\n";
    } else if (cmd.tokens.size() == 1 || cmd.tokens[1] == "prom") {
      out << snap.to_prometheus();
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": expected 'stats', 'stats prom', or 'stats json'");
    }
  } else if (verb == "print") {
    require_arity(cmd, 2, 3);
    Toolkit& tk = im.current(cmd.line);
    const std::string& what = cmd.tokens[1];
    if (what == "diameter") {
      if (cmd.tokens.size() > 2) {
        // Argument = percentage of vertices to sample (paper example:
        // "print diameter 10" estimates from 10% of the vertices).
        const double pct = parse_f64(cmd.tokens[2], cmd);
        GCT_CHECK(pct > 0.0 && pct <= 100.0,
                  "script line " + std::to_string(cmd.line) +
                      ": diameter sample percentage must be in (0,100]");
        const auto n = tk.view().num_vertices();
        const auto samples = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(static_cast<double>(n) * pct / 100.0));
        const auto& d = tk.estimate_diameter(samples, 4);
        out << "diameter estimate: " << d.estimate << " (longest BFS distance "
            << d.longest_distance << ", " << d.samples_used << " samples)\n";
      } else {
        const auto& d = tk.diameter();
        out << "diameter estimate: " << d.estimate << " (longest BFS distance "
            << d.longest_distance << ", " << d.samples_used << " samples)\n";
      }
    } else if (what == "degrees") {
      const auto& s = tk.degree_stats();
      out << "degrees: n=" << s.count << " mean=" << s.mean
          << " variance=" << s.variance << " max=" << s.max << "\n";
      if (cmd.has_redirect()) {
        write_per_vertex(cmd.redirect, graphct::degrees(tk.view()));
      }
    } else if (what == "components") {
      if (dist::Coordinator* coord = im.ensure_dist(cmd.line)) {
        const auto& labels = tk.components_dist(*coord);
        const auto stats = graphct::component_stats(
            std::span<const graphct::vid>(labels.data(), labels.size()));
        out << "components: " << stats.num_components << " (largest "
            << stats.largest_size() << ") [workers="
            << coord->num_workers() << "]\n";
        if (cmd.has_redirect()) {
          write_per_vertex(cmd.redirect, labels);
        }
      } else {
        const auto& stats = tk.components_stats();
        out << "components: " << stats.num_components << " (largest "
            << stats.largest_size() << ")\n";
        if (cmd.has_redirect()) {
          write_per_vertex(cmd.redirect, tk.components());
        }
      }
    } else if (what == "clustering") {
      const auto& c = tk.clustering();
      out << "clustering: triangles=" << c.total_triangles
          << " global=" << c.global_clustering
          << " mean_local=" << c.mean_local_clustering << "\n";
      if (cmd.has_redirect()) {
        write_per_vertex(cmd.redirect, c.coefficient);
      }
    } else if (what == "kcores") {
      const auto& cores = tk.core_numbers();
      out << "kcores: degeneracy=" << graphct::degeneracy(cores) << "\n";
      if (cmd.has_redirect()) {
        write_per_vertex(cmd.redirect, cores);
      }
    } else if (what == "graph") {
      const auto g = tk.view();
      out << "graph: " << g.num_vertices() << " vertices, " << g.num_edges()
          << " edges, " << g.num_self_loops() << " self-loops, "
          << (g.directed() ? "directed" : "undirected");
      if (tk.store_backed()) {
        out << ", packed store " << tk.store()->path();
      }
      out << "\n";
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": unknown print target '" + what + "'");
    }
  } else if (verb == "save") {
    require_arity(cmd, 2, 2);
    GCT_CHECK(cmd.tokens[1] == "graph",
              "script line " + std::to_string(cmd.line) +
                  ": expected 'save graph'");
    Toolkit& tk = im.current(cmd.line);
    // Duplicate the current graph on the stack; subsequent extracts replace
    // the copy and 'restore graph' pops back to the original.
    graphct::ToolkitOptions topts = im.opts.toolkit;
    topts.estimate_diameter_on_load = false;  // identical graph; skip rework
    if (tk.store_backed()) {
      // The store is immutable on disk; the duplicate shares it and only
      // the result caches are per-Toolkit.
      im.push_private(Toolkit(tk.shared_store(), topts));
    } else {
      im.push_private(Toolkit(tk.graph(), topts));
    }
    out << "graph saved (stack depth " << im.stack.size() << ")\n";
  } else if (verb == "restore") {
    require_arity(cmd, 2, 2);
    GCT_CHECK(cmd.tokens[1] == "graph",
              "script line " + std::to_string(cmd.line) +
                  ": expected 'restore graph'");
    GCT_CHECK(im.stack.size() >= 2, "script line " + std::to_string(cmd.line) +
                                        ": nothing to restore");
    // Popping destroys the (possibly extracted-over) top-of-stack toolkit
    // and its caches wholesale; the restored toolkit's caches were computed
    // for exactly the graph it still holds, so nothing stale survives.
    im.stack.pop_back();
    ++im.graph_epoch;
    out << "graph restored (stack depth " << im.stack.size() << ")\n";
  } else if (verb == "extract") {
    require_arity(cmd, 3, 3);
    Toolkit& tk = im.current(cmd.line);
    const std::string& what = cmd.tokens[1];
    if (what == "component") {
      const std::int64_t idx = parse_i64(cmd.tokens[2], cmd);
      GCT_CHECK(idx >= 1, "script line " + std::to_string(cmd.line) +
                              ": component index is 1-based");
      graphct::CsrGraph sub = tk.component_graph(idx - 1);
      if (cmd.has_redirect()) {
        graphct::write_binary(sub, cmd.redirect);
      }
      out << "extracted component " << idx << ": " << sub.num_vertices()
          << " vertices, " << sub.num_edges() << " edges\n";
      im.replace_current_graph(std::move(sub), cmd.line);
    } else if (what == "kcore") {
      const std::int64_t k = parse_i64(cmd.tokens[2], cmd);
      graphct::CsrGraph decoded;
      graphct::Subgraph sub =
          graphct::kcore_subgraph(tk.view().as_csr_or(decoded), k);
      if (cmd.has_redirect()) {
        graphct::write_binary(sub.graph, cmd.redirect);
      }
      out << "extracted " << k << "-core: " << sub.graph.num_vertices()
          << " vertices, " << sub.graph.num_edges() << " edges\n";
      im.replace_current_graph(std::move(sub.graph), cmd.line);
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": unknown extract target '" + what + "'");
    }
  } else if (verb == "bc") {
    // bc <num sources> [budget MiB]
    // Plain Brandes betweenness (kcentrality's k=0 fast path) with the
    // score-memory budget exposed; the kernel plans from it and the thread
    // count.
    require_arity(cmd, 2, 3);
    Toolkit& tk = im.current(cmd.line);
    graphct::BetweennessOptions bo;
    bo.num_sources = parse_i64(cmd.tokens[1], cmd);
    if (cmd.tokens.size() >= 3) {
      // Checked before the shift to bytes: 2^44 MiB would wrap to 0.
      const std::int64_t mib = graphct::parse_int_in_range(
          "script line " + std::to_string(cmd.line) + ": bc budget (MiB)",
          cmd.tokens[2], 1, std::int64_t{1} << 43);
      bo.score_memory_budget_bytes = static_cast<std::uint64_t>(mib) << 20;
    }
    // `workers N` routes betweenness through the dist substrate (scores
    // are defined bit-identical to the single-process fine plan).
    dist::Coordinator* coord = im.ensure_dist(cmd.line);
    const auto& res =
        coord ? tk.betweenness_dist(*coord, bo) : tk.betweenness(bo);
    out << "bc sources=" << res.sources_used << " team=" << res.plan.team
        << ": done in " << graphct::format_duration(res.seconds);
    if (coord) out << " [workers=" << coord->num_workers() << "]";
    out << "\n";
    report_scores(out, cmd, res.score);
  } else if (verb == "kcentrality") {
    require_arity(cmd, 3, 3);
    Toolkit& tk = im.current(cmd.line);
    graphct::KBetweennessOptions ko;
    ko.k = parse_i64(cmd.tokens[1], cmd);
    ko.num_sources = parse_i64(cmd.tokens[2], cmd);
    const auto& res = tk.k_betweenness(ko);
    out << "kcentrality k=" << ko.k << " sources=" << res.sources_used
        << ": done in " << graphct::format_duration(res.seconds) << "\n";
    report_scores(out, cmd, res.score);
  } else if (verb == "pagerank") {
    require_arity(cmd, 1, 1);
    Toolkit& tk = im.current(cmd.line);
    dist::Coordinator* coord = im.ensure_dist(cmd.line);
    const auto& res = coord ? tk.pagerank_dist(*coord) : tk.pagerank();
    out << "pagerank: " << res.iterations << " iterations, residual "
        << res.residual << (res.converged ? "" : " (not converged)");
    if (coord) out << " [workers=" << coord->num_workers() << "]";
    out << "\n";
    report_scores(out, cmd, res.score);
  } else if (verb == "closeness") {
    require_arity(cmd, 2, 2);
    Toolkit& tk = im.current(cmd.line);
    graphct::ClosenessOptions co;
    co.num_sources = parse_i64(cmd.tokens[1], cmd);
    const auto& res = tk.closeness(co);
    out << "closeness: " << res.sources_used << " sources in "
        << graphct::format_duration(res.seconds) << "\n";
    report_scores(out, cmd, res.score);
  } else if (verb == "communities") {
    require_arity(cmd, 1, 1);
    Toolkit& tk = im.current(cmd.line);
    const auto& c = tk.communities();
    out << "communities: " << c.num_communities << " (largest "
        << (c.sizes.empty() ? 0 : c.sizes.front().second) << "), modularity "
        << tk.community_modularity() << "\n";
    if (cmd.has_redirect()) {
      write_per_vertex(cmd.redirect, c.labels);
    }
  } else if (verb == "bfs") {
    require_arity(cmd, 3, 3);
    Toolkit& tk = im.current(cmd.line);
    graphct::BfsOptions bo;
    const graphct::vid src = parse_i64(cmd.tokens[1], cmd);
    bo.max_depth = parse_i64(cmd.tokens[2], cmd);
    if (dist::Coordinator* coord = im.ensure_dist(cmd.line)) {
      const auto& d = tk.bfs_distances_dist(*coord, src, bo.max_depth);
      std::int64_t reached = 0;
      for (const auto dv : d) reached += dv != graphct::kNoVertex ? 1 : 0;
      out << "bfs from " << src << " depth " << bo.max_depth << ": reached "
          << reached << " vertices [workers=" << coord->num_workers()
          << "]\n";
      if (cmd.has_redirect()) {
        write_per_vertex(cmd.redirect, d);
      }
    } else {
      const auto r = graphct::bfs(tk.view(), src, bo);
      out << "bfs from " << src << " depth " << bo.max_depth << ": reached "
          << r.num_reached() << " vertices\n";
      if (cmd.has_redirect()) {
        write_per_vertex(cmd.redirect, r.distance);
      }
    }
  } else if (verb == "ego") {
    // Analyst drill-down: replace the current graph with a vertex's
    // neighborhood (use after 'kcentrality' surfaces an actor of interest).
    require_arity(cmd, 3, 3);
    Toolkit& tk = im.current(cmd.line);
    const graphct::vid center = parse_i64(cmd.tokens[1], cmd);
    const graphct::vid radius = parse_i64(cmd.tokens[2], cmd);
    graphct::CsrGraph decoded;
    graphct::Subgraph sub =
        graphct::ego_network(tk.view().as_csr_or(decoded), center, radius);
    if (cmd.has_redirect()) {
      graphct::write_binary(sub.graph, cmd.redirect);
    }
    out << "ego network of " << center << " radius " << radius << ": "
        << sub.graph.num_vertices() << " vertices, "
        << sub.graph.num_edges() << " edges\n";
    im.replace_current_graph(std::move(sub.graph), cmd.line);
  } else if (verb == "write") {
    require_arity(cmd, 3, 3);
    Toolkit& tk = im.current(cmd.line);
    const std::string& fmt = cmd.tokens[1];
    // Writers need a DRAM CSR; a store-backed graph decodes once here, so
    // `read packed` + `write binary` is the unpack path.
    graphct::CsrGraph decoded;
    const graphct::CsrGraph* g = &tk.view().as_csr_or(decoded);
    if (fmt == "binary") {
      graphct::write_binary(*g, cmd.tokens[2]);
    } else if (fmt == "dimacs") {
      graphct::write_dimacs(*g, cmd.tokens[2]);
    } else {
      throw Error("script line " + std::to_string(cmd.line) +
                  ": unknown write format '" + fmt + "'");
    }
    out << "wrote " << fmt << " " << cmd.tokens[2] << "\n";
  } else if (verb == "pack") {
    // pack <path> [none|varint] [block-KiB]: write the current graph in the
    // block-compressed packed format (read back with 'read packed').
    require_arity(cmd, 2, 4);
    Toolkit& tk = im.current(cmd.line);
    storage::PackOptions po;
    if (cmd.tokens.size() >= 3) {
      const std::string& codec = cmd.tokens[2];
      if (codec == "none") {
        po.codec = storage::Codec::kNone;
      } else if (codec == "varint") {
        po.codec = storage::Codec::kVarint;
      } else {
        throw Error("script line " + std::to_string(cmd.line) +
                    ": pack codec must be 'none' or 'varint' (got '" + codec +
                    "')");
      }
    }
    if (cmd.tokens.size() >= 4) {
      const std::int64_t kib = parse_i64(cmd.tokens[3], cmd);
      GCT_CHECK(kib > 0, "script line " + std::to_string(cmd.line) +
                             ": pack block size must be a positive KiB count");
      po.block_target_bytes = static_cast<std::uint64_t>(kib) << 10;
    }
    graphct::CsrGraph decoded;
    const auto res =
        storage::pack_graph(tk.view().as_csr_or(decoded), cmd.tokens[1], po);
    out << "packed " << cmd.tokens[1] << ": " << res.num_blocks << " blocks, "
        << res.payload_bytes << " payload bytes, ratio "
        << res.compression_ratio << "x\n";
  } else if (verb == "echo") {
    for (std::size_t i = 1; i < cmd.tokens.size(); ++i) {
      if (i > 1) out << ' ';
      out << cmd.tokens[i];
    }
    out << "\n";
  } else {
    throw Error("script line " + std::to_string(cmd.line) +
                ": unknown command '" + verb + "'");
  }

  // Profiles collected on this thread by the command's kernels: print them
  // while profiling is on, discard otherwise (a toggle mid-script must not
  // leak earlier profiles into a later command's output).
  if (obs::profiling_enabled()) {
    for (const auto& p : obs::drain_profiles()) {
      out << obs::format_profile(p);
    }
  } else {
    obs::clear_profiles();
  }

  if (im.opts.timings) {
    out << "[" << graphct::format_duration(timer.seconds()) << "]\n";
  }
}

}  // namespace graphct::script
