/// \file graphct.cpp
/// The `graphct` command-line tool: the toolkit's kernels, generators, and
/// format converters behind one binary, for analysts who want the paper's
/// §IV workflow without writing C++.
///
///   graphct info <graph>                     # counts, diameter estimate
///   graphct characterize <graph>             # every cached kernel
///   graphct bc <graph> [--sources N] [--k K] [--budget-mb M]
///              [--out scores.txt]
///   graphct components <graph> [--workers N] [--out labels.txt]
///   graphct pagerank <graph> [--workers N] [--out scores.txt]
///   graphct partition <graph> <N>            # 1-D block partition report
///   graphct convert <in> <out>               # formats by extension
///   graphct generate rmat <scale> <edge factor> <out>
///   graphct script <file.gct>                # run an analyst script
///   graphct serve <port> | serve --stdio     # run the graphctd server
///   graphct client <port>                    # line client for a server
///
/// The global --threads N flag pins OpenMP parallelism for any command, and
/// --profile prints a per-kernel phase-breakdown table (wall time, thread
/// count, TEPS) after the command finishes.
/// Graph files are selected by extension: .dimacs/.gr (DIMACS), .bin
/// (GraphCT binary), .el/.txt (edge list), .metis/.graph (METIS).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <span>

#include "algs/assortativity.hpp"
#include "algs/bridges.hpp"
#include "algs/degree.hpp"
#include "algs/kcore.hpp"
#include "algs/ranking.hpp"
#include "algs/scc.hpp"
#include "core/toolkit.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "dist/partition.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/io_binary.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_edgelist.hpp"
#include "graph/io_metis.hpp"
#include "obs/trace.hpp"
#include "script/interpreter.hpp"
#include "server/server.hpp"
#include "storage/graph_store.hpp"
#include "storage/packed_writer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace graphct;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

CsrGraph load_graph(const std::string& path) {
  return server::GraphRegistry::load_graph_file(path);
}

bool is_packed(const std::string& path) {
  return ends_with(path, ".gctp") || storage::GraphStore::sniff(path);
}

/// Open `path` as a Toolkit, mmap-backed when it is a packed file (by
/// .gctp extension or magic sniff), in-memory otherwise. Kernels that run
/// over GraphView (bc, components, pagerank, ...) work over either.
Toolkit load_toolkit(const std::string& path) {
  if (is_packed(path)) return Toolkit::load_packed(path);
  return Toolkit(load_graph(path));
}

void save_graph(const CsrGraph& g, const std::string& path) {
  if (ends_with(path, ".bin")) {
    write_binary(g, path);
  } else if (ends_with(path, ".metis") || ends_with(path, ".graph")) {
    write_metis(g, path);
  } else if (ends_with(path, ".el") || ends_with(path, ".txt")) {
    write_edge_list(g, path);
  } else {
    write_dimacs(g, path);
  }
}

template <typename T>
void write_scores(const std::string& path, const std::vector<T>& values) {
  std::ofstream f(path);
  GCT_CHECK(f.good(), "cannot open output file: " + path);
  for (std::size_t v = 0; v < values.size(); ++v) {
    f << v << ' ' << values[v] << '\n';
  }
}

int usage() {
  std::cerr
      << "usage: graphct [--threads N] [--profile] <command> ...\n"
         "  info <graph>                         counts + diameter estimate\n"
         "  characterize <graph>                 run every kernel\n"
         "  bc <graph> [--sources N] [--k K] [--budget-mb M]\n"
         "     [--workers N] [--out f]\n"
         "                                       (k-)betweenness\n"
         "  components <graph> [--workers N] [--out f]\n"
         "                                       connected components\n"
         "  pagerank <graph> [--workers N] [--out f]\n"
         "                                       PageRank scores\n"
         "  partition <graph> <N>                1-D block partition report\n"
         "  convert <in> <out>                   convert between formats\n"
         "  pack <in> <out.gctp> [--codec none|varint] [--block-kb N]\n"
         "                                       write block-compressed CSR\n"
         "  generate rmat <scale> <ef> <out>     synthesize an R-MAT graph\n"
         "  script <file.gct>                    run an analyst script\n"
         "  serve <port> | serve --stdio [--workers N]\n"
         "     [--max-conns N] [--max-queued N] [--max-queued-per-session N]\n"
         "     [--cache-budget-mb M] [--idle-timeout S] [--read-timeout S]\n"
         "     [--drain-timeout S]                 run graphctd\n"
         "  client <port>                        connect to a graphctd\n";
  return 2;
}

int cmd_serve(const Cli& cli) {
  server::ServerOptions opts;
  opts.workers = static_cast<int>(
      cli.get_in_range("workers", 4, 1, graphct::kMaxThreads));
  opts.interpreter.timings = cli.has("timings");
  server::ServerLimits& lim = opts.limits;
  // 0 means unlimited, so a value past int must not wrap to it.
  const auto limit = [&cli](const char* flag, int def) {
    return static_cast<int>(cli.get_in_range(
        flag, def, 0, std::numeric_limits<std::int32_t>::max()));
  };
  lim.max_connections = limit("max-conns", lim.max_connections);
  lim.max_queued_jobs = limit("max-queued", lim.max_queued_jobs);
  lim.max_queued_per_session =
      limit("max-queued-per-session", lim.max_queued_per_session);
  // 2^43 MiB (2^63 bytes) is past any host; the bound keeps the shift
  // below from wrapping, to 0 (unbounded) among other values.
  lim.cache_budget_bytes =
      static_cast<std::uint64_t>(
          cli.get_in_range("cache-budget-mb", 0, 0, std::int64_t{1} << 43))
      << 20;
  lim.read_timeout_seconds = cli.get("read-timeout", 0.0);
  lim.idle_timeout_seconds = cli.get("idle-timeout", 0.0);
  lim.drain_timeout_seconds =
      cli.get("drain-timeout", lim.drain_timeout_seconds);
  server::Server srv(opts);
  if (cli.has("stdio")) {
    srv.serve_stream(std::cin, std::cout);
    return 0;
  }
  GCT_CHECK(!cli.positional().empty(), "serve: need a port or --stdio");
  const int port = static_cast<int>(
      parse_int_in_range("serve: port", cli.positional()[0], 0, 65535));
  return srv.serve_tcp(port, [&srv, &opts] {
    std::cerr << "graphctd listening on 127.0.0.1:" << srv.port() << " ("
              << opts.workers << " workers, " << opts.limits.max_connections
              << " connection cap)\n";
  });
}

int cmd_client(const Cli& cli) {
  GCT_CHECK(!cli.positional().empty(), "client: need a port");
  const int port = static_cast<int>(
      parse_int_in_range("client: port", cli.positional()[0], 0, 65535));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GCT_CHECK(fd >= 0, "client: cannot create socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw Error("client: cannot connect to 127.0.0.1:" + std::to_string(port));
  }

  // Pump: print server lines as they arrive; forward stdin lines. Response
  // framing is line-oriented, so interleaving a dumb pump is fine for an
  // interactive client.
  std::string buffer;
  char chunk[4096];
  auto drain = [&](bool wait_for_terminator) {
    std::size_t pending_payload = 0;  // payload lines owed by a gct/1 header
    for (;;) {
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        std::cout << line << "\n" << std::flush;
        if (pending_payload > 0) {
          if (--pending_payload == 0) return true;
          continue;
        }
        // Framed v1 reply: the header declares its payload length, so
        // count lines instead of scanning for a terminator.
        framing::TextHeader header;
        if (framing::parse_text_header(line, header) && header.lines > 0) {
          pending_payload = header.lines;
          continue;
        }
        // An empty or malformed gct/1 header ends the reply here.
        if (line.rfind("gct/1 ", 0) == 0 || line.rfind("ok", 0) == 0 ||
            line.rfind("error", 0) == 0 || line.rfind("graphctd", 0) == 0) {
          return true;
        }
      }
      if (!wait_for_terminator) return true;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  };

  if (!drain(true)) {  // banner
    ::close(fd);
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    if (line == "quit\n" || line == "exit\n") break;
    if (!drain(true)) break;  // echo one full response
  }
  ::close(fd);
  return 0;
}

int cmd_info(const std::string& path) {
  Timer t;
  Toolkit tk = load_toolkit(path);
  const auto g = tk.view();
  const auto& d = tk.diameter();
  TextTable table({"property", "value"});
  table.add_row({"file", path});
  table.add_row({"vertices", with_commas(g.num_vertices())});
  table.add_row({"edges", with_commas(g.num_edges())});
  table.add_row({"self-loops", with_commas(g.num_self_loops())});
  table.add_row({"directed", g.directed() ? "yes" : "no"});
  if (const auto* store = tk.store()) {
    table.add_row({"backend", store->codec() == storage::Codec::kVarint
                                  ? "packed (varint)"
                                  : "packed (pass-through)"});
    table.add_row({"blocks", with_commas(store->num_blocks())});
    table.add_row(
        {"payload",
         strf("%.1f MiB (%.2fx vs raw adjacency)",
              static_cast<double>(store->packed_payload_bytes()) / 1048576.0,
              store->compression_ratio())});
    table.add_row(
        {"block cache budget",
         strf("%.1f MiB/thread",
              static_cast<double>(store->cache_budget_bytes()) / 1048576.0)});
  } else {
    table.add_row(
        {"memory",
         strf("%.1f MiB",
              static_cast<double>(tk.graph().memory_bytes()) / 1048576.0)});
  }
  table.add_row({"diameter estimate",
                 strf("%lld (longest observed %lld)",
                      static_cast<long long>(d.estimate),
                      static_cast<long long>(d.longest_distance))});
  table.add_row({"load+estimate time", format_duration(t.seconds())});
  std::cout << table.render();
  return 0;
}

int cmd_pack(const Cli& cli) {
  GCT_CHECK(cli.positional().size() >= 2, "pack: need <in> <out.gctp>");
  storage::PackOptions opts;
  const auto codec = cli.get("codec", std::string("varint"));
  if (codec == "none") {
    opts.codec = storage::Codec::kNone;
  } else if (codec == "varint") {
    opts.codec = storage::Codec::kVarint;
  } else {
    throw Error("pack: --codec must be none or varint (got '" + codec + "')");
  }
  const auto block_kb = cli.get("block-kb", std::int64_t{64});
  GCT_CHECK(block_kb > 0, "pack: --block-kb must be positive");
  opts.block_target_bytes = static_cast<std::uint64_t>(block_kb) << 10;
  Timer t;
  CsrGraph g = load_graph(cli.positional()[0]);
  g.sort_adjacency();  // delta-gap encoding needs ascending neighbor lists
  const auto res = storage::pack_graph(g, cli.positional()[1], opts);
  std::cout << "packed " << cli.positional()[1] << ": "
            << with_commas(g.num_vertices()) << " vertices, "
            << with_commas(g.num_edges()) << " edges, "
            << with_commas(res.num_blocks) << " blocks\n"
            << strf("payload %.1f MiB vs raw %.1f MiB (ratio %.2fx), "
                    "file %.1f MiB, %s\n",
                    static_cast<double>(res.payload_bytes) / 1048576.0,
                    static_cast<double>(res.raw_adjacency_bytes) / 1048576.0,
                    res.compression_ratio,
                    static_cast<double>(res.file_bytes) / 1048576.0,
                    format_duration(t.seconds()).c_str());
  return 0;
}

int cmd_characterize(const std::string& path) {
  Toolkit tk(load_graph(path));
  TextTable table({"kernel", "result"});
  const auto& ds = tk.degree_stats();
  table.add_row({"degrees", strf("mean %.2f, variance %.1f, max %lld",
                                 ds.mean, ds.variance,
                                 static_cast<long long>(ds.max))});
  const auto& cs = tk.components_stats();
  table.add_row({"components",
                 strf("%s (largest %s)", with_commas(cs.num_components).c_str(),
                      with_commas(cs.largest_size()).c_str())});
  if (!tk.graph().directed()) {
    const auto& cl = tk.clustering();
    table.add_row({"clustering", strf("%s triangles, global %.4f",
                                      with_commas(cl.total_triangles).c_str(),
                                      cl.global_clustering)});
    table.add_row({"degeneracy",
                   std::to_string(degeneracy(tk.core_numbers()))});
    const auto& comm = tk.communities();
    table.add_row({"communities",
                   strf("%s (modularity %.3f)",
                        with_commas(comm.num_communities).c_str(),
                        tk.community_modularity())});
    const auto pr = tk.pagerank();
    table.add_row({"pagerank", strf("%lld iterations%s",
                                    static_cast<long long>(pr.iterations),
                                    pr.converged ? "" : " (not converged)")});
    table.add_row({"assortativity",
                   strf("%.3f", degree_assortativity(tk.graph()))});
    const auto cut = find_cut_structure(tk.graph());
    table.add_row({"cut structure",
                   strf("%s bridges, %s articulation points",
                        with_commas(static_cast<long long>(
                            cut.bridges.size())).c_str(),
                        with_commas(cut.num_articulation_points()).c_str())});
  } else {
    const auto scc = strongly_connected_components(tk.graph());
    table.add_row({"strongly connected",
                   strf("%s SCCs (%s of size >= 2)",
                        with_commas(count_components(
                            std::span<const vid>(scc.data(), scc.size())))
                            .c_str(),
                        with_commas(count_components(
                            std::span<const vid>(scc.data(), scc.size()), 2))
                            .c_str())});
  }
  std::cout << table.render();
  return 0;
}

/// The dist commands' --workers: forked worker processes, 0 = none.
int dist_workers(const Cli& cli) {
  return static_cast<int>(cli.get_in_range("workers", 0, 0, 256));
}

std::unique_ptr<dist::LocalWorkerSet> fork_workers(int workers);

int cmd_bc(const Cli& cli) {
  GCT_CHECK(!cli.positional().empty(), "bc: missing graph file");
  const int workers = dist_workers(cli);
  auto set = fork_workers(workers);  // before OpenMP spins up
  Toolkit tk = load_toolkit(cli.positional()[0]);
  const auto k = cli.get("k", std::int64_t{0});
  GCT_CHECK(k == 0 || workers == 0,
            "bc: --workers applies to plain betweenness only (not --k)");
  const auto sources = cli.get("sources", std::int64_t{kNoVertex});
  // Checked before the shift to bytes: 2^44 MiB would wrap to 0.
  const auto budget_mb =
      cli.get_in_range("budget-mb", 1024, 1, std::int64_t{1} << 43);
  std::vector<double> scores;
  double seconds;
  if (k == 0) {
    BetweennessOptions o;
    o.num_sources = sources;
    o.score_memory_budget_bytes = static_cast<std::uint64_t>(budget_mb) << 20;
    if (set) {
      dist::Coordinator coord;
      coord.connect(set->ports());
      const auto& r = tk.betweenness_dist(coord, o);
      scores = r.score;
      seconds = r.seconds;
    } else {
      const auto& r = tk.betweenness(o);
      scores = r.score;
      seconds = r.seconds;
    }
  } else {
    KBetweennessOptions o;
    o.k = k;
    o.num_sources = sources;
    o.score_memory_budget_bytes = static_cast<std::uint64_t>(budget_mb) << 20;
    const auto& r = tk.k_betweenness(o);
    scores = r.score;
    seconds = r.seconds;
  }
  std::cout << "computed k=" << k << " betweenness in "
            << format_duration(seconds);
  if (set) std::cout << " [workers=" << workers << "]";
  std::cout << "\n";
  if (cli.has("out")) {
    write_scores(cli.get("out", std::string()), scores);
  } else {
    const auto top =
        top_k(std::span<const double>(scores.data(), scores.size()), 10);
    TextTable table({"vertex", "score"});
    for (vid v : top) {
      table.add_row({std::to_string(v),
                     strf("%.6g", scores[static_cast<std::size_t>(v)])});
    }
    std::cout << table.render();
  }
  return 0;
}

/// Fork `workers` loopback dist workers (nullptr when workers == 0). Must
/// run before anything spins up OpenMP teams — fork() carries only the
/// calling thread into the child (see dist/local_worker_set.hpp) — so the
/// dist commands call this before loading the graph.
std::unique_ptr<dist::LocalWorkerSet> fork_workers(int workers) {
  if (workers == 0) return nullptr;
  dist::LocalWorkerSetOptions opts;
  opts.num_workers = workers;
  opts.fork_mode = true;
  return std::make_unique<dist::LocalWorkerSet>(opts);
}

int cmd_components(const Cli& cli) {
  GCT_CHECK(!cli.positional().empty(), "components: missing graph file");
  const int workers = dist_workers(cli);
  auto set = fork_workers(workers);
  Toolkit tk = load_toolkit(cli.positional()[0]);
  if (set) {
    dist::Coordinator coord;
    coord.connect(set->ports());
    const auto& labels = tk.components_dist(coord);
    const auto stats =
        component_stats(std::span<const vid>(labels.data(), labels.size()));
    std::cout << "components: " << with_commas(stats.num_components)
              << " (largest " << with_commas(stats.largest_size())
              << ") [workers=" << workers << "]\n";
    if (cli.has("out")) write_scores(cli.get("out", std::string()), labels);
    return 0;
  }
  const auto& stats = tk.components_stats();
  std::cout << "components: " << with_commas(stats.num_components)
            << " (largest " << with_commas(stats.largest_size()) << ")\n";
  if (cli.has("out")) {
    write_scores(cli.get("out", std::string()), tk.components());
  }
  return 0;
}

int cmd_pagerank(const Cli& cli) {
  GCT_CHECK(!cli.positional().empty(), "pagerank: missing graph file");
  const int workers = dist_workers(cli);
  auto set = fork_workers(workers);
  Toolkit tk = load_toolkit(cli.positional()[0]);
  dist::Coordinator coord;
  const PageRankResult* res;
  if (set) {
    coord.connect(set->ports());
    res = &tk.pagerank_dist(coord);
  } else {
    res = &tk.pagerank();
  }
  std::cout << "pagerank: " << res->iterations << " iterations, residual "
            << strf("%.6g", res->residual)
            << (res->converged ? "" : " (not converged)");
  if (set) std::cout << " [workers=" << workers << "]";
  std::cout << "\n";
  if (cli.has("out")) {
    write_scores(cli.get("out", std::string()), res->score);
  } else {
    const auto top = top_k(
        std::span<const double>(res->score.data(), res->score.size()), 10);
    TextTable table({"vertex", "score"});
    for (vid v : top) {
      table.add_row({std::to_string(v),
                     strf("%.6g", res->score[static_cast<std::size_t>(v)])});
    }
    std::cout << table.render();
  }
  return 0;
}

int cmd_partition(const Cli& cli) {
  GCT_CHECK(cli.positional().size() >= 2, "partition: need <graph> <N>");
  const int n = static_cast<int>(
      parse_int_in_range("partition: N", cli.positional()[1], 1, 4096));
  Toolkit tk = load_toolkit(cli.positional()[0]);
  CsrGraph decoded;
  const auto p = dist::partition_graph(tk.view().as_csr_or(decoded), n);
  std::cout << "partition of " << cli.positional()[0] << " into " << n
            << " blocks (" << with_commas(p.num_vertices) << " vertices, "
            << with_commas(p.total_entries) << " adjacency entries)\n";
  TextTable table({"block", "vertices", "entries", "cut entries"});
  for (int i = 0; i < p.num_blocks(); ++i) {
    const auto& b = p.blocks[static_cast<std::size_t>(i)];
    table.add_row({std::to_string(i),
                   strf("[%lld, %lld)", static_cast<long long>(b.begin),
                        static_cast<long long>(b.end)),
                   with_commas(b.entries), with_commas(b.cut_entries)});
  }
  std::cout << table.render()
            << strf("edge-cut fraction %.4f, imbalance %.3f\n",
                    p.edge_cut_fraction(), p.imbalance());
  return 0;
}

/// --threads in either position: the whole value must be an integer in
/// [0, kMaxThreads].
void set_threads_flag(const std::string& value) {
  set_num_threads(parse_int_in_range("--threads", value, 0, kMaxThreads));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Accept --threads both before the command (`graphct --threads 4 bc g`)
    // and after it; the leading form is consumed here.
    int argi = 1;
    while (argi < argc) {
      const std::string arg = argv[argi];
      if (arg == "--threads" && argi + 1 < argc) {
        set_threads_flag(argv[argi + 1]);
        argi += 2;
      } else if (arg.rfind("--threads=", 0) == 0) {
        set_threads_flag(arg.substr(10));
        argi += 1;
      } else if (arg == "--profile") {
        graphct::obs::set_profiling_enabled(true);
        argi += 1;
      } else {
        break;
      }
    }
    if (argi >= argc) return usage();
    const std::string command = argv[argi];
    Cli cli(argc - argi, argv + argi,
            {{"sources", "BC source sample"},
             {"k", "k-betweenness slack"},
             {"budget-mb", "BC score-memory budget in MiB"},
             {"out", "per-vertex output file"},
             {"codec", "pack: block codec (none|varint)"},
             {"block-kb", "pack: target encoded block size in KiB"},
             {"timings", "script timings!"},
             {"threads", "OpenMP thread count (0 = default)"},
             {"profile", "per-kernel phase profiling!"},
             {"workers", "server worker threads / dist worker processes"},
             {"stdio", "serve one session over stdin/stdout!"},
             {"max-conns", "server: concurrent connection cap"},
             {"max-queued", "server: global queued-job cap"},
             {"max-queued-per-session", "server: per-session backlog cap"},
             {"cache-budget-mb", "server: kernel-cache byte budget in MiB"},
             {"read-timeout", "server: stalled partial-line timeout (s)"},
             {"idle-timeout", "server: idle-connection timeout (s)"},
             {"drain-timeout", "server: stop-time drain window (s)"}});
    if (cli.has("threads")) set_threads_flag(cli.get("threads", std::string()));
    if (cli.has("profile")) graphct::obs::set_profiling_enabled(true);

    // Print profiles collected on this thread once the command returns.
    // (The script interpreter drains after every command itself, so script
    // runs print profiles inline; this catches the direct kernel commands.)
    const auto finish = [](int rc) {
      if (graphct::obs::profiling_enabled()) {
        for (const auto& p : graphct::obs::drain_profiles()) {
          std::cout << graphct::obs::format_profile(p);
        }
      }
      return rc;
    };

    if (command == "info") {
      GCT_CHECK(!cli.positional().empty(), "info: missing graph file");
      return finish(cmd_info(cli.positional()[0]));
    }
    if (command == "characterize") {
      GCT_CHECK(!cli.positional().empty(),
                "characterize: missing graph file");
      return finish(cmd_characterize(cli.positional()[0]));
    }
    if (command == "bc") return finish(cmd_bc(cli));
    if (command == "components") return finish(cmd_components(cli));
    if (command == "pagerank") return finish(cmd_pagerank(cli));
    if (command == "partition") return finish(cmd_partition(cli));
    if (command == "pack") return finish(cmd_pack(cli));
    if (command == "convert") {
      GCT_CHECK(cli.positional().size() >= 2, "convert: need <in> <out>");
      const auto g = load_graph(cli.positional()[0]);
      save_graph(g, cli.positional()[1]);
      std::cout << "wrote " << cli.positional()[1] << " ("
                << with_commas(g.num_vertices()) << " vertices, "
                << with_commas(g.num_edges()) << " edges)\n";
      return 0;
    }
    if (command == "generate") {
      GCT_CHECK(cli.positional().size() >= 4 && cli.positional()[0] == "rmat",
                "generate: need 'rmat <scale> <edge factor> <out>'");
      graphct::RmatOptions r;
      r.scale = graphct::parse_int_in_range("generate: scale",
                                            cli.positional()[1], 1, 40);
      r.edge_factor = graphct::parse_int_in_range(
          "generate: edge factor", cli.positional()[2], 1,
          std::numeric_limits<std::int64_t>::max());
      const auto g = graphct::rmat_graph(r);
      save_graph(g, cli.positional()[3]);
      std::cout << "generated scale-" << r.scale << " R-MAT: "
                << graphct::with_commas(g.num_vertices()) << " vertices, "
                << graphct::with_commas(g.num_edges()) << " edges\n";
      return 0;
    }
    if (command == "script") {
      GCT_CHECK(!cli.positional().empty(), "script: missing script file");
      graphct::script::InterpreterOptions opts;
      opts.timings = cli.has("timings");
      // A local registry so `load graph` / `use graph` scripts also run in
      // one-shot mode (graphs are simply not shared with anyone).
      server::GraphRegistry registry(opts.toolkit);
      opts.provider = &registry;
      graphct::script::Interpreter interp(std::cout, opts);
      interp.run_file(cli.positional()[0]);
      return finish(0);
    }
    if (command == "serve") return cmd_serve(cli);
    if (command == "client") return cmd_client(cli);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "graphct: " << e.what() << "\n";
    return 1;
  }
}
