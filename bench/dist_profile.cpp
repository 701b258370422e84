/// \file dist_profile.cpp
/// Distributed-substrate overhead and parity bench: forks loopback worker
/// sets (1, 2, and 4 processes), partitions an R-MAT graph across each,
/// and runs BFS, connected components, PageRank, and betweenness through
/// the coordinator against single-process baselines.
///
/// BFS, components, and betweenness must match the single-process kernels
/// exactly (betweenness bitwise, against the one-thread fine plan over the
/// same sources), and PageRank within 1e-9 per vertex — any violation
/// exits non-zero, making this the CI gate for the dist subsystem
/// (tools/validate_dist_bench.py checks the emitted rows). stdout carries
/// one JSON object per line ("bench": "dist_profile"): a partition row
/// per worker count with cut/balance accounting, and one row per (kernel,
/// workers) with wall time, superstep count, and traffic. Progress goes
/// to stderr.
///
/// Meta records hw_concurrency and worker_threads: on the single-core CI
/// host every worker count oversubscribes the machine, so dist rows
/// measure protocol overhead, not speedup (see docs/DISTRIBUTED.md).
///
///   ./dist_profile [--scale 16] [--threads N] [--quick]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "algs/pagerank.hpp"
#include "core/betweenness.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "gen/rmat.hpp"
#include "storage/graph_view.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace graphct;

std::string json_bool(bool b) { return b ? "true" : "false"; }

struct KernelRow {
  std::string kernel;
  int workers = 0;
  double seconds = 0.0;
  double seconds_single = 0.0;
  std::int64_t steps = 0;
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  bool parity = false;
  double max_abs_diff = 0.0;
};

void print_kernel_row(const KernelRow& r, const std::string& meta) {
  std::printf(
      "{%s\"row\":\"kernel\",\"kernel\":\"%s\",\"workers\":%d,"
      "\"seconds\":%.6f,\"seconds_single\":%.6f,\"steps\":%lld,"
      "\"messages_sent\":%lld,\"bytes_sent\":%lld,\"parity\":%s,"
      "\"max_abs_diff\":%.3g}\n",
      meta.c_str(), r.kernel.c_str(), r.workers, r.seconds, r.seconds_single,
      static_cast<long long>(r.steps),
      static_cast<long long>(r.messages_sent),
      static_cast<long long>(r.bytes_sent), json_bool(r.parity).c_str(),
      r.max_abs_diff);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv,
            {{"scale", "R-MAT scale"},
             {"threads", "OpenMP thread count (0 = runtime default)"},
             {"quick", "small graph for CI!"}});
    const auto scale = cli.has("quick") ? std::int64_t{12}
                                        : cli.get("scale", std::int64_t{16});
    const std::vector<int> worker_counts = {1, 2, 4};

    // Fork every worker process before anything in this process spins up
    // OpenMP teams (fork() carries only the calling thread into the child;
    // see dist/local_worker_set.hpp) — the children receive their graph
    // blocks over the wire later, so they can be forked this early.
    std::vector<std::unique_ptr<dist::LocalWorkerSet>> sets;
    for (const int n : worker_counts) {
      dist::LocalWorkerSetOptions w;
      w.num_workers = n;
      w.fork_mode = true;
      sets.push_back(std::make_unique<dist::LocalWorkerSet>(w));
    }

    set_num_threads(static_cast<int>(cli.get("threads", std::int64_t{0})));

    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    const CsrGraph g = rmat_graph(r);
    std::cerr << "dist_profile: scale-" << scale << " R-MAT, "
              << with_commas(g.num_vertices()) << " vertices, "
              << with_commas(g.num_edges()) << " edges\n";

    Rng rng(42);
    const vid source = static_cast<vid>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));

    // Single-process baselines (times include the parallel kernels the
    // paper's workflow would run; parity is against exactly these).
    Timer t;
    const std::vector<vid> bfs_ref = bfs(GraphView(g), source).distance;
    const double bfs_single = t.seconds();
    t.restart();
    const std::vector<vid> cc_ref = weak_components(GraphView(g));
    const double cc_single = t.seconds();
    t.restart();
    const PageRankResult pr_ref = pagerank(GraphView(g));
    const double pr_single = t.seconds();

    // Betweenness baseline: the fine plan (one thread) over the sampled
    // sources — the dist engine replays exactly this accumulation, so
    // parity is bitwise.
    BetweennessOptions bc_opts;
    bc_opts.num_sources = cli.has("quick") ? 16 : 64;
    const std::vector<vid> bc_sources = choose_sources(GraphView(g), bc_opts);
    set_num_threads(1);
    t.restart();
    const std::vector<double> bc_ref =
        betweenness_centrality(GraphView(g), bc_opts).score;
    const double bc_single = t.seconds();
    set_num_threads(static_cast<int>(cli.get("threads", std::int64_t{0})));

    // hw_concurrency + worker_threads record the host and the per-worker
    // OpenMP team, so downstream checks can flag rows whose worker count
    // oversubscribes the machine (those rows measure protocol overhead
    // and contention, not speedup).
    const std::string meta =
        "\"bench\":\"dist_profile\",\"scale\":" + std::to_string(scale) +
        ",\"edge_factor\":" + std::to_string(r.edge_factor) +
        ",\"hw_concurrency\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"worker_threads\":1,";

    bool all_parity = true;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const int workers = worker_counts[i];
      dist::Coordinator coord;
      coord.connect(sets[i]->ports());
      coord.load_graph(g);

      const auto& p = coord.partition();
      std::printf(
          "{%s\"row\":\"partition\",\"workers\":%d,"
          "\"edge_cut_fraction\":%.6f,\"imbalance\":%.6f}\n",
          meta.c_str(), workers, p.edge_cut_fraction(), p.imbalance());
      std::fflush(stdout);

      const auto finish_row = [&](KernelRow& row, double elapsed) {
        const auto& ks = coord.last_kernel_stats();
        row.workers = workers;
        row.seconds = elapsed;
        row.steps = ks.steps;
        row.messages_sent = ks.messages_sent;
        row.bytes_sent = ks.bytes_sent;
      };

      {
        KernelRow row;
        row.kernel = "bfs";
        row.seconds_single = bfs_single;
        t.restart();
        const auto got = coord.bfs_distances(source);
        finish_row(row, t.seconds());
        row.parity = (got == bfs_ref);
        print_kernel_row(row, meta);
        all_parity = all_parity && row.parity;
      }
      {
        KernelRow row;
        row.kernel = "components";
        row.seconds_single = cc_single;
        t.restart();
        const auto got = coord.components();
        finish_row(row, t.seconds());
        row.parity = (got == cc_ref);
        print_kernel_row(row, meta);
        all_parity = all_parity && row.parity;
      }
      {
        KernelRow row;
        row.kernel = "pagerank";
        row.seconds_single = pr_single;
        t.restart();
        const auto got = coord.pagerank();
        finish_row(row, t.seconds());
        for (std::size_t v = 0; v < got.score.size(); ++v) {
          row.max_abs_diff = std::max(
              row.max_abs_diff, std::fabs(got.score[v] - pr_ref.score[v]));
        }
        row.parity = got.score.size() == pr_ref.score.size() &&
                     got.iterations == pr_ref.iterations &&
                     row.max_abs_diff <= 1e-9;
        print_kernel_row(row, meta);
        all_parity = all_parity && row.parity;
      }
      {
        KernelRow row;
        row.kernel = "bc";
        row.seconds_single = bc_single;
        t.restart();
        const auto got = coord.betweenness(bc_sources);
        finish_row(row, t.seconds());
        row.parity = got.size() == bc_ref.size();
        for (std::size_t v = 0; v < got.size() && v < bc_ref.size(); ++v) {
          if (got[v] != bc_ref[v]) {
            row.parity = false;  // bitwise: any difference is a failure
            row.max_abs_diff =
                std::max(row.max_abs_diff, std::fabs(got[v] - bc_ref[v]));
          }
        }
        print_kernel_row(row, meta);
        all_parity = all_parity && row.parity;
      }

      std::cerr << "  workers=" << workers << ": done ("
                << (all_parity ? "parity OK" : "PARITY FAILED") << ")\n";
      coord.shutdown();
      sets[i]->stop();
    }

    if (!all_parity) {
      std::cerr << "dist_profile: PARITY FAILURE — distributed kernel "
                   "results differ from the single-process results\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
