/// \file kernel_profile.cpp
/// Per-kernel profiling baselines: runs each analysis kernel once on an
/// internally generated R-MAT graph with phase profiling armed and emits
/// one JSON object per kernel per line (the KernelProfile::to_json()
/// format plus bench metadata). CI's bench-smoke step validates each line
/// against tools/validate_kernel_profile.py and the checked-in
/// BENCH_kernels.json holds a reference run.
///
///   ./kernel_profile [--scale 16] [--sources 256] [--threads N] [--quick]
///
/// Covers the single-process kernels only; the distributed betweenness
/// path has its own phase spans (dist.bc.forward / dist.bc.backward /
/// dist.bc.exchange / dist.bc.gather — see the phase table in
/// docs/PERFORMANCE.md) and is timed by graphct_bench's bc_dist workload
/// (bench/suite).
///
/// stdout carries only JSON lines; progress goes to stderr.

#include <iostream>
#include <string>
#include <thread>

#include "algs/bfs.hpp"
#include "algs/clustering.hpp"
#include "algs/connected_components.hpp"
#include "algs/kcore.hpp"
#include "core/betweenness.hpp"
#include "gen/rmat.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace graphct;

/// Run one kernel under profiling and print its profile as a JSON line,
/// with the bench metadata spliced in after the opening brace.
template <typename Fn>
void profile_one(const std::string& meta, Fn&& run) {
  obs::clear_profiles();
  run();
  const auto profiles = obs::drain_profiles();
  GCT_CHECK(!profiles.empty(), "kernel_profile: kernel produced no profile");
  // A runner may trigger several root kernels (bc's sampling runs
  // components); the last completed profile is the kernel we asked for.
  std::string line = profiles.back().to_json();
  line.insert(1, meta);
  std::cout << line << "\n" << std::flush;
  std::cerr << "  " << profiles.back().kernel << ": "
            << format_duration(profiles.back().seconds) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv,
            {{"scale", "R-MAT scale"},
             {"sources", "approximate-BC source sample"},
             {"threads", "OpenMP thread count (0 = runtime default)"},
             {"quick", "small graph for CI!"}});
    const auto scale = cli.has("quick") ? std::int64_t{12}
                                        : cli.get("scale", std::int64_t{16});
    const auto sources = cli.has("quick")
                             ? std::int64_t{32}
                             : cli.get("sources", std::int64_t{256});
    const auto threads = cli.get("threads", std::int64_t{0});
    if (threads != 0) set_num_threads(threads);  // throws outside [0, kMaxThreads]

    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    const auto g = rmat_graph(r);
    std::cerr << "kernel_profile: scale-" << scale << " R-MAT, "
              << with_commas(g.num_vertices()) << " vertices, "
              << with_commas(g.num_edges()) << " edges, "
              << obs::effective_threads() << " threads\n";

    // hw_concurrency records the machine the row came from, so downstream
    // checks can flag rows whose thread count oversubscribes the host
    // (thread-scaling numbers from such rows measure contention, not speedup).
    const std::string meta =
        "\"bench\":\"kernel_profile\",\"scale\":" + std::to_string(scale) +
        ",\"edge_factor\":" + std::to_string(r.edge_factor) +
        ",\"hw_concurrency\":" +
        std::to_string(std::thread::hardware_concurrency()) + ",";

    obs::set_profiling_enabled(true);

    Rng rng(42);
    const vid source = static_cast<vid>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));

    profile_one(meta, [&] { (void)bfs(g, source); });
    profile_one(meta, [&] { (void)connected_components(g); });
    profile_one(meta, [&] { (void)core_numbers(g); });
    profile_one(meta, [&] { (void)clustering_coefficients(g); });
    profile_one(meta, [&] {
      BetweennessOptions o;
      o.num_sources = sources;
      o.seed = 5;
      (void)betweenness_centrality(g, o);
    });

    obs::set_profiling_enabled(false);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
