/// \file thread_scaling.cpp
/// Parallel scalability sweep — the property GraphCT's published
/// experiments establish on the Cray XMT (§IV-C): kernel throughput as the
/// thread count grows. Runs BFS, connected components, and sampled BC at
/// 1, 2, 4, ... up to the hardware thread count and reports speedups.
/// (On a single-core container this prints the 1-thread row and the
/// speedup column stays 1.0x — run on a real machine for the curve.)
///
///   ./thread_scaling [--scale 15] [--sources 64] [--quick]

#include <omp.h>

#include <iostream>

#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "core/betweenness.hpp"
#include "gen/rmat.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace graphct;
  try {
    Cli cli(argc, argv,
            {{"scale", "R-MAT scale"},
             {"sources", "BC sample size"},
             {"quick", "small graph!"}});
    const auto scale = cli.has("quick") ? std::int64_t{12}
                                        : cli.get("scale", std::int64_t{15});
    const auto sources = cli.get("sources", std::int64_t{64});

    const int max_threads = omp_get_num_procs();
    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    const auto g = rmat_graph(r);

    std::cout << "== Thread scaling (paper §IV-C scalability regime) ==\n"
              << "graph: " << with_commas(g.num_vertices()) << " vertices, "
              << with_commas(g.num_edges()) << " edges; hardware threads: "
              << max_threads << "\n\n";

    TextTable t({"threads", "bfs (32 sources)", "components",
                 "bc (" + std::to_string(sources) + " src)", "bc speedup"});
    double bc_base = 0.0;
    for (int nt = 1; nt <= max_threads; nt *= 2) {
      set_num_threads(nt);

      BfsResult buf;
      BfsOptions bo;
      bo.deterministic_order = false;
      const double bfs_s = obs::timed("bench.bfs_sweep", [&] {
        for (vid s = 0; s < 32; ++s) {
          bfs_into(g, s % g.num_vertices(), bo, buf);
        }
      });

      const double cc_s =
          obs::timed("bench.components", [&] { (void)connected_components(g); });

      BetweennessOptions o;
      o.num_sources = sources;
      o.seed = 5;
      const auto bc = betweenness_centrality(g, o);
      if (nt == 1) bc_base = bc.seconds;

      t.add_row({std::to_string(nt), format_duration(bfs_s),
                 format_duration(cc_s), format_duration(bc.seconds),
                 strf("%.2fx", bc_base / bc.seconds)});
    }
    set_num_threads(0);  // restore the default
    std::cout << t.render()
              << "\nThe XMT sustained near-linear scaling to 128 processors "
                 "by hiding latency in\nhardware thread contexts; on cached "
                 "CPUs the same decomposition scales until\nmemory bandwidth "
                 "saturates.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
