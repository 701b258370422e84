/// \file ablation_bc_accum.cpp
/// Ablation: the two parallel decompositions of betweenness centrality the
/// paper discusses (§II-B). Coarse parallelism runs sources concurrently
/// with a private score buffer each; fine-grained parallelism (the Cray XMT
/// style) runs one source at a time with level-parallel sweeps whose writes
/// are all per-vertex exclusive, so it needs no buffers and no atomics. Both
/// must produce the same scores to float noise; their costs differ by
/// memory footprint and synchronization.
///
///   ./ablation_bc_accum [--scale 13] [--sources 64] [--quick]
///
/// The kernel plans fine when the score-memory budget cannot hold two
/// buffers, which is how the fine row is selected here. That budget also
/// skips the kernel's 32-bit adjacency copy, so the fine row streams the
/// full-width adjacency. A third decomposition — the distributed path over
/// loopback workers, which replays the fine accumulation bitwise across
/// processes — is timed separately by graphct_bench's bc_dist workload
/// (bench/suite; see docs/DISTRIBUTED.md).

#include <cmath>
#include <iostream>

#include "core/betweenness.hpp"
#include "gen/rmat.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace graphct;
  try {
    Cli cli(argc, argv,
            {{"scale", "R-MAT scale"},
             {"sources", "sampled sources"},
             {"quick", "small graph!"}});
    const auto scale = cli.has("quick") ? std::int64_t{11}
                                        : cli.get("scale", std::int64_t{13});
    const auto sources = cli.get("sources", std::int64_t{64});

    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    const auto g = rmat_graph(r);
    std::cout << "== Ablation: BC parallel decomposition (coarse vs fine) ==\n"
              << "graph: " << with_commas(g.num_vertices()) << " vertices, "
              << with_commas(g.num_edges()) << " edges; " << sources
              << " sources; " << num_threads() << " threads\n\n";

    BetweennessOptions base;
    base.num_sources = sources;
    base.seed = 5;

    TextTable t({"plan", "time", "Medge-traversals/s", "score checksum"});
    std::vector<double> coarse_scores, fine_scores;
    for (const bool fine : {false, true}) {
      BetweennessOptions o = base;
      if (fine) {
        o.score_memory_budget_bytes =
            static_cast<std::uint64_t>(g.num_vertices()) * sizeof(double);
      }
      const auto res = betweenness_centrality(g, o);
      double checksum = 0;
      for (double s : res.score) checksum += s;
      (fine ? fine_scores : coarse_scores) = res.score;
      const double traversals = static_cast<double>(res.sources_used) *
                                static_cast<double>(g.num_adjacency_entries());
      t.add_row({fine ? std::string("fine (serial sources, level-parallel)")
                      : strf("coarse (parallel sources, %d private buffers)",
                             res.plan.team),
                 format_duration(res.seconds),
                 strf("%.0f", traversals / 1e6 / res.seconds),
                 strf("%.6g", checksum)});
    }
    std::cout << t.render();

    double max_diff = 0;
    for (std::size_t i = 0; i < coarse_scores.size(); ++i) {
      max_diff = std::max(max_diff,
                          std::abs(coarse_scores[i] - fine_scores[i]));
    }
    std::cout << strf("\nmax per-vertex score difference: %.3g (must be "
                      "float-noise only)\n",
                      max_diff)
              << "\nFine mode is the XMT's regime: with hardware thread "
                 "contexts the per-level\nparallelism hides memory latency "
                 "without per-source buffer memory (O(S*(m+n))\nfor coarse, "
                 "§II-A). On commodity cores, coarse wins once sources >> "
                 "threads.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
