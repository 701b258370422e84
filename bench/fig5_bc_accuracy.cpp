/// \file fig5_bc_accuracy.cpp
/// Reproduces Fig. 5: the accuracy trade-off between exact and approximate
/// betweenness centrality. For sampled fractions of 10%, 25%, 50%, compare
/// the top k = 1%, 5%, 10%, 20% of users (by approximate score) against the
/// exact ranking using the normalized top-k set overlap (1 - set Hamming
/// distance), averaged over realizations with 90% confidence.
///
/// Paper observables: accuracy stays above ~80% for the top 1%/5% at 10%
/// sampling and climbs over 90% at 25-50% sampling.
///
///   ./fig5_bc_accuracy [--scale 1.0] [--realizations 10] [--quick]

#include <cmath>
#include <iostream>

#include "algs/connected_components.hpp"
#include "algs/ranking.hpp"
#include "bench_common.hpp"
#include "core/betweenness.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace graphct;
  namespace tw = graphct::twitter;
  try {
    Cli cli(argc, argv,
            {{"scale", "corpus scale factor"},
             {"realizations", "runs per sampled setting (paper: 10)"},
             {"quick", "small corpora, 3 realizations!"}});
    const double scale = cli.has("quick") ? 0.1 : cli.get("scale", 1.0);
    const auto reps = cli.has("quick")
                          ? std::int64_t{3}
                          : cli.get("realizations", std::int64_t{10});

    const double fractions[] = {0.10, 0.25, 0.50};
    const double top_ks[] = {1.0, 5.0, 10.0, 20.0};

    std::cout << "== Fig. 5: accuracy of approximate BC (top-k overlap with "
                 "exact) ==\ncorpus scale " << scale << ", " << reps
              << " realizations, 90% confidence\n\n";

    TextTable t({"data set", "sampled %", "top 1%", "top 5%", "top 10%",
                 "top 20%"});
    for (const auto& name : {"atlflood", "h1n1"}) {
      const auto preset = tw::dataset_preset(name, scale);
      const auto mg = bench::build_preset_graph(preset);
      const auto lwcc = largest_component(mg.undirected());
      const auto& g = lwcc.graph;
      std::cerr << name << " LWCC: " << with_commas(g.num_vertices())
                << " vertices\n";

      const auto exact = betweenness_centrality(g);
      const std::span<const double> exact_scores(exact.score.data(),
                                                 exact.score.size());

      for (double frac : fractions) {
        // overlap[k][rep]
        std::vector<std::vector<double>> overlap(4);
        for (std::int64_t rep = 0; rep < reps; ++rep) {
          BetweennessOptions o;
          o.num_sources = static_cast<std::int64_t>(
              std::ceil(frac * static_cast<double>(g.num_vertices())));
          o.seed = 2000 + static_cast<std::uint64_t>(rep);
          const auto approx = betweenness_centrality(g, o);
          const std::span<const double> approx_scores(approx.score.data(),
                                                      approx.score.size());
          for (std::size_t k = 0; k < 4; ++k) {
            overlap[k].push_back(
                top_k_overlap(exact_scores, approx_scores, top_ks[k]));
          }
        }
        std::vector<std::string> row{name, strf("%.0f%%", frac * 100)};
        for (std::size_t k = 0; k < 4; ++k) {
          const auto s = summarize(
              std::span<const double>(overlap[k].data(), overlap[k].size()));
          const double ci = confidence_half_width(s, 0.90);
          row.push_back(strf("%.0f%% +/- %.0f", s.mean * 100, ci * 100));
        }
        t.add_row(row);
      }
      t.add_separator();
    }
    std::cout << t.render()
              << "\nShape check: top-1%/5% overlap >= ~80% at 10% sampling, "
                 "climbing above 90% at\n25-50% — the paper's Fig. 5 curves.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
