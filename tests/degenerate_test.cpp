/// Degenerate-input sweep: every kernel must handle the empty graph, the
/// single vertex, the single self-loop, and the two-vertex edge without
/// crashing — the inputs fuzzers find first and code reviews miss.

#include <gtest/gtest.h>

#include "algs/assortativity.hpp"
#include "algs/bfs.hpp"
#include "algs/bridges.hpp"
#include "algs/closeness.hpp"
#include "algs/clustering.hpp"
#include "algs/community.hpp"
#include "algs/connected_components.hpp"
#include "algs/degree.hpp"
#include "algs/diameter.hpp"
#include "algs/kcore.hpp"
#include "algs/pagerank.hpp"
#include "algs/scc.hpp"
#include "core/betweenness.hpp"
#include "core/kbetweenness.hpp"
#include "graph/transforms.hpp"
#include "test_support.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;

std::vector<CsrGraph> degenerate_graphs() {
  return {
      make_undirected(1, {}),          // single vertex
      make_undirected(1, {{0, 0}}),    // single self-loop
      make_undirected(2, {{0, 1}}),    // one edge
      make_undirected(3, {}),          // edgeless
      make_undirected(2, {{0, 0}, {1, 1}}),  // only self-loops
  };
}

TEST(DegenerateTest, EmptyGraphEveryKernel) {
  CsrGraph g;  // zero vertices
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_TRUE(connected_components(g).empty());
  EXPECT_TRUE(degrees(g).empty());
  EXPECT_EQ(estimate_diameter(g).samples_used, 0);
  EXPECT_EQ(exact_diameter(g), 0);
  EXPECT_TRUE(clustering_coefficients(g).coefficient.empty());
  EXPECT_TRUE(core_numbers(g).empty());
  EXPECT_TRUE(betweenness_centrality(g).score.empty());
  EXPECT_TRUE(k_betweenness_centrality(g).score.empty());
  EXPECT_TRUE(closeness_centrality(g).score.empty());
  EXPECT_TRUE(pagerank(g).score.empty());
  EXPECT_TRUE(label_propagation(g).labels.empty());
  EXPECT_DOUBLE_EQ(degree_assortativity(g), 0.0);
  EXPECT_TRUE(find_cut_structure(g).bridges.empty());
  EXPECT_EQ(drop_isolated(g).graph.num_vertices(), 0);
}

TEST(DegenerateTest, SmallGraphsEveryUndirectedKernel) {
  for (const auto& g : degenerate_graphs()) {
    const vid n = g.num_vertices();
    EXPECT_EQ(static_cast<vid>(connected_components(g).size()), n);
    EXPECT_EQ(static_cast<vid>(core_numbers(g).size()), n);
    const auto cl = clustering_coefficients(g);
    EXPECT_EQ(cl.total_triangles, 0);
    const auto bc = betweenness_centrality(g);
    for (double s : bc.score) EXPECT_DOUBLE_EQ(s, 0.0);
    KBetweennessOptions ko;
    ko.k = 2;
    const auto kbc = k_betweenness_centrality(g, ko);
    EXPECT_EQ(static_cast<vid>(kbc.score.size()), n);
    const auto pr = pagerank(g);
    double sum = 0;
    for (double s : pr.score) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    const auto lp = label_propagation(g);
    EXPECT_EQ(static_cast<vid>(lp.labels.size()), n);
    EXPECT_TRUE(find_cut_structure(g).bridges.size() <= 1);
    if (n > 0) {
      const auto b = bfs(g, 0);
      EXPECT_GE(b.num_reached(), 1);
    }
  }
}

TEST(DegenerateTest, DirectedDegenerates) {
  for (const auto& g :
       {make_directed(1, {}), make_directed(1, {{0, 0}}),
        make_directed(2, {{0, 1}}), make_directed(3, {})}) {
    const auto scc = strongly_connected_components(g);
    EXPECT_EQ(static_cast<vid>(scc.size()), g.num_vertices());
    const auto bc = betweenness_centrality(g);
    for (double s : bc.score) EXPECT_DOUBLE_EQ(s, 0.0);
    const auto pr = pagerank(g);
    EXPECT_EQ(static_cast<vid>(pr.score.size()), g.num_vertices());
    const auto rev = reverse(g);
    EXPECT_EQ(rev.num_edges(), g.num_edges());
  }
}

TEST(DegenerateTest, SingleVertexDiameterAndBfs) {
  const auto g = make_undirected(1, {});
  EXPECT_EQ(exact_diameter(g), 0);
  const auto est = estimate_diameter(g);
  EXPECT_EQ(est.longest_distance, 0);
  const auto b = bfs(g, 0);
  EXPECT_EQ(b.max_distance(), 0);
}

TEST(DegenerateTest, SelfLoopOnlyGraphIsAllIsolatedForAnalytics) {
  const auto g = make_undirected(2, {{0, 0}, {1, 1}});
  EXPECT_EQ(g.num_self_loops(), 2);
  const auto cores = core_numbers(g);
  EXPECT_EQ(cores[0], 0);
  const auto cl = clustering_coefficients(g);
  EXPECT_DOUBLE_EQ(cl.coefficient[0], 0.0);
  // BFS through a self-loop stays at distance 0.
  const auto b = bfs(g, 0);
  EXPECT_EQ(b.num_reached(), 1);
}

TEST(DegenerateTest, TransformsOnDegenerates) {
  for (const auto& g : degenerate_graphs()) {
    const auto und = to_undirected(g);
    EXPECT_EQ(und.num_vertices(), g.num_vertices());
    std::vector<char> all(static_cast<std::size_t>(g.num_vertices()), 1);
    const auto sub = induced_subgraph(g, all);
    EXPECT_EQ(sub.graph, g);
  }
}

}  // namespace
}  // namespace graphct
