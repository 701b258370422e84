#include "algs/connected_components.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "graph/builder.hpp"
#include "storage/graph_store.hpp"
#include "storage/packed_writer.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;
using testing::reference_components;

TEST(ComponentsTest, SingleComponent) {
  const auto g = cycle_graph(8);
  const auto labels = connected_components(g);
  for (vid v = 0; v < 8; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)], 0);
  }
}

TEST(ComponentsTest, AllIsolated) {
  const auto g = make_undirected(5, {});
  const auto labels = connected_components(g);
  for (vid v = 0; v < 5; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)], v);
  }
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 5);
  EXPECT_EQ(stats.largest_size(), 1);
}

TEST(ComponentsTest, TwoComponentsMinLabel) {
  const auto g = make_undirected(6, {{3, 5}, {1, 2}, {2, 0}});
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 3);
  EXPECT_EQ(labels[5], 3);
  EXPECT_EQ(labels[4], 4);
}

TEST(ComponentsTest, DirectedInputThrows) {
  const auto g = make_directed(3, {{0, 1}});
  EXPECT_THROW(connected_components(g), Error);
}

TEST(WeakComponentsTest, SymmetrizesDirected) {
  const auto g = make_directed(4, {{0, 1}, {2, 1}, {3, 3}});
  const auto labels = weak_components(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 3);
}

// weak_components hooks the directed out-rows in place; its labels must be
// those of the symmetrized copy connected_components would label.
void expect_labels_of_symmetrized_copy(const CsrGraph& g) {
  EXPECT_EQ(weak_components(g), connected_components(to_undirected(g)));
}

TEST(WeakComponentsTest, DirectedRowsGiveTheSymmetrizedLabels) {
  expect_labels_of_symmetrized_copy(make_directed(0, {}));
  expect_labels_of_symmetrized_copy(make_directed(1, {}));
  expect_labels_of_symmetrized_copy(make_directed(4, {{0, 0}, {2, 2}, {3, 3}}));
  // One-way chains, each way round.
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}));
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{5, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}}));
  // In-stars and out-stars, with the hub at the lowest and highest id.
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{1, 0}, {2, 0}, {3, 0}, {5, 0}}));
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{0, 5}, {1, 5}, {2, 5}, {4, 5}}));
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{0, 1}, {0, 2}, {0, 3}, {0, 5}}));
  expect_labels_of_symmetrized_copy(
      make_directed(6, {{5, 0}, {5, 1}, {5, 2}, {5, 4}}));
  // Two parts joined only by one arc from a high id to a low id.
  const auto joined = make_directed(
      8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 0}});
  expect_labels_of_symmetrized_copy(joined);
  EXPECT_EQ(weak_components(joined), std::vector<vid>(8, 0));

  RmatOptions r;
  r.scale = 10;
  r.edge_factor = 4;
  BuildOptions directed;
  directed.symmetrize = false;
  expect_labels_of_symmetrized_copy(build_csr(rmat_edges(r), directed));
}

TEST(WeakComponentsTest, DirectedPackedStoreUnderEitherCodec) {
  RmatOptions r;
  r.scale = 10;
  r.edge_factor = 2;  // sparse enough to leave several components
  BuildOptions directed;
  directed.symmetrize = false;
  const CsrGraph g = build_csr(rmat_edges(r), directed);
  const auto want = connected_components(to_undirected(g));
  ASSERT_GT(component_stats(want).num_components, 1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gct_weak_components.gctp")
          .string();
  for (const auto codec : {storage::Codec::kVarint, storage::Codec::kNone}) {
    storage::PackOptions opts;
    opts.codec = codec;
    opts.block_target_bytes = 1024;
    storage::pack_graph(g, path, opts);
    const storage::GraphStore store(path);
    EXPECT_EQ(weak_components(GraphView(store)), want);
  }
  std::remove(path.c_str());
}

TEST(ComponentStatsTest, LabelOutsideTheVertexRangeThrows) {
  EXPECT_THROW(component_stats(std::vector<vid>{0, -1, 0}), Error);
  EXPECT_THROW(component_stats(std::vector<vid>{0, 3, 0}), Error);
  EXPECT_THROW(component_stats(std::vector<vid>{kNoVertex}), Error);
  EXPECT_EQ(component_stats(std::vector<vid>{2, 2, 2}).num_components, 1);
  EXPECT_EQ(component_stats(std::vector<vid>{}).num_components, 0);
}

TEST(ComponentStatsTest, SortsBySizeThenLabel) {
  std::vector<vid> labels{0, 0, 0, 3, 3, 5, 6};
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 4);
  EXPECT_EQ(stats.sizes[0], (std::pair<vid, std::int64_t>{0, 3}));
  EXPECT_EQ(stats.sizes[1], (std::pair<vid, std::int64_t>{3, 2}));
  EXPECT_EQ(stats.sizes[2], (std::pair<vid, std::int64_t>{5, 1}));
  EXPECT_EQ(stats.sizes[3], (std::pair<vid, std::int64_t>{6, 1}));
  EXPECT_EQ(stats.largest_label(), 0);
  EXPECT_EQ(stats.largest_size(), 3);
}

TEST(LargestComponentTest, ExtractsIt) {
  const auto g = make_undirected(7, {{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto sub = largest_component(g);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{0, 1, 2, 3}));
}

TEST(NthLargestComponentTest, SecondComponent) {
  const auto g = make_undirected(7, {{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto sub = nth_largest_component(g, 1);
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{5, 6}));
}

TEST(NthLargestComponentTest, OutOfRangeThrows) {
  const auto g = make_undirected(3, {{0, 1}});
  EXPECT_THROW(nth_largest_component(g, 5), Error);
}

TEST(LargestComponentTest, DirectedKeepsArcs) {
  const auto g = make_directed(4, {{0, 1}, {1, 2}});
  const auto sub = largest_component(g);
  EXPECT_TRUE(sub.graph.directed());
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_FALSE(sub.graph.has_edge(1, 0));
}

// Property sweep: parallel labels match the serial BFS reference exactly
// (both are canonical min-id labels) across random fragmented graphs.
class ComponentsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComponentsPropertyTest, MatchesReferenceLabels) {
  Rng rng(GetParam());
  const vid n = 30 + static_cast<vid>(rng.next_below(300));
  // Sparse: expected fragmentation into many components.
  const auto m = static_cast<std::int64_t>(n / (1 + rng.next_below(3)));
  const auto g = erdos_renyi(n, m, GetParam() * 13 + 5);
  EXPECT_EQ(connected_components(g), reference_components(g));
}

INSTANTIATE_TEST_SUITE_P(RandomSparseGraphs, ComponentsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(ComponentsScaleTest, StarOfCliquesStructure) {
  const auto g = star_of_cliques(10, 5);
  const auto labels = connected_components(g);
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 1);  // hub joins every clique
}

}  // namespace
}  // namespace graphct
