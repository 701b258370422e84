#include "gen/rmat.hpp"

#include <gtest/gtest.h>

#include "algs/degree.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace graphct {
namespace {

TEST(RmatTest, EdgeCountAndVertexCount) {
  RmatOptions o;
  o.scale = 10;
  o.edge_factor = 8;
  const auto el = rmat_edges(o);
  EXPECT_EQ(el.size(), static_cast<std::size_t>(8 * 1024));
  EXPECT_EQ(el.num_vertices_hint(), 1024);
  for (const auto& e : el.edges()) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, 1024);
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, 1024);
  }
}

TEST(RmatTest, DeterministicAcrossCalls) {
  RmatOptions o;
  o.scale = 9;
  o.edge_factor = 4;
  o.seed = 123;
  const auto a = rmat_edges(o);
  const auto b = rmat_edges(o);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(RmatTest, SeedsChangeOutput) {
  RmatOptions a, b;
  a.scale = b.scale = 9;
  a.edge_factor = b.edge_factor = 4;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(rmat_edges(a).edges(), rmat_edges(b).edges());
}

TEST(RmatTest, GraphIsUndirectedDeduplicated) {
  RmatOptions o;
  o.scale = 10;
  o.edge_factor = 8;
  const auto g = rmat_graph(o);
  EXPECT_FALSE(g.directed());
  EXPECT_TRUE(g.sorted_adjacency());
  // Dedup: fewer unique edges than generated arcs.
  EXPECT_LT(g.num_edges(), 8 * 1024);
  EXPECT_GT(g.num_edges(), 1024);
}

TEST(RmatTest, SkewedQuadrantsMakeHubs) {
  // With A=0.55 the low-numbered vertices accumulate degree: vertex with
  // max degree should be far above the mean.
  RmatOptions o;
  o.scale = 12;
  o.edge_factor = 8;
  const auto g = rmat_graph(o);
  const auto s = degree_summary(g);
  EXPECT_GT(s.max, 8.0 * s.mean);
}

TEST(RmatTest, NoiseOffStillWorks) {
  RmatOptions o;
  o.scale = 8;
  o.edge_factor = 4;
  o.noise = false;
  const auto g = rmat_graph(o);
  EXPECT_EQ(g.num_vertices(), 256);
}

TEST(RmatTest, PaperParametersAreDefault) {
  RmatOptions o;
  EXPECT_DOUBLE_EQ(o.a, 0.55);
  EXPECT_DOUBLE_EQ(o.b, 0.10);
  EXPECT_DOUBLE_EQ(o.c, 0.10);
  EXPECT_EQ(o.edge_factor, 16);
}

TEST(RmatTest, InvalidOptionsThrow) {
  RmatOptions o;
  o.scale = 0;
  EXPECT_THROW(rmat_edges(o), Error);
  o.scale = 10;
  o.edge_factor = 0;
  EXPECT_THROW(rmat_edges(o), Error);
  o.edge_factor = 4;
  o.a = 1.2;
  EXPECT_THROW(rmat_edges(o), Error);
  // 4 x 2^62 edges overflow int64; the count once wrapped to 0 edges.
  o.a = 0.55;
  o.scale = 2;
  o.edge_factor = std::int64_t{1} << 62;
  EXPECT_THROW(rmat_edges(o), Error);
}

}  // namespace
}  // namespace graphct
