#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "graph/io_binary.hpp"
#include "graph/io_dimacs.hpp"
#include "graph/io_edgelist.hpp"
#include "graph/io_metis.hpp"
#include "graph/builder.hpp"
#include "gen/rmat.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(DimacsParseTest, BasicFile) {
  const char* text =
      "c a comment\n"
      "p sp 4 3\n"
      "a 1 2 5\n"
      "a 2 3 1\n"
      "e 3 4\n";
  const EdgeList el = parse_dimacs(text);
  EXPECT_EQ(el.num_vertices_hint(), 4);
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(el.edges()[2], (Edge{2, 3}));
}

TEST(DimacsParseTest, IgnoresWeightsAndBlankLines) {
  const char* text = "p sp 2 1\n\n\na 1 2 99999\n";
  const EdgeList el = parse_dimacs(text);
  ASSERT_EQ(el.size(), 1u);
}

TEST(DimacsParseTest, NoProblemLineInfersVertices) {
  const EdgeList el = parse_dimacs("a 1 5 1\n");
  EXPECT_EQ(el.num_vertices_hint(), kNoVertex);
  EXPECT_EQ(el.inferred_num_vertices(), 5);
}

TEST(DimacsParseTest, MalformedEdgeThrows) {
  EXPECT_THROW(parse_dimacs("a 1\n"), Error);
  EXPECT_THROW(parse_dimacs("a x y\n"), Error);
}

TEST(DimacsParseTest, UnknownTagThrows) {
  EXPECT_THROW(parse_dimacs("q 1 2\n"), Error);
}

TEST(DimacsParseTest, EndpointBeyondDeclaredCountThrows) {
  EXPECT_THROW(parse_dimacs("p sp 2 1\na 1 9 1\n"), Error);
}

TEST(DimacsParseTest, ZeroVertexIdThrows) {
  // DIMACS is 1-based; a 0 id is malformed.
  EXPECT_THROW(parse_dimacs("p sp 2 1\na 0 1 1\n"), Error);
}

// 2^64 + 1 wraps to 1 in 64-bit arithmetic; the readers must reject it,
// not read it as vertex 1.
TEST(DimacsParseTest, OversizedVertexIdThrows) {
  try {
    parse_dimacs("a 18446744073709551617 2 1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(DimacsRoundTripTest, UndirectedGraphSurvives) {
  const auto g = make_undirected(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}});
  const std::string text = to_dimacs(g);
  const auto g2 = build_csr(parse_dimacs(text));
  EXPECT_EQ(g, g2);
}

TEST(DimacsRoundTripTest, FileIo) {
  const auto g = make_undirected(4, {{0, 1}, {2, 3}});
  const std::string path = temp_path("gct_io_test.dimacs");
  write_dimacs(g, path);
  const auto g2 = build_csr(read_dimacs(path));
  EXPECT_EQ(g, g2);
  std::remove(path.c_str());
}

// A text shorter than the thread count puts chunk boundaries at offset 0,
// where the snap to a line start must not read the byte before the text.
// Each text is parsed from its own heap block, so ASan sees such a read.
TEST(DimacsParseTest, TextShorterThanTheThreadCountParsesAsAtOneThread) {
  auto parse_at = [](int threads, const std::string& text) {
    set_num_threads(threads);
    const std::vector<char> heap(text.begin(), text.end());
    std::vector<Edge> edges;
    vid hint = kNoVertex;
    std::string error;
    try {
      const EdgeList el =
          parse_dimacs(std::string_view(heap.data(), heap.size()));
      edges = el.edges();
      hint = el.num_vertices_hint();
    } catch (const Error& e) {
      error = e.what();
    }
    set_num_threads(0);
    return std::make_tuple(edges, hint, error);
  };
  for (const std::string text :
       {"p sp 2 1\na 1 2 7\n", "a 1 2\ne 2 1", "\n", "", "c\n", "q 1 2\n",
        "a 1\n", "p sp 1 0\na 2 1\n"}) {
    EXPECT_EQ(parse_at(32, text), parse_at(1, text)) << text;
  }
}

TEST(DimacsParseTest, ParallelParseMatchesSerialOnLargeInput) {
  // Large generated file exercises the chunked parallel parser.
  RmatOptions r;
  r.scale = 10;
  r.edge_factor = 8;
  const auto g = rmat_graph(r);
  const std::string text = to_dimacs(g);
  const auto g2 = build_csr(parse_dimacs(text));
  EXPECT_EQ(g, g2);
}

TEST(BinaryRoundTripTest, UndirectedGraph) {
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {3, 3}, {4, 5}});
  const std::string path = temp_path("gct_io_test.bin");
  write_binary(g, path);
  const auto g2 = read_binary(path);
  EXPECT_EQ(g, g2);
  EXPECT_EQ(g2.num_self_loops(), 1);
  std::remove(path.c_str());
}

TEST(BinaryRoundTripTest, DirectedGraph) {
  const auto g = make_directed(4, {{0, 1}, {1, 2}, {3, 0}});
  const std::string path = temp_path("gct_io_test_dir.bin");
  write_binary(g, path);
  const auto g2 = read_binary(path);
  EXPECT_EQ(g, g2);
  EXPECT_TRUE(g2.directed());
  std::remove(path.c_str());
}

TEST(BinaryReadTest, MissingFileThrows) {
  EXPECT_THROW(read_binary("/nonexistent/gct.bin"), Error);
}

TEST(BinaryReadTest, GarbageMagicThrows) {
  const std::string path = temp_path("gct_io_garbage.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a graph file, not even close, padding padding";
  }
  EXPECT_THROW(read_binary(path), Error);
  std::remove(path.c_str());
}

TEST(BinaryReadTest, TruncatedFileThrows) {
  const auto g = make_undirected(100, {{0, 1}, {5, 9}});
  const std::string path = temp_path("gct_io_trunc.bin");
  write_binary(g, path);
  std::filesystem::resize_file(path, 40);
  EXPECT_THROW(read_binary(path), Error);
  std::remove(path.c_str());
}

TEST(BinaryReadTest, TruncatedTrailerThrows) {
  const auto g = make_undirected(100, {{0, 1}, {5, 9}});
  const std::string path = temp_path("gct_io_trunc_trailer.bin");
  write_binary(g, path);
  // Chop half the trailer: the size check reports a truncated file.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  try {
    read_binary(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(BinaryReadTest, TrailingBytesThrow) {
  const auto g = make_undirected(10, {{0, 1}, {2, 3}});
  const std::string path = temp_path("gct_io_trailing.bin");
  write_binary(g, path);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "extra";
  }
  try {
    read_binary(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(BinaryReadTest, CorruptAdjacencyFailsChecksum) {
  const auto g = make_undirected(50, {{0, 1}, {1, 2}, {2, 3}, {10, 20}});
  const std::string path = temp_path("gct_io_bitflip.bin");
  write_binary(g, path);
  {
    // Flip one byte inside the adjacency region (after the 40-byte header
    // and the 51-entry offsets array).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40 + 51 * 8 + 3);
    char b = 0;
    f.seekg(f.tellp());
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(40 + 51 * 8 + 3);
    f.write(&b, 1);
  }
  try {
    read_binary(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(BinaryReadTest, UnsupportedVersionThrows) {
  const auto g = make_undirected(10, {{0, 1}});
  const std::string path = temp_path("gct_io_badver.bin");
  write_binary(g, path);
  {
    // The version field sits right after the 8-byte magic.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t bogus = 99;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  }
  try {
    read_binary(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, ParseBasics) {
  const EdgeList el = parse_edge_list("# comment\n0 1\n2 3\n\n% other\n1 2\n");
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(el.edges()[2], (Edge{1, 2}));
}

TEST(EdgeListIoTest, MalformedLineThrows) {
  EXPECT_THROW(parse_edge_list("0\n"), Error);
  EXPECT_THROW(parse_edge_list("a b\n"), Error);
}

TEST(EdgeListIoTest, OversizedVertexIdThrows) {
  try {
    parse_edge_list("18446744073709551617 2\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1: vertex id out of range"),
              std::string::npos);
  }
  // INT64_MAX fits the reader's type, but the vertex count it implies does
  // not.
  EXPECT_THROW(build_csr(parse_edge_list("9223372036854775807 0\n")), Error);
}

TEST(EdgeListIoTest, RoundTrip) {
  const auto g = make_undirected(5, {{0, 4}, {1, 2}, {2, 3}});
  const auto g2 = build_csr(parse_edge_list(to_edge_list(g)));
  EXPECT_EQ(g, g2);
}

TEST(EdgeListIoTest, FileRoundTrip) {
  const auto g = make_directed(3, {{0, 1}, {2, 0}});
  const std::string path = temp_path("gct_io_test.el");
  write_edge_list(g, path);
  BuildOptions o;
  o.symmetrize = false;
  const auto g2 = build_csr(read_edge_list(path), o);
  EXPECT_EQ(g, g2);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, WindowsLineEndings) {
  const EdgeList el = parse_edge_list("0 1\r\n1 2\r\n");
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el.edges()[1], (Edge{1, 2}));
}

TEST(MetisIoTest, ParseTriangleWithTail) {
  // Triangle 1-2-3 plus pendant 4 on 1 (1-based METIS ids).
  const auto g = parse_metis(
      "% comment\n"
      "4 4\n"
      "2 3 4\n"
      "1 3\n"
      "1 2\n"
      "1\n");
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.directed());
}

TEST(MetisIoTest, IsolatedVertexLinesAreEmpty) {
  const auto g = parse_metis("3 1\n2\n1\n\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(MetisIoTest, RoundTrip) {
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                     {0, 5}, {1, 4}});
  EXPECT_EQ(parse_metis(to_metis(g)), g);
}

TEST(MetisIoTest, SelfLoopsDroppedOnWrite) {
  const auto g = make_undirected(3, {{0, 1}, {2, 2}});
  const auto g2 = parse_metis(to_metis(g));
  EXPECT_EQ(g2.num_edges(), 1);
  EXPECT_EQ(g2.num_self_loops(), 0);
}

TEST(MetisIoTest, RejectsWeightedFormat) {
  EXPECT_THROW(parse_metis("2 1 1\n2 5\n1 5\n"), Error);
}

TEST(MetisIoTest, RejectsBadCounts) {
  // Declared m = 3 but only one edge present.
  EXPECT_THROW(parse_metis("2 3\n2\n1\n"), Error);
  // Too few vertex lines.
  EXPECT_THROW(parse_metis("3 1\n2\n1\n"), Error);
  // Neighbor id out of range.
  EXPECT_THROW(parse_metis("2 1\n5\n\n"), Error);
}

TEST(MetisIoTest, OversizedHeaderCountThrows) {
  try {
    parse_metis("2 18446744073709551617\n2\n1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1: integer out of range"),
              std::string::npos);
  }
}

TEST(MetisIoTest, RejectsDirectedWrite) {
  const auto g = make_directed(2, {{0, 1}});
  EXPECT_THROW(to_metis(g), Error);
}

// Robustness: random byte soup must either parse or throw graphct::Error —
// never crash, hang, or produce an out-of-range graph. (The CsrGraph
// constructor re-validates everything, so any accepted parse is structurally
// sound by construction.)
class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashesParsers) {
  Rng rng(GetParam());
  const std::size_t len = 1 + rng.next_below(400);
  std::string soup;
  soup.reserve(len);
  const char alphabet[] = "0123456789 \n\tapec%#=>-x";
  for (std::size_t i = 0; i < len; ++i) {
    soup += alphabet[rng.next_below(sizeof(alphabet) - 1)];
  }
  try {
    const EdgeList el = parse_dimacs(soup);
    (void)build_csr(el);
  } catch (const Error&) {
  }
  try {
    const EdgeList el = parse_edge_list(soup);
    (void)build_csr(el);
  } catch (const Error&) {
  }
  try {
    (void)parse_metis(soup);
  } catch (const Error&) {
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSoup, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MetisIoTest, FileRoundTrip) {
  const auto g = make_undirected(5, {{0, 1}, {1, 2}, {3, 4}});
  const std::string path = temp_path("gct_io_test.metis");
  write_metis(g, path);
  EXPECT_EQ(read_metis(path), g);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphct
