/// \file storage_test.cpp
/// Packed storage subsystem: varint primitives, block codec round trips
/// (including adversarial shapes), pack/open round trips, block-cache
/// eviction behavior, open-time validation error paths, and kernel parity
/// between the in-memory CSR and the mmap-backed store.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "algs/bc_layout.hpp"
#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "algs/degree.hpp"
#include "algs/pagerank.hpp"
#include "core/betweenness.hpp"
#include "core/toolkit.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "storage/block_codec.hpp"
#include "storage/graph_store.hpp"
#include "storage/graph_view.hpp"
#include "storage/packed_writer.hpp"
#include "storage/varint.hpp"
#include "test_support.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace graphct {
namespace {

using storage::Codec;
using storage::GraphStore;
using storage::PackOptions;
using storage::StoreOptions;
using testing::make_directed;
using testing::make_undirected;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// RAII temp file: removed on scope exit.
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

CsrGraph small_rmat(std::int64_t scale = 10, std::uint64_t seed = 7) {
  RmatOptions r;
  r.scale = scale;
  r.edge_factor = 8;
  r.seed = seed;
  CsrGraph g = rmat_graph(r);
  g.sort_adjacency();
  return g;
}

// ---------------------------------------------------------------- varint --

TEST(VarintTest, RoundTripBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 21) - 1,
                                  1ull << 21,
                                  (1ull << 35),
                                  (1ull << 56) - 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::uint8_t buf[storage::kMaxVarintBytes] = {};
    std::uint8_t* end = storage::encode_varint(v, buf);
    EXPECT_EQ(static_cast<std::size_t>(end - buf), storage::varint_size(v));
    std::uint64_t decoded = 0;
    const std::uint8_t* p = storage::decode_varint(buf, end, decoded);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(p, end);
    EXPECT_EQ(decoded, v);
  }
}

TEST(VarintTest, SizeBoundaries) {
  EXPECT_EQ(storage::varint_size(0), 1u);
  EXPECT_EQ(storage::varint_size(127), 1u);
  EXPECT_EQ(storage::varint_size(128), 2u);
  EXPECT_EQ(storage::varint_size(std::numeric_limits<std::uint64_t>::max()),
            storage::kMaxVarintBytes);
}

TEST(VarintTest, TruncatedInputReturnsNull) {
  std::uint8_t buf[storage::kMaxVarintBytes] = {};
  std::uint8_t* end =
      storage::encode_varint(std::numeric_limits<std::uint64_t>::max(), buf);
  std::uint64_t decoded = 0;
  // Every proper prefix must be rejected.
  for (const std::uint8_t* cut = buf; cut != end; ++cut) {
    EXPECT_EQ(storage::decode_varint(buf, cut, decoded), nullptr);
  }
}

TEST(VarintTest, OverlongInputReturnsNull) {
  // Eleven continuation bytes can never be a 64-bit value.
  std::uint8_t buf[12];
  std::memset(buf, 0x80, sizeof buf);
  buf[11] = 0x01;
  std::uint64_t decoded = 0;
  EXPECT_EQ(storage::decode_varint(buf, buf + sizeof buf, decoded), nullptr);
}

// ----------------------------------------------------------- block codec --

/// Round-trip one synthetic block through a codec.
void roundtrip_block(Codec codec, const std::vector<eid>& offsets,
                     vid first_vertex, vid nv,
                     const std::vector<vid>& adjacency) {
  std::vector<std::uint8_t> bytes;
  storage::encode_block(codec, offsets, first_vertex, nv, adjacency, bytes);
  const eid lo = offsets[static_cast<std::size_t>(first_vertex)];
  const eid hi = offsets[static_cast<std::size_t>(first_vertex + nv)];
  std::vector<vid> decoded(static_cast<std::size_t>(hi - lo), -1);
  storage::decode_block(codec, offsets, first_vertex, nv, bytes, decoded);
  for (eid i = lo; i < hi; ++i) {
    ASSERT_EQ(decoded[static_cast<std::size_t>(i - lo)],
              adjacency[static_cast<std::size_t>(i)]);
  }
}

TEST(BlockCodecTest, RoundTripRandomSortedLists) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const vid nv = 1 + static_cast<vid>(rng.next_u64() % 50);
    std::vector<eid> offsets = {0};
    std::vector<vid> adjacency;
    for (vid v = 0; v < nv; ++v) {
      const vid deg = static_cast<vid>(rng.next_u64() % 30);
      std::vector<vid> list;
      vid id = static_cast<vid>(rng.next_u64() % 100);
      for (vid i = 0; i < deg; ++i) {
        list.push_back(id);
        id += static_cast<vid>(rng.next_u64() % 1000);  // duplicates allowed
      }
      adjacency.insert(adjacency.end(), list.begin(), list.end());
      offsets.push_back(static_cast<eid>(adjacency.size()));
    }
    roundtrip_block(Codec::kVarint, offsets, 0, nv, adjacency);
    roundtrip_block(Codec::kNone, offsets, 0, nv, adjacency);
  }
}

TEST(BlockCodecTest, RoundTripNearInt64Max) {
  // Ids near INT64_MAX exercise the widest gaps and first-value varints a
  // block can contain (no graph validation here — raw span API).
  constexpr vid kMax = std::numeric_limits<vid>::max();
  const std::vector<eid> offsets = {0, 3, 3, 5};
  const std::vector<vid> adjacency = {0, kMax - 1, kMax,  // huge gap
                                      kMax, kMax};        // gap 0 at the top
  roundtrip_block(Codec::kVarint, offsets, 0, 3, adjacency);
  roundtrip_block(Codec::kNone, offsets, 0, 3, adjacency);
}

TEST(BlockCodecTest, RoundTripMidBlockStart) {
  // first_vertex > 0: offsets are global, the byte stream is block-local.
  const std::vector<eid> offsets = {0, 2, 2, 5, 6};
  const std::vector<vid> adjacency = {1, 3, 0, 2, 9, 4};
  roundtrip_block(Codec::kVarint, offsets, 2, 2, adjacency);
}

TEST(BlockCodecTest, EncodedListSizeMatchesEncoder) {
  const std::vector<vid> list = {5, 6, 6, 200, 100000};
  const std::vector<eid> offsets = {0, static_cast<eid>(list.size())};
  for (const Codec codec : {Codec::kVarint, Codec::kNone}) {
    std::vector<std::uint8_t> bytes;
    storage::encode_block(codec, offsets, 0, 1, list, bytes);
    EXPECT_EQ(bytes.size(), storage::encoded_list_size(codec, list));
  }
}

TEST(BlockCodecTest, TruncatedBytesThrow) {
  const std::vector<eid> offsets = {0, 4};
  const std::vector<vid> adjacency = {10, 20, 3000, 400000};
  std::vector<std::uint8_t> bytes;
  storage::encode_block(Codec::kVarint, offsets, 0, 1, adjacency, bytes);
  std::vector<vid> out(4);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        storage::decode_block(
            Codec::kVarint, offsets, 0, 1,
            std::span<const std::uint8_t>(bytes.data(), cut), out),
        Error)
        << "cut at " << cut;
  }
}

TEST(BlockCodecTest, TrailingBytesThrow) {
  const std::vector<eid> offsets = {0, 2};
  const std::vector<vid> adjacency = {1, 2};
  std::vector<std::uint8_t> bytes;
  storage::encode_block(Codec::kVarint, offsets, 0, 1, adjacency, bytes);
  bytes.push_back(0x00);  // garbage past the last list
  std::vector<vid> out(2);
  EXPECT_THROW(
      storage::decode_block(Codec::kVarint, offsets, 0, 1, bytes, out), Error);
}

// ------------------------------------------------------------ pack/open --

/// Assert the store decodes to exactly g (per-vertex spans + properties).
void expect_store_matches(const GraphStore& store, const CsrGraph& g) {
  ASSERT_EQ(store.num_vertices(), g.num_vertices());
  ASSERT_EQ(store.num_adjacency_entries(), g.num_adjacency_entries());
  EXPECT_EQ(store.num_edges(), g.num_edges());
  EXPECT_EQ(store.num_self_loops(), g.num_self_loops());
  EXPECT_EQ(store.directed(), g.directed());
  EXPECT_EQ(store.sorted_adjacency(), g.sorted_adjacency());
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const auto got = store.neighbors(v);
    const auto want = g.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "vertex " << v << " slot " << i;
    }
  }
}

TEST(PackedStoreTest, RmatRoundTripVarint) {
  const CsrGraph g = small_rmat();
  TempFile f("gct_storage_rmat.gctp");
  const auto res = storage::pack_graph(g, f.path, {});
  EXPECT_GT(res.num_blocks, 0);
  EXPECT_GT(res.compression_ratio, 1.0);  // gaps beat raw 8-byte ids
  GraphStore store(f.path);
  expect_store_matches(store, g);
  EXPECT_EQ(store.materialize(), g);
}

TEST(PackedStoreTest, RmatRoundTripPassThrough) {
  const CsrGraph g = small_rmat();
  TempFile f("gct_storage_rmat_raw.gctp");
  PackOptions opts;
  opts.codec = Codec::kNone;
  storage::pack_graph(g, f.path, opts);
  GraphStore store(f.path);
  EXPECT_NE(store.raw_adjacency(), nullptr);  // mmap'd raw, no decode path
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, SmallBlocksManyEvictionsParity) {
  const CsrGraph g = small_rmat(9);
  TempFile f("gct_storage_tiny_blocks.gctp");
  PackOptions popts;
  popts.block_target_bytes = 256;  // many small blocks
  const auto res = storage::pack_graph(g, f.path, popts);
  EXPECT_GT(res.num_blocks, 16);
  StoreOptions sopts;
  sopts.cache_budget_bytes = 1024;  // far below the decoded working set
  GraphStore store(f.path, sopts);
  expect_store_matches(store, g);
  // Re-walk to churn the cache; the budget must hold (with the two-block
  // validity floor) and evictions must actually happen.
  for (vid v = 0; v < g.num_vertices(); ++v) {
    (void)store.neighbors(v);
  }
  const auto stats = store.cache_stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
}

TEST(PackedStoreTest, EmptyGraph) {
  const CsrGraph g;
  TempFile f("gct_storage_empty.gctp");
  storage::pack_graph(g, f.path, {});
  GraphStore store(f.path);
  EXPECT_EQ(store.num_vertices(), 0);
  EXPECT_EQ(store.num_adjacency_entries(), 0);
  // A default CsrGraph has no offsets array while the format stores the
  // canonical single zero, so compare semantics rather than representation.
  const CsrGraph back = store.materialize();
  EXPECT_EQ(back.num_vertices(), 0);
  EXPECT_EQ(back.num_adjacency_entries(), 0);
  EXPECT_FALSE(back.directed());
}

TEST(PackedStoreTest, AllIsolatedVertices) {
  const CsrGraph g = make_undirected(64, {});
  TempFile f("gct_storage_isolated.gctp");
  const auto res = storage::pack_graph(g, f.path, {});
  EXPECT_EQ(res.payload_bytes, 0u);
  GraphStore store(f.path);
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, SingleHubVertex) {
  // A star: the hub's list alone exceeds any small block target, so the
  // writer must give it an oversized block rather than split the vertex.
  const CsrGraph g = star_graph(5000);
  TempFile f("gct_storage_star.gctp");
  PackOptions opts;
  opts.block_target_bytes = 64;  // hub list >> target
  storage::pack_graph(g, f.path, opts);
  GraphStore store(f.path);
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, DirectedGraphRoundTrip) {
  CsrGraph g = make_directed(6, {{0, 1}, {1, 2}, {2, 0}, {5, 0}});
  g.sort_adjacency();
  TempFile f("gct_storage_directed.gctp");
  storage::pack_graph(g, f.path, {});
  GraphStore store(f.path);
  EXPECT_TRUE(store.directed());
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, VarintRequiresSortedAdjacency) {
  // Hand-build an unsorted graph: pack under varint must refuse.
  std::vector<eid> offsets = {0, 2, 2};
  std::vector<vid> adjacency = {1, 0};  // descending
  CsrGraph g(std::move(offsets), std::move(adjacency), true, 0, false);
  TempFile f("gct_storage_unsorted.gctp");
  EXPECT_THROW(storage::pack_graph(g, f.path, {}), Error);
  PackOptions raw;
  raw.codec = Codec::kNone;  // pass-through has no ordering requirement
  storage::pack_graph(g, f.path, raw);
  GraphStore store(f.path);
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, SniffDetectsPackedFiles) {
  const CsrGraph g = make_undirected(4, {{0, 1}});
  TempFile packed("gct_storage_sniff.gctp");
  storage::pack_graph(g, packed.path, {});
  EXPECT_TRUE(GraphStore::sniff(packed.path));
  TempFile other("gct_storage_sniff.txt");
  {
    std::ofstream out(other.path);
    out << "0 1\n";
  }
  EXPECT_FALSE(GraphStore::sniff(other.path));
  EXPECT_FALSE(GraphStore::sniff(temp_path("gct_storage_nonexistent")));
}

// ---------------------------------------------------------- error paths --

TEST(PackedStoreTest, MissingFileThrows) {
  EXPECT_THROW(GraphStore(temp_path("gct_storage_missing.gctp")), Error);
}

TEST(PackedStoreTest, BadMagicThrows) {
  TempFile f("gct_storage_badmagic.gctp");
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "definitely not a packed graph file, with some padding to spare "
           "so the size check is not what fires first";
  }
  try {
    GraphStore store(f.path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(PackedStoreTest, TruncatedFileThrows) {
  const CsrGraph g = small_rmat(8);
  TempFile f("gct_storage_trunc.gctp");
  storage::pack_graph(g, f.path, {});
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - full / 3);
  EXPECT_THROW(GraphStore(f.path), Error);
}

TEST(PackedStoreTest, UnsupportedVersionThrows) {
  const CsrGraph g = make_undirected(4, {{0, 1}});
  TempFile f("gct_storage_badver.gctp");
  storage::pack_graph(g, f.path, {});
  {
    // Version field sits right after the 8-byte magic.
    std::fstream patch(f.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t bogus = 42;
    patch.seekp(8);
    patch.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  }
  try {
    GraphStore store(f.path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(PackedStoreTest, CorruptPayloadFailsChecksumVerify) {
  const CsrGraph g = small_rmat(8);
  TempFile f("gct_storage_bitflip.gctp");
  storage::pack_graph(g, f.path, {});
  {
    // Flip one payload byte (well past header + offsets + index).
    std::fstream patch(f.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    const auto size = std::filesystem::file_size(f.path);
    patch.seekg(static_cast<std::streamoff>(size) - 64);
    char b = 0;
    patch.read(&b, 1);
    patch.seekp(static_cast<std::streamoff>(size) - 64);
    b = static_cast<char>(b ^ 0x10);
    patch.write(&b, 1);
  }
  StoreOptions opts;
  opts.verify_checksum = true;
  try {
    GraphStore store(f.path, opts);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(PackedStoreTest, TrailerAfterUnalignedPayloadOpensAndVerifies) {
  // A varint payload is any number of bytes long, so the trailer (which
  // holds a uint64 checksum) can start at an offset that is not a multiple
  // of 8. Opening must still read it, checksum included, without a
  // misaligned load (this aborts under -fsanitize=undefined otherwise).
  const CsrGraph g = make_undirected(5, {{0, 1}, {1, 2}, {2, 3}});
  TempFile f("gct_storage_unaligned_trailer.gctp");
  const auto res = storage::pack_graph(g, f.path, {});
  ASSERT_NE(res.payload_bytes % 8, 0u);
  StoreOptions opts;
  opts.verify_checksum = true;
  const GraphStore store(f.path, opts);
  expect_store_matches(store, g);
}

TEST(PackedStoreTest, OutOfRangeNeighborIdThrows) {
  // One neighbor id patched to n, with the trailer checksum recomputed so
  // that only the id is wrong. Kernels index per-vertex arrays with the ids
  // unchecked, so the first kernel must throw (before any OpenMP region),
  // for either codec, and so must every later one.
  const CsrGraph g = small_rmat(6);
  const vid n = g.num_vertices();
  ASSERT_LT(n, 128);  // so the patched varint id stays one byte long
  for (const Codec codec : {Codec::kNone, Codec::kVarint}) {
    TempFile f("gct_storage_bad_id.gctp");
    PackOptions popts;
    popts.codec = codec;
    storage::pack_graph(g, f.path, popts);
    std::vector<char> bytes(std::filesystem::file_size(f.path));
    std::ifstream(f.path, std::ios::binary)
        .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));

    // The payload opens with the first id of the first non-empty row: a
    // raw id, or an absolute varint (gaps start at a row's second id).
    storage::PackedHeader h{};
    std::memcpy(&h, bytes.data(), sizeof h);
    char* id = bytes.data() + h.payload_off;
    if (codec == Codec::kNone) {
      std::memcpy(id, &n, sizeof n);
    } else {
      ASSERT_EQ(static_cast<unsigned char>(*id) & 0x80u, 0u);
      *id = static_cast<char>(n);
    }
    storage::PackedTrailer t{};
    const std::size_t body = bytes.size() - sizeof t;
    std::memcpy(&t, bytes.data() + body, sizeof t);
    t.checksum = fnv1a64(bytes.data(), body);
    std::memcpy(bytes.data() + body, &t, sizeof t);
    std::ofstream(f.path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

    StoreOptions opts;
    opts.verify_checksum = true;  // passes: only the id is wrong
    const GraphStore store(f.path, opts);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        bfs(store, 0);
        FAIL() << "expected Error for codec " << static_cast<int>(codec);
      } catch (const Error& e) {
        EXPECT_NE(
            std::string(e.what()).find("neighbor id 64 outside [0, 64)"),
            std::string::npos)
            << e.what();
      }
    }
  }
}

// -------------------------------------------------------- kernel parity --

/// A betweenness score budget one byte below the identity layout of `g`:
/// no layout fits, so both sweeps read the graph itself.
std::uint64_t streamed_budget(const CsrGraph& g) {
  return BcLayout::bytes(g.num_vertices(), g.num_adjacency_entries(),
                         /*folded=*/false) -
         1;
}

/// The acceptance bar: kernels over the mmap store under a cache budget far
/// smaller than the raw adjacency must produce results byte-identical to
/// the in-memory CSR path.
class StoreKernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = small_rmat(11);
    file_ = std::make_unique<TempFile>("gct_storage_parity.gctp");
    PackOptions popts;
    popts.block_target_bytes = 2048;
    storage::pack_graph(g_, file_->path, popts);
    StoreOptions sopts;
    // Budget far below the raw adjacency size, so parity holds under
    // real eviction churn, not a fully resident cache.
    sopts.cache_budget_bytes = 16 << 10;
    ASSERT_LT(sopts.cache_budget_bytes,
              static_cast<std::uint64_t>(g_.num_adjacency_entries()) *
                  sizeof(vid));
    store_ = std::make_unique<GraphStore>(file_->path, sopts);
  }

  CsrGraph g_;
  std::unique_ptr<TempFile> file_;
  std::unique_ptr<GraphStore> store_;
};

TEST_F(StoreKernelParityTest, BfsDistancesIdentical) {
  BfsOptions opts;
  const auto mem = bfs(g_, 0, opts);
  const auto packed = bfs(GraphView(*store_), 0, opts);
  EXPECT_EQ(mem.distance, packed.distance);
  EXPECT_EQ(mem.num_reached(), packed.num_reached());
}

TEST_F(StoreKernelParityTest, ComponentsIdentical) {
  EXPECT_EQ(connected_components(g_), connected_components(GraphView(*store_)));
}

TEST_F(StoreKernelParityTest, DegreesIdentical) {
  EXPECT_EQ(degrees(g_), degrees(GraphView(*store_)));
}

TEST_F(StoreKernelParityTest, PageRankIdentical) {
  const auto mem = pagerank(g_);
  const auto packed = pagerank(GraphView(*store_));
  EXPECT_EQ(mem.iterations, packed.iterations);
  EXPECT_EQ(mem.score, packed.score);  // bitwise: same ops, same order
}

TEST_F(StoreKernelParityTest, BetweennessIdenticalSingleThread) {
  // One thread runs the fine plan, whose scores are bitwise reproducible;
  // parity across backends is the point here. Stores fold like DRAM
  // graphs, so each store runs twice: with the default budget (the layout
  // built from one decode of the store) and with a budget below even the
  // identity layout, where both sweeps stream through the block cache
  // unfolded. That second run keeps an unfolded oracle for the fold on the
  // leaf-heavy atlflood mention graph (51% leaves).
  const CsrGraph leafy = testing::mention_lwcc("atlflood");
  TempFile leafy_file("gct_storage_parity_leafy.gctp");
  PackOptions popts;
  popts.block_target_bytes = 2048;
  storage::pack_graph(leafy, leafy_file.path, popts);
  StoreOptions sopts;
  sopts.cache_budget_bytes = 16 << 10;
  ASSERT_LT(sopts.cache_budget_bytes,
            static_cast<std::uint64_t>(leafy.num_adjacency_entries()) *
                sizeof(vid));
  const GraphStore leafy_store(leafy_file.path, sopts);

  set_num_threads(1);
  BetweennessOptions opts;
  opts.num_sources = 16;
  const auto mem = betweenness_centrality(g_, opts);
  const auto packed = betweenness_centrality(GraphView(*store_), opts);
  BetweennessOptions streamed = opts;
  streamed.score_memory_budget_bytes = streamed_budget(g_);
  const auto packed_streamed =
      betweenness_centrality(GraphView(*store_), streamed);
  opts.num_sources = 64;
  const auto leafy_mem = betweenness_centrality(leafy, opts);
  const auto leafy_packed =
      betweenness_centrality(GraphView(leafy_store), opts);
  streamed.num_sources = 64;
  streamed.score_memory_budget_bytes = streamed_budget(leafy);
  const auto leafy_streamed =
      betweenness_centrality(GraphView(leafy_store), streamed);

  // A directed store is decoded once per call to build the reverse that
  // sigma is pulled over; discovery and the backward sweep read the store
  // through its block cache, or the identity layout when the budget holds
  // one. Both codecs, at the default budget and below the identity layout.
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 4;
  BuildOptions arcs;
  arcs.symmetrize = false;
  const CsrGraph digraph = build_csr(rmat_edges(ro), arcs);
  opts.num_sources = 64;
  streamed.score_memory_budget_bytes = streamed_budget(digraph);
  const auto directed_mem = betweenness_centrality(digraph, opts);
  for (const Codec codec : {Codec::kVarint, Codec::kNone}) {
    TempFile f("gct_storage_parity_directed.gctp");
    PackOptions dopts;
    dopts.codec = codec;
    dopts.block_target_bytes = 2048;
    storage::pack_graph(digraph, f.path, dopts);
    const GraphStore store(f.path, sopts);
    EXPECT_TRUE(GraphView(store).directed());
    EXPECT_EQ(directed_mem.score, betweenness_centrality(store, opts).score)
        << "codec " << static_cast<int>(codec);
    EXPECT_EQ(directed_mem.score,
              betweenness_centrality(store, streamed).score)
        << "codec " << static_cast<int>(codec);
  }
  set_num_threads(0);
  EXPECT_EQ(mem.score, packed.score);
  EXPECT_EQ(mem.score, packed_streamed.score);
  EXPECT_EQ(leafy_mem.score, leafy_packed.score);
  EXPECT_EQ(leafy_mem.score, leafy_streamed.score);
}

TEST_F(StoreKernelParityTest, BetweennessDecodesEachBlockOncePerCall) {
  // With a layout, betweenness reads the store once, in id order, so one
  // call decodes each block at most once. Without one (a budget below the
  // identity layout) both sweeps decode through the cache for every
  // source, far more often; that run shows the count tells the paths apart.
  const GraphView view(*store_);
  set_num_threads(1);
  BetweennessOptions opts;
  opts.num_sources = 16;
  auto before = store_->cache_stats();
  (void)betweenness_centrality(view, opts);
  const std::int64_t with_layout = store_->cache_stats().misses - before.misses;
  opts.score_memory_budget_bytes = streamed_budget(g_);
  before = store_->cache_stats();
  (void)betweenness_centrality(view, opts);
  const std::int64_t streamed = store_->cache_stats().misses - before.misses;
  set_num_threads(0);
  EXPECT_LE(with_layout, store_->num_blocks());
  EXPECT_GT(streamed, store_->num_blocks());
}

TEST(BcLayoutTest, StoreBuiltFoldMatchesDramBuild) {
  // A store's layout is folded from one sequential decode, not from the
  // view; it must equal the layout built from the DRAM graph, field for
  // field, so the fold's no-bits-move argument carries over unchanged.
  const CsrGraph g = testing::mention_lwcc("atlflood");
  TempFile f("gct_storage_layout.gctp");
  PackOptions popts;
  popts.block_target_bytes = 2048;
  storage::pack_graph(g, f.path, popts);
  StoreOptions sopts;
  sopts.cache_budget_bytes = 16 << 10;
  const GraphStore store(f.path, sopts);
  const BcLayout mem = build_bc_layout(g, /*fold=*/true);
  const BcLayout packed = build_bc_layout(GraphView(store), /*fold=*/true);
  ASSERT_TRUE(mem.folded());
  EXPECT_LT(mem.num_core, mem.num_vertices());
  EXPECT_EQ(mem.offsets, packed.offsets);
  EXPECT_EQ(mem.adj, packed.adj);
  EXPECT_EQ(mem.label, packed.label);
  EXPECT_EQ(mem.num_core, packed.num_core);
}

// ------------------------------------------------- toolkit cross-backend --

TEST(ToolkitStoreTest, LoadPackedRunsViewKernels) {
  const CsrGraph g = small_rmat(9);
  TempFile f("gct_storage_toolkit.gctp");
  storage::pack_graph(g, f.path, {});
  Toolkit tk = Toolkit::load_packed(f.path);
  EXPECT_TRUE(tk.store_backed());
  EXPECT_THROW((void)tk.graph(), Error);  // no DRAM CSR behind this toolkit
  Toolkit mem(g);
  EXPECT_EQ(tk.components(), mem.components());
  EXPECT_EQ(tk.degree_stats().max, mem.degree_stats().max);
  EXPECT_EQ(tk.pagerank().score, mem.pagerank().score);
}

TEST(ToolkitStoreTest, ReplaceGraphSwapsBackendAndInvalidates) {
  // The satellite guarantee: swapping between in-memory and packed
  // backends rides the same replace_graph() invalidation path, so results
  // cached for one backend can never be served against the other.
  const CsrGraph small = make_undirected(4, {{0, 1}, {2, 3}});
  const CsrGraph big = small_rmat(9);
  TempFile f("gct_storage_swap.gctp");
  storage::pack_graph(big, f.path, {});

  Toolkit tk(small);
  EXPECT_EQ(tk.components_stats().num_components, 2);
  const auto small_stats = tk.cache_stats();
  EXPECT_GT(small_stats.entries, 0);

  // in-memory -> packed store
  tk.replace_graph(std::make_shared<const GraphStore>(f.path));
  EXPECT_TRUE(tk.store_backed());
  EXPECT_EQ(tk.cache_stats().entries, 0);  // nothing stale survives the swap
  EXPECT_EQ(tk.components_stats().num_components,
            Toolkit(big).components_stats().num_components);
  EXPECT_EQ(tk.view().num_vertices(), big.num_vertices());

  // packed store -> in-memory
  tk.replace_graph(small);
  EXPECT_FALSE(tk.store_backed());
  EXPECT_EQ(tk.cache_stats().entries, 0);
  EXPECT_EQ(tk.components_stats().num_components, 2);
}

TEST(ToolkitStoreTest, ExtractComponentMaterializesFromStore) {
  const CsrGraph g = small_rmat(9);
  TempFile f("gct_storage_extract.gctp");
  storage::pack_graph(g, f.path, {});
  Toolkit packed = Toolkit::load_packed(f.path);
  Toolkit mem(g);
  const CsrGraph from_store = packed.component_graph(0);
  const CsrGraph from_mem = mem.component_graph(0);
  EXPECT_EQ(from_store, from_mem);
}

}  // namespace
}  // namespace graphct
