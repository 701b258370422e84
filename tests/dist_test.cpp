/// Tests for the dist substrate: partitioning invariants, distributed
/// kernel parity against the single-process kernels, and worker-failure
/// semantics (explicit error, no wedge, graph stays serviceable).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "algs/pagerank.hpp"
#include "core/betweenness.hpp"
#include "core/toolkit.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "dist/partition.hpp"
#include "dist/wire.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct::dist {
namespace {

using testing::caterpillar;
using testing::make_directed;
using testing::make_undirected;
using testing::mention_lwcc;

CsrGraph test_rmat(std::int64_t scale, bool directed) {
  RmatOptions opts;
  opts.scale = scale;
  opts.edge_factor = 8;
  opts.seed = directed ? 7 : 11;
  CsrGraph g = rmat_graph(opts);
  if (!directed) g = to_undirected(g);
  return g;
}

/// Spin up `n` in-process workers, connect a coordinator, load `g`, and
/// hand the coordinator to `body`. Teardown is exercised on every path.
template <typename Body>
void with_coordinator(const CsrGraph& g, int n, Body&& body) {
  LocalWorkerSetOptions wopts;
  wopts.num_workers = n;
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  body(coord);
  coord.shutdown();
}

// --------------------------------------------------------------- partition

TEST(PartitionTest, BlocksAreContiguousAndCoverEveryVertex) {
  const CsrGraph g = test_rmat(9, true);
  for (const int n : {1, 2, 3, 4, 7}) {
    const Partition p = partition_graph(g, n);
    ASSERT_EQ(p.num_blocks(), n);
    EXPECT_EQ(p.num_vertices, g.num_vertices());
    EXPECT_EQ(p.total_entries, g.num_adjacency_entries());
    vid expect_begin = 0;
    eid entries = 0;
    for (const BlockInfo& b : p.blocks) {
      EXPECT_EQ(b.begin, expect_begin);
      EXPECT_LE(b.begin, b.end);
      EXPECT_LE(b.cut_entries, b.entries);
      expect_begin = b.end;
      entries += b.entries;
    }
    EXPECT_EQ(expect_begin, g.num_vertices());
    EXPECT_EQ(entries, g.num_adjacency_entries());
  }
}

TEST(PartitionTest, OwnerAgreesWithBlockRanges) {
  const CsrGraph g = test_rmat(8, false);
  const Partition p = partition_graph(g, 4);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const int o = p.owner(v);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, p.num_blocks());
    EXPECT_GE(v, p.blocks[static_cast<std::size_t>(o)].begin);
    EXPECT_LT(v, p.blocks[static_cast<std::size_t>(o)].end);
  }
}

TEST(PartitionTest, SingleBlockHasNoCut) {
  const CsrGraph g = test_rmat(8, true);
  const Partition p = partition_graph(g, 1);
  EXPECT_EQ(p.blocks[0].cut_entries, 0);
  EXPECT_DOUBLE_EQ(p.edge_cut_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
}

TEST(PartitionTest, CutMatchesBruteForceCount) {
  const CsrGraph g = make_undirected(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                         {4, 5}, {0, 5}, {1, 4}});
  const Partition p = partition_graph(g, 2);
  const auto offsets = g.offsets();
  const auto adjacency = g.adjacency();
  eid expect_cut = 0;
  for (const BlockInfo& b : p.blocks) {
    eid cut = 0;
    for (eid e = offsets[static_cast<std::size_t>(b.begin)];
         e < offsets[static_cast<std::size_t>(b.end)]; ++e) {
      const vid t = adjacency[static_cast<std::size_t>(e)];
      if (t < b.begin || t >= b.end) ++cut;
    }
    EXPECT_EQ(b.cut_entries, cut);
    expect_cut += cut;
  }
  EXPECT_DOUBLE_EQ(p.edge_cut_fraction(),
                   static_cast<double>(expect_cut) /
                       static_cast<double>(g.num_adjacency_entries()));
}

TEST(PartitionTest, MoreBlocksThanVerticesYieldsEmptyBlocks) {
  const CsrGraph g = make_undirected(3, {{0, 1}, {1, 2}});
  const Partition p = partition_graph(g, 8);
  ASSERT_EQ(p.num_blocks(), 8);
  vid covered = 0;
  int empty = 0;
  for (const BlockInfo& b : p.blocks) {
    covered += b.num_vertices();
    if (b.num_vertices() == 0) ++empty;
  }
  EXPECT_EQ(covered, 3);
  EXPECT_GE(empty, 5);  // only 3 vertices exist; empty blocks are legal
  EXPECT_GE(p.imbalance(), 1.0);
}

TEST(PartitionTest, RejectsNonPositiveBlockCount) {
  const CsrGraph g = make_undirected(2, {{0, 1}});
  EXPECT_THROW(partition_graph(g, 0), Error);
  EXPECT_THROW(partition_graph(g, -3), Error);
}

TEST(PartitionTest, EdgeBalanceBeatsNaiveVertexSplitOnSkew) {
  // A star: vertex 0 owns half of all entries. An edge-balanced 2-way
  // split must isolate the hub rather than cutting vertices in half.
  EdgeList el(64);
  for (vid v = 1; v < 64; ++v) el.add(0, v);
  BuildOptions b;
  b.symmetrize = true;
  const CsrGraph g = build_csr(el, b);
  const Partition p = partition_graph(g, 2);
  EXPECT_LT(p.blocks[0].num_vertices(), 32);
  EXPECT_LE(p.imbalance(), 1.5);
}

// ------------------------------------------------------------------ parity

void expect_bfs_parity(const CsrGraph& g, int workers, vid source) {
  const auto expect = bfs(g, source).distance;
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.bfs_distances(source);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "bfs parity failed, workers=" << workers;
  });
}

void expect_cc_parity(const CsrGraph& g, int workers) {
  const auto expect = weak_components(g);
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.components();
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "cc parity failed, workers=" << workers;
  });
}

void expect_pr_parity(const CsrGraph& g, int workers) {
  const auto expect = pagerank(g);
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.pagerank();
    ASSERT_EQ(got.score.size(), expect.score.size());
    EXPECT_EQ(got.iterations, expect.iterations);
    EXPECT_EQ(got.converged, expect.converged);
    double max_abs = 0.0;
    for (std::size_t i = 0; i < got.score.size(); ++i) {
      max_abs = std::max(max_abs, std::fabs(got.score[i] - expect.score[i]));
    }
    // Identical adjacency-order accumulation; only the dangling-mass
    // reduction order differs from the OpenMP single-process kernel.
    EXPECT_LE(max_abs, 1e-12) << "pr parity failed, workers=" << workers;
  });
}

TEST(DistParityTest, BfsMatchesSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_bfs_parity(g, w, 0);
}

TEST(DistParityTest, BfsMatchesSingleProcessDirected) {
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_bfs_parity(g, w, 1);
}

TEST(DistParityTest, BoundedBfsHonorsMaxDepth) {
  const CsrGraph g = test_rmat(10, false);
  BfsOptions opts;
  opts.max_depth = 2;
  const auto expect = bfs(g, 0, opts).distance;
  with_coordinator(g, 3, [&](Coordinator& c) {
    EXPECT_EQ(c.bfs_distances(0, 2), expect);
  });
}

TEST(DistParityTest, ComponentsMatchSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_cc_parity(g, w);
}

TEST(DistParityTest, ComponentsMatchSingleProcessDirected) {
  // Weak components: a directed arc still merges its endpoints.
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_cc_parity(g, w);
}

TEST(DistParityTest, PageRankMatchesSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_pr_parity(g, w);
}

TEST(DistParityTest, PageRankMatchesSingleProcessDirected) {
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_pr_parity(g, w);
}

TEST(DistParityTest, DisconnectedSourcesAndIsolatedVertices) {
  const CsrGraph g =
      make_undirected(9, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});  // 3,7,8 isolated
  with_coordinator(g, 4, [&](Coordinator& c) {
    EXPECT_EQ(c.bfs_distances(4), testing::reference_bfs_distances(g, 4));
    EXPECT_EQ(c.components(), weak_components(g));
  });
}

TEST(DistParityTest, KernelsAreRerunnableOnOneCoordinator) {
  const CsrGraph g = test_rmat(10, false);
  with_coordinator(g, 2, [&](Coordinator& c) {
    const auto d0 = c.bfs_distances(0);
    EXPECT_EQ(c.bfs_distances(0), d0);  // state fully reset between runs
    const auto cc = c.components();
    EXPECT_EQ(c.components(), cc);
    EXPECT_EQ(c.bfs_distances(7), bfs(g, 7).distance);
  });
}

TEST(DistParityTest, ReloadingADifferentGraphWorks) {
  const CsrGraph a = test_rmat(9, false);
  const CsrGraph b = test_rmat(10, true);
  with_coordinator(a, 2, [&](Coordinator& c) {
    EXPECT_EQ(c.components(), weak_components(a));
    c.load_graph(b);
    EXPECT_EQ(c.components(), weak_components(b));
    EXPECT_EQ(c.bfs_distances(0), bfs(b, 0).distance);
  });
}

TEST(DistParityTest, StatsCountTrafficAndSteps) {
  const CsrGraph g = test_rmat(9, false);
  with_coordinator(g, 2, [&](Coordinator& c) {
    const DistStats before = c.stats();
    EXPECT_GT(before.messages_sent, 0);  // hello + load traffic
    c.bfs_distances(0);
    const DistStats& k = c.last_kernel_stats();
    EXPECT_GT(k.steps, 0);
    EXPECT_GT(k.messages_sent, 0);
    EXPECT_GT(k.bytes_received, 0);
    const DistStats after = c.stats();
    EXPECT_GE(after.messages_sent, before.messages_sent + k.messages_sent);
    EXPECT_EQ(after.steps, k.steps);
  });
}

// ------------------------------------------------------------- betweenness

/// Single-process reference at one thread (the fine plan) over the same
/// source list the dist engine will run — the contract is bit-identical
/// scores.
std::vector<double> reference_bc(const CsrGraph& g,
                                 const BetweennessOptions& opts,
                                 std::vector<vid>* sources_out = nullptr) {
  const GraphView v(g);
  if (sources_out) *sources_out = choose_sources(v, opts);
  set_num_threads(1);
  auto score = betweenness_centrality(v, opts).score;
  set_num_threads(0);
  return score;
}

/// Dist bc over the workers of `set` must equal the single-process
/// reference bit for bit.
void expect_bc_bit_parity_on(const LocalWorkerSet& set, const CsrGraph& g,
                             const BetweennessOptions& opts) {
  std::vector<vid> sources;
  const std::vector<double> expect = reference_bc(g, opts, &sources);
  Coordinator coord;
  coord.connect(set.ports());
  coord.load_graph(g);
  const std::vector<double> got = coord.betweenness(sources);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise, not approximate: the dist engine replays the fine plan's
    // exact add order through the shared 4-lane rows.
    ASSERT_EQ(got[i], expect[i])
        << "bc score diverged at vertex " << i << " (workers="
        << set.ports().size() << " fork=" << set.fork_mode() << ")";
  }
  coord.shutdown();
}

void expect_bc_bit_parity(const CsrGraph& g, int workers, bool fork_mode,
                          int worker_threads,
                          const BetweennessOptions& opts = {.num_sources = 24,
                                                            .seed = 5}) {
  LocalWorkerSetOptions wopts;
  wopts.num_workers = workers;
  wopts.fork_mode = fork_mode;
  wopts.threads = worker_threads;
  LocalWorkerSet set(wopts);
  expect_bc_bit_parity_on(set, g, opts);
}

TEST(DistBcTest, BitIdenticalToFineModeAcrossWorkerCounts) {
  const CsrGraph g = test_rmat(10, false);
  for (const int w : {1, 2, 4}) {
    expect_bc_bit_parity(g, w, /*fork_mode=*/false, /*worker_threads=*/1);
  }
}

TEST(DistBcTest, BitIdenticalInForkMode) {
  const CsrGraph g = test_rmat(10, false);
  for (const int w : {1, 2, 4}) {
    expect_bc_bit_parity(g, w, /*fork_mode=*/true, /*worker_threads=*/1);
  }
}

TEST(DistBcTest, BitIdenticalWithMultithreadedWorkers) {
  // The fork-mode half is DistForkFirstTest below: it must fork before
  // this process runs any OpenMP region.
  const CsrGraph g = test_rmat(10, false);
  expect_bc_bit_parity(g, 2, /*fork_mode=*/false, /*worker_threads=*/2);
}

TEST(DistBcTest, BitIdenticalToHybridSweepOnShapes) {
  // The dist worker pulls sigma top-down only, so it is the independent
  // reference for the single-process hybrid sweep: a star (one fat level,
  // bottom-up), a long path (top-down only), two components (a sparse
  // piece, a dense piece, and unreached vertices with stale sigma), and a
  // low-diameter R-MAT where bottom-up levels engage mid-search. The
  // worker never folds leaves, so the leaf-heavy inputs pin the
  // single-process leaf fold too: the atlflood mention graph (51% leaves)
  // with sampled sources; a caterpillar with every vertex a source, so
  // leaves are sources too; and a hub with leaves beside an isolated edge,
  // a vertex whose only entry is a self-loop (both stay core) and an
  // isolated vertex.
  RmatOptions r;
  r.scale = 11;
  r.edge_factor = 16;
  r.seed = 3;
  const CsrGraph two_components = make_undirected(
      13, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}, {6, 8}, {6, 9},
           {7, 8}, {7, 9}, {8, 9}, {9, 10}, {10, 11}, {10, 12}});
  expect_bc_bit_parity(star_graph(64), 2, false, 1, {});
  expect_bc_bit_parity(path_graph(200), 2, false, 1, {});
  expect_bc_bit_parity(two_components, 2, false, 1, {});
  expect_bc_bit_parity(rmat_graph(r), 2, false, 1,
                       {.num_sources = 128, .seed = 7});
  const CsrGraph hub = make_undirected(
      12, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {5, 6}, {5, 7}, {8, 9},
           {10, 10}});
  expect_bc_bit_parity(mention_lwcc("atlflood"), 2, false, 1,
                       {.num_sources = 64, .seed = 5});
  expect_bc_bit_parity(caterpillar(40, 3), 2, false, 1, {});
  expect_bc_bit_parity(hub, 2, false, 1, {});
}

TEST(DistBcTest, DisconnectedGraphAndIsolatedSources) {
  const CsrGraph g =
      make_undirected(9, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});  // 3,7,8 isolated
  std::vector<vid> sources;
  const auto expect = reference_bc(g, {}, &sources);
  with_coordinator(g, 4, [&](Coordinator& c) {
    EXPECT_EQ(c.betweenness(sources), expect);
  });
}

TEST(DistBcTest, RejectsDirectedGraphsAndBadSources) {
  const CsrGraph g = make_directed(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.directed());
  with_coordinator(g, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.betweenness(std::vector<vid>{0}), Error);
  });
  const CsrGraph u = test_rmat(8, false);
  with_coordinator(u, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.betweenness(std::vector<vid>{}), Error);
    EXPECT_THROW(c.betweenness(std::vector<vid>{u.num_vertices()}), Error);
  });
}

// ----------------------------------------------------------------- failure

TEST(DistFailureTest, DeadWorkerCancelsKernelWithExplicitError) {
  const CsrGraph g = test_rmat(10, false);
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 3;
  wopts.fail_worker = 1;
  wopts.fail_after = 4;  // dies mid-kernel, after handshake + loads
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);

  try {
    coord.components();
    FAIL() << "expected the kernel to be cancelled by the dead worker";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("job cancelled"), std::string::npos) << what;
  }
  EXPECT_TRUE(coord.degraded());

  // No wedge: later kernel calls fail fast with the stored reason instead
  // of touching dead sockets.
  try {
    coord.bfs_distances(0);
    FAIL() << "expected degraded coordinator to fail fast";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("degraded"), std::string::npos);
  }

  // The graph itself stays fully serviceable through single-process runs.
  EXPECT_EQ(weak_components(g).size(),
            static_cast<std::size_t>(g.num_vertices()));
  coord.shutdown();  // must not throw or hang on a degraded substrate
}

TEST(DistFailureTest, DeadWorkerMidForwardSweepCancelsExactlyThatJob) {
  const CsrGraph g = test_rmat(9, false);
  const std::vector<vid> sources{0, 3, 5};
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 3;
  wopts.fail_worker = 1;
  // Per-worker receive order: hello, load, kBcStart, kBcSource, then the
  // first kBcForward — dying on message 5 is mid-forward-sweep.
  wopts.fail_after = 5;
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  try {
    coord.betweenness(sources);
    FAIL() << "expected the bc job to be cancelled by the dead worker";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("bc"), std::string::npos) << what;
    EXPECT_NE(what.find("job cancelled"), std::string::npos) << what;
  }
  EXPECT_TRUE(coord.degraded());
  EXPECT_THROW(coord.betweenness(sources), Error);  // fast-fail, no wedge
  // Single-process betweenness on the same graph is untouched.
  BetweennessOptions three;
  three.num_sources = 3;
  EXPECT_EQ(betweenness_centrality(GraphView(g), three).score.size(),
            static_cast<std::size_t>(g.num_vertices()));
  coord.shutdown();
}

TEST(DistFailureTest, DeadWorkerMidBackwardSweepCancelsExactlyThatJob) {
  const CsrGraph g = test_rmat(9, false);
  const std::vector<vid> sources{0, 3, 5};
  // Derive the injection point from a healthy run: every kernel message is
  // one frame per worker, so per-worker kernel traffic is uniform. The
  // final two frames a worker receives are the last source's deepest-to-
  // shallowest kBcBackward(d=0) and then kBcScores — dying one frame
  // before the end lands mid-backward-sweep.
  std::int64_t per_worker = 0;
  {
    LocalWorkerSetOptions hopts;
    hopts.num_workers = 3;
    LocalWorkerSet healthy(hopts);
    Coordinator coord;
    coord.connect(healthy.ports());
    coord.load_graph(g);
    coord.betweenness(sources);
    ASSERT_EQ(coord.last_kernel_stats().messages_sent % 3, 0);
    per_worker = coord.last_kernel_stats().messages_sent / 3;
    coord.shutdown();
  }
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 3;
  wopts.fail_worker = 2;
  wopts.fail_after = 2 + per_worker - 1;  // hello + load + all but kBcScores
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  try {
    coord.betweenness(sources);
    FAIL() << "expected the bc job to be cancelled by the dead worker";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 2"), std::string::npos) << what;
    EXPECT_NE(what.find("job cancelled"), std::string::npos) << what;
  }
  EXPECT_TRUE(coord.degraded());
  EXPECT_THROW(coord.betweenness(sources), Error);
  coord.shutdown();
}

TEST(DistFailureTest, DegradedBcRunNeverPoisonsCachedResults) {
  Toolkit tk(test_rmat(9, false));
  BetweennessOptions opts;
  opts.num_sources = 8;
  set_num_threads(1);  // the fine plan, which the dist engine replays
  const std::vector<double> expect = tk.betweenness(opts).score;
  set_num_threads(0);

  LocalWorkerSetOptions wopts;
  wopts.num_workers = 2;
  wopts.fail_worker = 0;
  wopts.fail_after = 5;  // dies mid-forward-sweep
  LocalWorkerSet failing(wopts);
  Coordinator coord;
  coord.connect(failing.ports());
  EXPECT_THROW(tk.betweenness_dist(coord, opts), Error);

  // The single-process cache entry is intact, and a fresh healthy worker
  // set computes the dist entry cleanly — bit-identical to the fine plan.
  EXPECT_EQ(tk.betweenness(opts).score, expect);
  LocalWorkerSetOptions hopts;
  hopts.num_workers = 2;
  LocalWorkerSet healthy(hopts);
  Coordinator coord2;
  coord2.connect(healthy.ports());
  EXPECT_EQ(tk.betweenness_dist(coord2, opts).score, expect);
  coord2.shutdown();
}

TEST(DistFailureTest, ConnectToDeadPortFailsExplicitly) {
  Coordinator coord;
  int dead_port;
  {
    // Bind-then-close: the port existed a moment ago and is now free, so
    // connecting to it must fail fast rather than wedge.
    WorkerServer probe;
    dead_port = probe.port();
  }
  EXPECT_THROW(coord.connect({dead_port}), Error);
}

TEST(DistFailureTest, KernelBeforeLoadIsAnError) {
  LocalWorkerSet workers(LocalWorkerSetOptions{.num_workers = 2});
  Coordinator coord;
  coord.connect(workers.ports());
  EXPECT_THROW(coord.components(), Error);
  EXPECT_THROW(coord.bfs_distances(0), Error);
}

TEST(DistFailureTest, BfsRejectsOutOfRangeSource) {
  const CsrGraph g = make_undirected(4, {{0, 1}, {2, 3}});
  with_coordinator(g, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.bfs_distances(-1), Error);
    EXPECT_THROW(c.bfs_distances(4), Error);
  });
}

// ------------------------------------------------------- worker threading

/// The OpenMP thread count each worker of `set` reports in its handshake
/// reply; each worker is then shut down.
std::vector<std::uint64_t> reported_worker_threads(const LocalWorkerSet& set) {
  std::vector<std::uint64_t> out;
  for (const int port : set.ports()) {
    FrameConn conn = connect_local(port);
    WireWriter hello;
    hello.u64(1);  // protocol version
    conn.send(Msg::kHello, hello.take());
    Msg type;
    std::string payload;
    EXPECT_TRUE(conn.recv(type, payload));
    EXPECT_EQ(type, Msg::kHelloAck);
    WireReader r(payload);
    r.u64();  // protocol version
    r.u64();  // pid
    out.push_back(r.u64());
    conn.send(Msg::kShutdown, "");
    EXPECT_TRUE(conn.recv(type, payload));
  }
  return out;
}

TEST(DistWorkerTest, WorkersRunAtTheirConfiguredThreadCount) {
  // A caller running 4 threads must not leak its team size into workers:
  // library regions a handler reaches without a num_threads clause size
  // their team from the worker's own setting.
  set_num_threads(4);
  struct Case {
    bool fork_mode;
    int threads;
  };
  for (const Case c : {Case{false, 1}, Case{false, 2}, Case{true, 1}}) {
    LocalWorkerSetOptions wopts;
    wopts.num_workers = 2;
    wopts.fork_mode = c.fork_mode;
    wopts.threads = c.threads;
    LocalWorkerSet set(wopts);
    for (const std::uint64_t t : reported_worker_threads(set)) {
      EXPECT_EQ(t, static_cast<std::uint64_t>(c.threads))
          << "fork=" << c.fork_mode;
    }
  }
  set_num_threads(0);
}

// --------------------------------------------------------------- fork mode

TEST(DistForkTest, ForkedWorkersMatchSingleProcess) {
  // Genuine multi-process execution: each worker is a fork()ed child.
  const CsrGraph g = test_rmat(10, false);
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 2;
  wopts.fork_mode = true;
  LocalWorkerSet workers(wopts);
  ASSERT_TRUE(workers.fork_mode());
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  EXPECT_EQ(coord.components(), weak_components(g));
  EXPECT_EQ(coord.bfs_distances(0), bfs(g, 0).distance);
  coord.shutdown();
  workers.stop();  // children exited on kShutdown; reap must not hang
}

/// Fork-mode workers with OpenMP teams of their own are safe only when
/// forked before this process runs any OpenMP region
/// (dist/local_worker_set.hpp). So this test builds its worker set before
/// anything else, and tests/CMakeLists.txt runs it as its own ctest entry,
/// filtered out of the main dist_test entry.
TEST(DistForkFirstTest, BitIdenticalWithMultithreadedForkWorkers) {
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 2;
  wopts.fork_mode = true;
  wopts.threads = 2;
  LocalWorkerSet set(wopts);
  ASSERT_TRUE(set.fork_mode());
  ASSERT_EQ(set.ports().size(), 2u);
  expect_bc_bit_parity_on(set, test_rmat(10, false),
                          {.num_sources = 24, .seed = 5});
}

// -------------------------------------------------------------------- wire

TEST(WireTest, ArraysRoundTripIncludingEmpty) {
  // A zero-length array decodes into a vector that never allocated, whose
  // data() is null: the reader must not pass it to memcpy.
  const std::vector<std::int64_t> ints{-3, 0, std::int64_t{1} << 40};
  const std::vector<double> reals{0.5, -0.0, 1e300};
  WireWriter w;
  w.i64_span({});
  w.f64_span({});
  w.i64_span(ints);
  w.f64_span(reals);
  const std::string payload = w.take();
  WireReader r(payload);
  std::vector<std::int64_t> empty_ints, got_ints;
  std::vector<double> empty_reals, got_reals;
  r.i64_vec(empty_ints);
  r.f64_vec(empty_reals);
  r.i64_vec(got_ints);
  r.f64_vec(got_reals);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(empty_ints.empty());
  EXPECT_TRUE(empty_reals.empty());
  EXPECT_EQ(got_ints, ints);
  ASSERT_EQ(got_reals.size(), reals.size());
  for (std::size_t i = 0; i < reals.size(); ++i) {
    EXPECT_EQ(std::signbit(got_reals[i]), std::signbit(reals[i]));
    EXPECT_EQ(got_reals[i], reals[i]);
  }
}

}  // namespace
}  // namespace graphct::dist
