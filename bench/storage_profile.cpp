/// \file storage_profile.cpp
/// Packed-store decode overhead and parity bench: generates an R-MAT graph,
/// packs it with the varint block codec, reopens it as an mmap-backed
/// GraphStore under a block-cache budget well below the raw adjacency size,
/// and runs BFS, connected components, and betweenness over both backends.
/// Betweenness runs twice over the store: "bc" with the default budget,
/// which reads the store once into the per-call layout, and "bc_streamed"
/// with a budget too small for any layout, so both sweeps decode through
/// the block cache (the out-of-core path).
///
/// Each kernel's results must be exactly identical across backends — any
/// mismatch exits non-zero, making this the CI gate for the storage
/// subsystem. stdout carries one JSON object per line ("bench":
/// "storage_profile"): a pack row with compression stats and one row per
/// kernel with in-memory vs store seconds, decode overhead, and the decode /
/// block-cache counter deltas. Progress goes to stderr.
///
///   ./storage_profile [--scale 18] [--sources 32] [--threads N] [--quick]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "algs/bc_layout.hpp"
#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "core/betweenness.hpp"
#include "gen/rmat.hpp"
#include "storage/graph_store.hpp"
#include "storage/graph_view.hpp"
#include "storage/packed_writer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace graphct;

struct KernelRow {
  std::string kernel;
  double seconds_mem = 0.0;
  double seconds_store = 0.0;
  bool parity = false;
  int threads = 1;
  storage::BlockCache::Stats cache;  ///< counter delta across the store run
};

std::string json_bool(bool b) { return b ? "true" : "false"; }

/// Time one kernel over both backends and verify exact result equality.
/// `kernel` may tell the two calls apart by GraphView::store_backed().
template <typename Fn>
KernelRow run_kernel(const std::string& name, const CsrGraph& mem,
                     const storage::GraphStore& store, Fn&& kernel) {
  KernelRow row;
  row.kernel = name;
  row.threads = effective_num_threads();

  Timer t;
  const auto expected = kernel(GraphView(mem));
  row.seconds_mem = t.seconds();

  const auto before = store.cache_stats();
  t.restart();
  const auto got = kernel(GraphView(store));
  row.seconds_store = t.seconds();
  const auto after = store.cache_stats();
  row.cache.hits = after.hits - before.hits;
  row.cache.misses = after.misses - before.misses;
  row.cache.evictions = after.evictions - before.evictions;
  row.cache.decoded_bytes = after.decoded_bytes - before.decoded_bytes;
  row.cache.resident_bytes = after.resident_bytes;

  row.parity = (expected == got);
  std::cerr << "  " << name << ": mem " << format_duration(row.seconds_mem)
            << ", store " << format_duration(row.seconds_store) << " ("
            << (row.parity ? "parity OK" : "PARITY FAILED") << ")\n";
  return row;
}

void print_kernel_row(const KernelRow& r, const std::string& meta) {
  const double overhead =
      r.seconds_mem > 0.0 ? r.seconds_store / r.seconds_mem : 0.0;
  std::printf(
      "{%s\"row\":\"kernel\",\"kernel\":\"%s\",\"threads\":%d,"
      "\"seconds_mem\":%.6f,\"seconds_store\":%.6f,\"overhead\":%.3f,"
      "\"parity\":%s,\"blocks_decoded\":%lld,\"decoded_bytes\":%llu,"
      "\"cache_hits\":%lld,\"cache_misses\":%lld,\"cache_evictions\":%lld}\n",
      meta.c_str(), r.kernel.c_str(), r.threads, r.seconds_mem,
      r.seconds_store, overhead, json_bool(r.parity).c_str(),
      static_cast<long long>(r.cache.misses),
      static_cast<unsigned long long>(r.cache.decoded_bytes),
      static_cast<long long>(r.cache.hits),
      static_cast<long long>(r.cache.misses),
      static_cast<long long>(r.cache.evictions));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv,
            {{"scale", "R-MAT scale"},
             {"sources", "BC source sample"},
             {"threads", "OpenMP thread count (0 = runtime default)"},
             {"quick", "small graph for CI!"}});
    const auto scale = cli.has("quick") ? std::int64_t{12}
                                        : cli.get("scale", std::int64_t{18});
    const auto sources = cli.has("quick")
                             ? std::int64_t{16}
                             : cli.get("sources", std::int64_t{32});
    const auto threads = cli.get("threads", std::int64_t{0});
    set_num_threads(threads);  // throws outside [0, kMaxThreads]

    RmatOptions r;
    r.scale = scale;
    r.edge_factor = 16;
    CsrGraph g = rmat_graph(r);
    g.sort_adjacency();  // varint delta-gap coding needs ascending lists

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("gct_storage_profile_" + std::to_string(scale) + ".gctp"))
            .string();

    Timer t;
    const auto pack = storage::pack_graph(g, path, {});
    const double pack_seconds = t.seconds();

    // The point of the store is running kernels without the decoded
    // adjacency resident: budget the block cache at 1/8 of the raw
    // adjacency bytes (floor 64 KiB) so the run sustains eviction churn.
    storage::StoreOptions sopts;
    sopts.cache_budget_bytes =
        std::max<std::uint64_t>(pack.raw_adjacency_bytes / 8, 64ull << 10);
    storage::GraphStore store(path, sopts);

    std::cerr << "storage_profile: scale-" << scale << " R-MAT, "
              << with_commas(g.num_vertices()) << " vertices, "
              << with_commas(g.num_edges()) << " edges; " << pack.num_blocks
              << " blocks, ratio " << pack.compression_ratio << "x, cache "
              << (sopts.cache_budget_bytes >> 10) << " KiB/thread\n";

    const std::string meta =
        "\"bench\":\"storage_profile\",\"scale\":" + std::to_string(scale) +
        ",\"edge_factor\":" + std::to_string(r.edge_factor) +
        ",\"hw_concurrency\":" +
        std::to_string(std::thread::hardware_concurrency()) + ",";
    std::printf(
        "{%s\"row\":\"pack\",\"codec\":\"varint\",\"blocks\":%lld,"
        "\"payload_bytes\":%llu,\"raw_adjacency_bytes\":%llu,"
        "\"file_bytes\":%llu,\"compression_ratio\":%.4f,"
        "\"cache_budget_bytes\":%llu,\"pack_seconds\":%.6f}\n",
        meta.c_str(), static_cast<long long>(pack.num_blocks),
        static_cast<unsigned long long>(pack.payload_bytes),
        static_cast<unsigned long long>(pack.raw_adjacency_bytes),
        static_cast<unsigned long long>(pack.file_bytes),
        pack.compression_ratio,
        static_cast<unsigned long long>(sopts.cache_budget_bytes),
        pack_seconds);
    std::fflush(stdout);

    Rng rng(42);
    const vid source = static_cast<vid>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));

    bool all_parity = true;
    {
      const auto row = run_kernel(
          "bfs", g, store,
          [&](const GraphView& view) { return bfs(view, source).distance; });
      print_kernel_row(row, meta);
      all_parity = all_parity && row.parity;
    }
    {
      const auto row = run_kernel("components", g, store,
                                  [&](const GraphView& view) {
                                    return connected_components(view);
                                  });
      print_kernel_row(row, meta);
      all_parity = all_parity && row.parity;
    }
    {
      // Byte-identical BC scores need one thread (the fine plan): a coarse
      // team's buffer sums depend on which thread ran which source.
      set_num_threads(1);
      const auto row = run_kernel("bc", g, store, [&](const GraphView& view) {
        BetweennessOptions o;
        o.num_sources = sources;
        o.seed = 5;
        return betweenness_centrality(view, o).score;
      });
      set_num_threads(threads);
      print_kernel_row(row, meta);
      all_parity = all_parity && row.parity;
    }
    {
      // The out-of-core path: the store call's budget is one byte below its
      // identity layout, so both sweeps stream through the block cache,
      // unfolded, while the DRAM call keeps the default, leaf-folded
      // layout. Each source decodes the store many times over, so the row
      // runs a quarter of the sources.
      set_num_threads(1);
      const std::uint64_t no_layout =
          BcLayout::bytes(g.num_vertices(), g.num_adjacency_entries(),
                          /*folded=*/false) -
          1;
      const auto row = run_kernel(
          "bc_streamed", g, store, [&](const GraphView& view) {
            BetweennessOptions o;
            o.num_sources = std::max<std::int64_t>(sources / 4, 1);
            o.seed = 5;
            if (view.store_backed()) o.score_memory_budget_bytes = no_layout;
            return betweenness_centrality(view, o).score;
          });
      set_num_threads(threads);
      print_kernel_row(row, meta);
      all_parity = all_parity && row.parity;
    }

    std::remove(path.c_str());
    if (!all_parity) {
      std::cerr << "storage_profile: PARITY FAILURE — store-backed kernel "
                   "results differ from the in-memory CSR results\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
