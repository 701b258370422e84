#pragma once

/// \file graph_store.hpp
/// Mmap-backed packed graph store: the out-of-core CSR representation.
///
/// A GraphStore maps a packed file (see packed_format.hpp) and serves
/// adjacency through the same `degree()` / `neighbors()` shape as CsrGraph,
/// so kernels run over either via GraphView. Offsets and the block index
/// live uncompressed in the mapping; neighbor values decode per block on
/// first touch into a per-thread BlockCache with a byte budget. With the
/// pass-through codec (Codec::kNone) neighbor spans point straight into the
/// mapping and no decode or cache is involved — the zero-cost path for
/// graphs that fit DRAM.
///
/// Thread safety: all accessors are const and safe to call concurrently.
/// Each thread lazily binds its own BlockCache (owned by the store), so the
/// decode path is lock-free after the first touch per thread. This holds up
/// under nested OpenMP regions (coarse BC teams), where omp_get_thread_num()
/// is ambiguous — binding is by thread identity, not OpenMP id.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/block_cache.hpp"
#include "storage/mmap_file.hpp"
#include "storage/packed_format.hpp"

namespace graphct::obs {
class Counter;
}

namespace graphct::storage {

/// Options for opening a packed graph.
struct StoreOptions {
  /// Per-thread decoded-block cache budget. The working set is
  /// budget x threads; keep it well under the raw adjacency size or the
  /// store is just a slow copy of DRAM.
  std::uint64_t cache_budget_bytes = std::uint64_t{64} << 20;

  /// Verify the trailer checksum over the whole file at open (one
  /// sequential pass; pages the file in). Off by default so opening a
  /// multi-DRAM graph stays lazy.
  bool verify_checksum = false;
};

class GraphStore {
 public:
  /// Open a packed file. Throws graphct::Error on a missing file, bad
  /// magic, version/codec mismatch, size mismatch, or (when requested)
  /// checksum failure. Neighbor ids are checked on first use, see
  /// check_neighbor_ids().
  explicit GraphStore(const std::string& path, const StoreOptions& opts = {});

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;
  GraphStore(GraphStore&&) = delete;
  GraphStore& operator=(GraphStore&&) = delete;
  ~GraphStore();

  // CsrGraph-shaped properties.
  [[nodiscard]] vid num_vertices() const { return header_->num_vertices; }
  [[nodiscard]] eid num_adjacency_entries() const {
    return header_->num_entries;
  }
  [[nodiscard]] eid num_edges() const {
    return directed() ? header_->num_entries
                      : (header_->num_entries + header_->num_self_loops) / 2;
  }
  [[nodiscard]] bool directed() const {
    return (header_->flags & kPackedFlagDirected) != 0;
  }
  [[nodiscard]] vid num_self_loops() const { return header_->num_self_loops; }
  [[nodiscard]] bool sorted_adjacency() const {
    return (header_->flags & kPackedFlagSorted) != 0;
  }
  [[nodiscard]] std::span<const eid> offsets() const {
    return {offsets_, static_cast<std::size_t>(num_vertices()) + 1};
  }
  [[nodiscard]] vid degree(vid v) const {
    return static_cast<vid>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v. Pass-through codec: a span into the mapping, as cheap
  /// as CsrGraph. Varint codec: a span into this thread's decoded-block
  /// cache, valid until two further blocks are touched on this thread.
  [[nodiscard]] std::span<const vid> neighbors(vid v) const {
    const eid lo = offsets_[v];
    const eid hi = offsets_[v + 1];
    if (raw_adjacency_ != nullptr) {
      return {raw_adjacency_ + lo, static_cast<std::size_t>(hi - lo)};
    }
    return cached_neighbors(v, lo, hi);
  }

  /// Throws graphct::Error unless every neighbor id lies in [0, n):
  /// kernels index per-vertex arrays with them unchecked. The first call
  /// that succeeds runs one sequential O(m) pass (raw ids scanned in place,
  /// varint blocks decoded one at a time into a scratch buffer, not through
  /// the block cache); later calls return at once. GraphView calls it when
  /// built over a store, so the check runs before any kernel's OpenMP
  /// region, where a throw would end the process instead of reaching the
  /// caller.
  void check_neighbor_ids() const;

  /// Non-null iff the pass-through codec is active (adjacency mmap'd raw).
  [[nodiscard]] const vid* raw_adjacency() const { return raw_adjacency_; }

  // Storage properties.
  [[nodiscard]] Codec codec() const {
    return static_cast<Codec>(header_->codec);
  }
  [[nodiscard]] std::int64_t num_blocks() const { return header_->num_blocks; }
  [[nodiscard]] std::uint64_t block_target_bytes() const {
    return header_->block_target_bytes;
  }
  [[nodiscard]] std::uint64_t packed_payload_bytes() const {
    return header_->payload_bytes;
  }
  [[nodiscard]] std::uint64_t raw_adjacency_bytes() const {
    return static_cast<std::uint64_t>(header_->num_entries) * sizeof(vid);
  }
  [[nodiscard]] std::uint64_t file_bytes() const { return header_->file_bytes; }
  [[nodiscard]] double compression_ratio() const {
    return header_->payload_bytes == 0
               ? 1.0
               : static_cast<double>(raw_adjacency_bytes()) /
                     static_cast<double>(header_->payload_bytes);
  }
  [[nodiscard]] std::uint64_t cache_budget_bytes() const {
    return opts_.cache_budget_bytes;
  }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

  /// Decode the whole graph back into an in-memory CsrGraph.
  [[nodiscard]] CsrGraph materialize() const;

  /// Sum of all per-thread cache stats (snapshot; other threads may be
  /// decoding concurrently).
  [[nodiscard]] BlockCache::Stats cache_stats() const;

  /// True if the file at path begins with the packed magic.
  static bool sniff(const std::string& path);

 private:
  [[nodiscard]] std::span<const vid> cached_neighbors(vid v, eid lo,
                                                      eid hi) const;
  [[nodiscard]] BlockCache& local_cache() const;
  [[nodiscard]] std::int64_t block_of(vid v) const;
  const BlockCache::Decoded& decode_block_into(BlockCache& cache,
                                               std::int64_t block) const;

  MmapFile file_;
  StoreOptions opts_;
  const PackedHeader* header_ = nullptr;
  const eid* offsets_ = nullptr;
  const BlockIndexEntry* index_ = nullptr;
  const std::uint8_t* payload_ = nullptr;
  const vid* raw_adjacency_ = nullptr;  ///< non-null for Codec::kNone

  /// Unique per-store id for thread-local cache binding; a destroyed
  /// store's id is never reused, so stale bindings can never resolve.
  std::uint64_t store_id_ = 0;

  mutable std::mutex ids_mu_;  ///< serializes check_neighbor_ids()
  mutable std::atomic<bool> ids_checked_{false};

  mutable std::mutex caches_mu_;
  mutable std::vector<std::unique_ptr<BlockCache>> caches_;

  // Cached obs metric handles (registry references are stable).
  obs::Counter* m_blocks_decoded_ = nullptr;
  obs::Counter* m_decoded_bytes_ = nullptr;
  obs::Counter* m_payload_bytes_read_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_evictions_ = nullptr;
};

}  // namespace graphct::storage
