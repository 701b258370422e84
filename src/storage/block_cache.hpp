#pragma once

/// \file block_cache.hpp
/// Per-thread decoded-block cache for the packed graph store.
///
/// Each traversal thread owns one BlockCache (created lazily by
/// GraphStore::local_cache), so lookups and evictions take no locks — the
/// same reason the frontier engine keeps per-thread discovery queues. The
/// byte budget bounds the *decoded* bytes resident per thread, mirroring
/// the ResultCache LRU discipline: least-recently-used blocks evict first,
/// but the two most recently used blocks are always retained so that a
/// neighbor span handed to a caller stays valid while it inspects one more
/// span (dual-span patterns like merge intersections).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.hpp"

namespace graphct::storage {

class BlockCache {
 public:
  /// Blocks are never evicted below this resident count, whatever the
  /// budget — span-validity floor for callers holding two spans.
  static constexpr std::size_t kMinResident = 2;

  explicit BlockCache(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

  struct Decoded {
    std::int64_t block = -1;
    vid first_vertex = 0;
    vid end_vertex = 0;    ///< one past the last vertex in the block
    eid first_entry = 0;   ///< global adjacency index of values[0]
    std::vector<vid> values;
    std::uint64_t last_use = 0;
  };

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::uint64_t decoded_bytes = 0;   ///< lifetime decoded output bytes
    std::uint64_t resident_bytes = 0;  ///< current decoded bytes held
  };

  /// The most recently returned block, or nullptr — callers check this
  /// before paying the map lookup + index binary search.
  [[nodiscard]] const Decoded* mru() const { return mru_; }

  /// Look up a block; bumps recency and the hit counter on success.
  [[nodiscard]] const Decoded* find(std::int64_t block) {
    auto it = blocks_.find(block);
    if (it == blocks_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    it->second.last_use = ++tick_;
    mru_ = &it->second;
    return mru_;
  }

  /// Record an MRU fast-path hit (no map lookup happened).
  void note_fast_hit() { ++stats_.hits; }

  /// Insert a freshly decoded block, evicting LRU blocks beyond the byte
  /// budget (but never below kMinResident resident blocks).
  const Decoded& insert(Decoded d);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_; }

 private:
  std::unordered_map<std::int64_t, Decoded> blocks_;
  const Decoded* mru_ = nullptr;
  std::uint64_t tick_ = 0;
  std::uint64_t budget_ = 0;
  Stats stats_;
};

}  // namespace graphct::storage
