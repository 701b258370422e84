#include "storage/graph_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>

#include "obs/metrics.hpp"
#include "storage/block_codec.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace graphct::storage {

namespace {

std::uint64_t next_store_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Throws unless every id lies in [0, n).
void check_ids(std::span<const vid> ids, vid n, const std::string& path) {
  for (const vid u : ids) {
    GCT_CHECK(static_cast<std::uint64_t>(u) < static_cast<std::uint64_t>(n),
              "packed graph '" + path + "': neighbor id " +
                  std::to_string(u) + " outside [0, " + std::to_string(n) +
                  ") — corrupt file");
  }
}

}  // namespace

GraphStore::GraphStore(const std::string& path, const StoreOptions& opts)
    : file_(path), opts_(opts), store_id_(next_store_id()) {
  GCT_CHECK(file_.size() >= sizeof(PackedHeader) + sizeof(PackedTrailer),
            "packed graph '" + path + "': file too small to hold a header (" +
                std::to_string(file_.size()) + " bytes) — truncated?");
  header_ = reinterpret_cast<const PackedHeader*>(file_.data());
  GCT_CHECK(std::memcmp(header_->magic, kPackedMagic, 8) == 0,
            "packed graph '" + path +
                "': bad magic — not a packed graph file");
  GCT_CHECK(header_->version == kPackedVersion,
            "packed graph '" + path + "': unsupported format version " +
                std::to_string(header_->version) + " (expected " +
                std::to_string(kPackedVersion) + ")");
  GCT_CHECK(header_->codec == static_cast<std::uint32_t>(Codec::kNone) ||
                header_->codec == static_cast<std::uint32_t>(Codec::kVarint),
            "packed graph '" + path + "': unknown codec id " +
                std::to_string(header_->codec));
  GCT_CHECK(header_->file_bytes == file_.size(),
            "packed graph '" + path + "': size mismatch — header says " +
                std::to_string(header_->file_bytes) + " bytes, file has " +
                std::to_string(file_.size()) + " (truncated or corrupt)");
  GCT_CHECK(header_->num_vertices >= 0 && header_->num_entries >= 0 &&
                header_->num_blocks >= 0,
            "packed graph '" + path + "': negative counts in header");

  const std::uint64_t n = static_cast<std::uint64_t>(header_->num_vertices);
  const std::uint64_t offsets_bytes = (n + 1) * sizeof(eid);
  const std::uint64_t index_bytes =
      (static_cast<std::uint64_t>(header_->num_blocks) + 1) *
      sizeof(BlockIndexEntry);
  GCT_CHECK(header_->offsets_off == sizeof(PackedHeader) &&
                header_->index_off == header_->offsets_off + offsets_bytes &&
                header_->payload_off == header_->index_off + index_bytes &&
                header_->payload_off + header_->payload_bytes +
                        sizeof(PackedTrailer) ==
                    header_->file_bytes,
            "packed graph '" + path + "': inconsistent section offsets");

  // The trailer follows the payload, whose length is any byte count, so
  // it is copied out rather than read in place at a misaligned address.
  PackedTrailer trailer{};
  std::memcpy(&trailer, file_.data() + file_.size() - sizeof(PackedTrailer),
              sizeof(PackedTrailer));
  GCT_CHECK(std::memcmp(trailer.magic, kPackedEndMagic, 8) == 0,
            "packed graph '" + path +
                "': missing end marker — file truncated?");
  if (opts_.verify_checksum) {
    const std::uint64_t got =
        fnv1a64(file_.data(), file_.size() - sizeof(PackedTrailer));
    GCT_CHECK(got == trailer.checksum,
              "packed graph '" + path + "': checksum mismatch (stored " +
                  std::to_string(trailer.checksum) + ", computed " +
                  std::to_string(got) + ") — file corrupt");
  }

  offsets_ = reinterpret_cast<const eid*>(file_.data() + header_->offsets_off);
  index_ = reinterpret_cast<const BlockIndexEntry*>(file_.data() +
                                                    header_->index_off);
  payload_ = file_.data() + header_->payload_off;

  // Offsets sanity: monotone, spanning exactly num_entries. Linear, but a
  // single sequential pass over the (uncompressed) offsets section; decode
  // trusts these bounds afterwards.
  GCT_CHECK(offsets_[0] == 0, "packed graph '" + path +
                                  "': offsets must start at 0");
  for (std::uint64_t v = 0; v < n; ++v) {
    GCT_CHECK(offsets_[v] <= offsets_[v + 1],
              "packed graph '" + path + "': offsets not monotone at vertex " +
                  std::to_string(v) + " — corrupt file");
  }
  GCT_CHECK(offsets_[n] == header_->num_entries,
            "packed graph '" + path +
                "': offsets do not span num_entries — corrupt file");

  // Block index sanity.
  const std::int64_t nb = header_->num_blocks;
  if (nb > 0) {
    GCT_CHECK(index_[0].first_vertex == 0 && index_[0].byte_offset == 0,
              "packed graph '" + path + "': block index must start at 0");
  }
  for (std::int64_t b = 0; b < nb; ++b) {
    GCT_CHECK(index_[b].first_vertex < index_[b + 1].first_vertex &&
                  index_[b].byte_offset <= index_[b + 1].byte_offset,
              "packed graph '" + path + "': block index not monotone");
  }
  GCT_CHECK(index_[nb].first_vertex == header_->num_vertices &&
                index_[nb].byte_offset == header_->payload_bytes,
            "packed graph '" + path + "': block index sentinel mismatch");

  if (codec() == Codec::kNone) {
    GCT_CHECK(header_->payload_bytes == raw_adjacency_bytes(),
              "packed graph '" + path +
                  "': pass-through payload size mismatch");
    GCT_CHECK(header_->payload_off % alignof(vid) == 0,
              "packed graph '" + path + "': misaligned raw payload");
    raw_adjacency_ = reinterpret_cast<const vid*>(payload_);
  } else {
    file_.advise_random();
  }

  auto& reg = obs::registry();
  m_blocks_decoded_ = &reg.counter("gct_storage_blocks_decoded_total");
  m_decoded_bytes_ = &reg.counter("gct_storage_decoded_bytes_total");
  m_payload_bytes_read_ = &reg.counter("gct_storage_payload_bytes_read_total");
  m_cache_hits_ = &reg.counter("gct_storage_block_cache_hits_total");
  m_cache_misses_ = &reg.counter("gct_storage_block_cache_misses_total");
  m_cache_evictions_ = &reg.counter("gct_storage_block_cache_evictions_total");
}

GraphStore::~GraphStore() = default;

bool GraphStore::sniff(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kPackedMagic, 8) == 0;
}

void GraphStore::check_neighbor_ids() const {
  if (ids_checked_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(ids_mu_);
  if (ids_checked_.load(std::memory_order_relaxed)) return;
  // A throw leaves the flag unset, so every later use of a corrupt store
  // fails the same way.
  if (raw_adjacency_ != nullptr) {
    const auto m = static_cast<std::size_t>(num_adjacency_entries());
    check_ids({raw_adjacency_, m}, num_vertices(), path());
  } else {
    std::vector<vid> ids;
    for (std::int64_t b = 0; b < num_blocks(); ++b) {
      const BlockIndexEntry& e = index_[b];
      const BlockIndexEntry& next = index_[b + 1];
      const vid fv = static_cast<vid>(e.first_vertex);
      const vid ev = static_cast<vid>(next.first_vertex);
      ids.resize(static_cast<std::size_t>(offsets_[ev] - offsets_[fv]));
      decode_block(codec(), offsets(), fv, ev - fv,
                   {payload_ + e.byte_offset, next.byte_offset - e.byte_offset},
                   ids);
      check_ids(ids, num_vertices(), path());
    }
  }
  ids_checked_.store(true, std::memory_order_release);
}

std::int64_t GraphStore::block_of(vid v) const {
  // Largest block whose first_vertex <= v: upper_bound over the index
  // (sentinel included) then step back one.
  const BlockIndexEntry* begin = index_;
  const BlockIndexEntry* end = index_ + header_->num_blocks + 1;
  const BlockIndexEntry* it = std::upper_bound(
      begin, end, v,
      [](vid x, const BlockIndexEntry& e) { return x < e.first_vertex; });
  return static_cast<std::int64_t>(it - begin) - 1;
}

BlockCache& GraphStore::local_cache() const {
  struct Binding {
    std::uint64_t store_id;
    BlockCache* cache;
  };
  // One slot vector per thread. Store ids are never reused, so a binding
  // left behind by a destroyed store can never match again; the vector
  // stays as long as the thread but grows only by live stores touched.
  static thread_local std::vector<Binding> bindings;
  for (const Binding& b : bindings) {
    if (b.store_id == store_id_) return *b.cache;
  }
  BlockCache* cache = nullptr;
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    caches_.push_back(std::make_unique<BlockCache>(opts_.cache_budget_bytes));
    cache = caches_.back().get();
  }
  bindings.push_back(Binding{store_id_, cache});
  return *cache;
}

const BlockCache::Decoded& GraphStore::decode_block_into(
    BlockCache& cache, std::int64_t block) const {
  const BlockIndexEntry& e = index_[block];
  const BlockIndexEntry& next = index_[block + 1];
  const vid first_vertex = static_cast<vid>(e.first_vertex);
  const vid end_vertex = static_cast<vid>(next.first_vertex);
  const eid first_entry = offsets_[first_vertex];
  const eid end_entry = offsets_[end_vertex];
  const std::size_t encoded = next.byte_offset - e.byte_offset;

  BlockCache::Decoded d;
  d.block = block;
  d.first_vertex = first_vertex;
  d.end_vertex = end_vertex;
  d.first_entry = first_entry;
  d.values.resize(static_cast<std::size_t>(end_entry - first_entry));
  decode_block(codec(), offsets(), first_vertex, end_vertex - first_vertex,
               {payload_ + e.byte_offset, encoded},
               {d.values.data(), d.values.size()});

  m_blocks_decoded_->add(1);
  m_decoded_bytes_->add(static_cast<std::int64_t>(d.values.size() * sizeof(vid)));
  m_payload_bytes_read_->add(static_cast<std::int64_t>(encoded));
  return cache.insert(std::move(d));
}

std::span<const vid> GraphStore::cached_neighbors(vid v, eid lo,
                                                  eid hi) const {
  BlockCache& cache = local_cache();
  const BlockCache::Decoded* d = cache.mru();
  if (d != nullptr && v >= d->first_vertex && v < d->end_vertex) {
    cache.note_fast_hit();
    m_cache_hits_->add(1);
  } else {
    const std::int64_t block = block_of(v);
    d = cache.find(block);
    if (d != nullptr) {
      m_cache_hits_->add(1);
    } else {
      m_cache_misses_->add(1);
      const auto evictions_before = cache.stats().evictions;
      d = &decode_block_into(cache, block);
      const auto evicted = cache.stats().evictions - evictions_before;
      if (evicted > 0) m_cache_evictions_->add(evicted);
    }
  }
  return {d->values.data() + static_cast<std::size_t>(lo - d->first_entry),
          static_cast<std::size_t>(hi - lo)};
}

CsrGraph GraphStore::materialize() const {
  std::vector<eid> off(offsets().begin(), offsets().end());
  std::vector<vid> adj(static_cast<std::size_t>(num_adjacency_entries()));
  if (raw_adjacency_ != nullptr) {
    std::memcpy(adj.data(), raw_adjacency_, adj.size() * sizeof(vid));
  } else {
    for (std::int64_t b = 0; b < num_blocks(); ++b) {
      const BlockIndexEntry& e = index_[b];
      const BlockIndexEntry& next = index_[b + 1];
      const vid fv = static_cast<vid>(e.first_vertex);
      const vid ev = static_cast<vid>(next.first_vertex);
      const eid lo = offsets_[fv];
      const eid hi = offsets_[ev];
      decode_block(codec(), offsets(), fv, ev - fv,
                   {payload_ + e.byte_offset, next.byte_offset - e.byte_offset},
                   {adj.data() + lo, static_cast<std::size_t>(hi - lo)});
    }
  }
  return CsrGraph(std::move(off), std::move(adj), directed(),
                  num_self_loops(), sorted_adjacency());
}

BlockCache::Stats GraphStore::cache_stats() const {
  BlockCache::Stats total;
  std::lock_guard<std::mutex> lock(caches_mu_);
  for (const auto& c : caches_) {
    const BlockCache::Stats& s = c->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.decoded_bytes += s.decoded_bytes;
    total.resident_bytes += s.resident_bytes;
  }
  return total;
}

}  // namespace graphct::storage
