#include "util/result_cache.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace graphct {

namespace {

// Process-wide cache traffic, queryable via the server's `metrics` verb
// without parsing per-job response trailers. Per-object counts stay in
// ResultCache::stats(). Resolved once; registry references are stable.
void record_hit() {
  static obs::Counter& c = obs::registry().counter("gct_result_cache_hits_total");
  c.add();
}

void record_miss() {
  static obs::Counter& c =
      obs::registry().counter("gct_result_cache_misses_total");
  c.add();
}

void record_eviction() {
  static obs::Counter& c =
      obs::registry().counter("gct_result_cache_evictions_total");
  c.add();
}

// Estimated bytes pinned across every ResultCache in the process. Caches
// adjust by delta on publish/evict/invalidate/destruction, so the gauge
// tracks the sum of per-object resident_bytes.
void record_resident_delta(double delta) {
  static obs::Gauge& g =
      obs::registry().gauge("gct_result_cache_resident_bytes");
  g.add(delta);
}

// Values handed out by bounded caches on this thread, kept alive until the
// job/command that obtained them finishes (JobQueue releases between jobs).
thread_local std::vector<std::shared_ptr<const void>> t_pins;

// The innermost open HitsOnly scope on this thread, or null.
thread_local ResultCache::HitsOnly* t_hits_only = nullptr;

}  // namespace

ResultCache::HitsOnly::HitsOnly()
    : outer_(t_hits_only), pins_mark_(t_pins.size()) {
  t_hits_only = this;
}

ResultCache::HitsOnly::~HitsOnly() {
  t_hits_only = outer_;
  if (t_pins.size() > pins_mark_) {
    t_pins.erase(t_pins.begin() + static_cast<std::ptrdiff_t>(pins_mark_),
                 t_pins.end());
  }
}

void ResultCache::pin_on_thread(std::shared_ptr<const void> value) {
  if (!t_pins.empty() && t_pins.back() == value) return;  // hot repeat
  t_pins.push_back(std::move(value));
}

void ResultCache::release_thread_pins() { t_pins.clear(); }

ResultCache::~ResultCache() {
  if (resident_bytes_ > 0) {
    record_resident_delta(-static_cast<double>(resident_bytes_));
  }
}

void ResultCache::set_budget_bytes(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
  bounded_.store(bytes != 0, std::memory_order_relaxed);
  evict_to_budget_locked();
}

std::pair<std::shared_ptr<ResultCache::Entry>, bool> ResultCache::acquire(
    const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (t_hits_only != nullptr) throw NotCached();
      auto entry = std::make_shared<Entry>();
      entries_.emplace(key, entry);
      ++misses_;
      record_miss();
      return {entry, true};
    }
    std::shared_ptr<Entry> entry = it->second;
    if (entry->ready) {
      hit_locked(*entry);
      return {entry, false};
    }
    if (t_hits_only != nullptr) throw NotCached();
    // Another thread is computing this key; wait for it to publish or
    // abandon. Hold our own shared_ptr so invalidate() racing with the
    // computation cannot free the entry under us.
    ready_cv_.wait(lock, [&] { return entry->ready || entry->failed; });
    if (entry->failed) {
      throw Error("cached computation of '" + key +
                  "' failed in a concurrent caller");
    }
    // The entry may have been detached by invalidate() or evicted while we
    // waited, in which case the map now lacks (or re-bound) the key; loop
    // to re-check rather than serve a value that was invalidated mid-wait.
    auto again = entries_.find(key);
    if (again != entries_.end() && again->second == entry) {
      hit_locked(*entry);
      return {entry, false};
    }
  }
}

void ResultCache::hit_locked(Entry& entry) {
  ++hits_;
  record_hit();
  if (t_hits_only != nullptr) ++t_hits_only->hits_;
  if (entry.in_lru) {
    lru_.splice(lru_.end(), lru_, entry.lru_it);  // touch: now hottest
  }
}

void ResultCache::publish(const std::string& key,
                          const std::shared_ptr<Entry>& entry,
                          std::shared_ptr<const void> value,
                          std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  entry->value = std::move(value);
  entry->ready = true;
  entry->bytes = bytes;
  // Charge the budget only while the entry is still reachable: an
  // invalidate() that raced with the computation already detached it, and
  // the waiters' re-check will recompute.
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second == entry) {
    entry->lru_it = lru_.insert(lru_.end(), key);
    entry->in_lru = true;
    resident_bytes_ += bytes;
    record_resident_delta(static_cast<double>(bytes));
    evict_to_budget_locked();
  }
  ready_cv_.notify_all();
}

void ResultCache::evict_to_budget_locked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && !lru_.empty()) {
    const std::string victim = lru_.front();
    auto it = entries_.find(victim);
    // LRU members are always ready, reachable entries by construction.
    if (it != entries_.end() && it->second->in_lru) {
      uncharge_locked(it->second);
      entries_.erase(it);
      ++evictions_;
      record_eviction();
    } else {
      lru_.pop_front();  // defensive: stale key
    }
  }
}

void ResultCache::uncharge_locked(const std::shared_ptr<Entry>& entry) {
  if (!entry->in_lru) return;
  lru_.erase(entry->lru_it);
  entry->in_lru = false;
  resident_bytes_ -= entry->bytes;
  record_resident_delta(-static_cast<double>(entry->bytes));
}

void ResultCache::abandon(const std::string& key,
                          const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry->failed = true;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second == entry) {
    entries_.erase(it);
  }
  ready_cv_.notify_all();
}

bool ResultCache::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second->ready;
}

void ResultCache::invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    entry->in_lru = false;  // detach before the list dies
  }
  lru_.clear();
  if (resident_bytes_ > 0) {
    record_resident_delta(-static_cast<double>(resident_bytes_));
    resident_bytes_ = 0;
  }
  entries_.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = static_cast<std::int64_t>(entries_.size());
  s.evictions = evictions_;
  s.resident_bytes = static_cast<std::int64_t>(resident_bytes_);
  s.budget_bytes = static_cast<std::int64_t>(budget_bytes_);
  return s;
}

}  // namespace graphct
