#pragma once

/// \file result_cache.hpp
/// Thread-safe compute-once result cache with an optional byte budget.
///
/// Maps string keys ("components", "bc|sources=256|seed=1", ...) to
/// type-erased immutable values. The first caller of a key computes the
/// value outside the lock; concurrent callers of the same key block until
/// it is published and then share the same object. This is the paper's
/// "kernels accumulate results in structures accessible by later kernel
/// functions" made safe for many analyst sessions sharing one resident
/// graph (§IV-A), and it is what the server's job accounting reads to show
/// whether a query hit or recomputed.
///
/// Long-running servers additionally need the cache *bounded*: a stream of
/// distinct queries (betweenness with ever-new parameters, diameter
/// re-estimates) would otherwise grow the table without limit. When a byte
/// budget is set, every published entry carries an estimated size and the
/// cache evicts least-recently-used entries until resident bytes fit the
/// budget — resident bytes never exceed it, even transiently after a
/// publish. Eviction only drops the cache's reference: values are held as
/// shared_ptr<const T>, so a result stays valid for callers that obtained
/// it even after eviction or invalidate() drops the table.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace graphct {

namespace detail {

/// Default byte estimator for cached values: object size plus, for
/// vectors, the heap allocation behind them. Call sites with richer
/// layouts (structs of vectors) pass an explicit estimator.
struct DefaultCacheBytes {
  template <typename T>
  std::size_t operator()(const T&) const {
    return sizeof(T);
  }
  template <typename E, typename A>
  std::size_t operator()(const std::vector<E, A>& v) const {
    return sizeof(v) + v.capacity() * sizeof(E);
  }
};

}  // namespace detail

/// Thread-safe map from key to immutable, lazily computed value.
class ResultCache {
 public:
  /// Traffic counters since construction (invalidate() preserves them —
  /// they describe traffic, not contents) plus the live entry count and
  /// the byte-budget accounting.
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    std::int64_t evictions = 0;       ///< entries dropped by the budget
    std::int64_t resident_bytes = 0;  ///< estimated bytes of live entries
    std::int64_t budget_bytes = 0;    ///< configured budget (0 = unbounded)
  };

  /// Thrown by get_or_compute() inside a HitsOnly scope for a key with no
  /// published value (absent, or still being computed by another thread).
  class NotCached : public std::exception {
   public:
    [[nodiscard]] const char* what() const noexcept override {
      return "result not cached";
    }
  };

  /// While alive, get_or_compute() on this thread serves published values
  /// as usual, but a key that is absent or still being computed throws
  /// NotCached at once: no entry is inserted, no miss is counted, and the
  /// thread never waits on another's computation. The server runs a read
  /// this way on its dispatching thread, and queues it as a job on
  /// NotCached. Counts the hits its own thread made (exact even while
  /// other threads use the same cache), and on close drops the values a
  /// bounded cache pinned on this thread inside the scope. Scopes nest;
  /// the innermost counts.
  class HitsOnly {
   public:
    HitsOnly();
    ~HitsOnly();
    HitsOnly(const HitsOnly&) = delete;
    HitsOnly& operator=(const HitsOnly&) = delete;

    [[nodiscard]] std::int64_t hits() const { return hits_; }

   private:
    friend class ResultCache;
    HitsOnly* outer_;
    std::size_t pins_mark_;
    std::int64_t hits_ = 0;
  };

  ResultCache() = default;
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Bound the cache to `bytes` of estimated resident value memory
  /// (0 = unbounded, the default). Shrinking below the current residency
  /// evicts immediately, LRU first.
  void set_budget_bytes(std::uint64_t bytes);

  /// Return the cached value for `key`, computing it with `fn` on first
  /// use. Concurrent callers with the same key block until the first
  /// caller's computation publishes; exactly one computation runs per key.
  /// If the computing caller throws, the entry is removed (waiters receive
  /// the error) and a later call recomputes. `size_of` estimates the bytes
  /// an entry pins for budget accounting (DefaultCacheBytes when omitted).
  template <typename T, typename Fn, typename SizeFn = detail::DefaultCacheBytes>
  std::shared_ptr<const T> get_or_compute(const std::string& key, Fn&& fn,
                                          SizeFn size_of = {}) {
    auto [entry, is_owner] = acquire(key);
    if (!is_owner) {
      auto value = std::static_pointer_cast<const T>(entry->value);
      if (bounded_.load(std::memory_order_relaxed)) pin_on_thread(value);
      return value;
    }
    try {
      std::shared_ptr<const T> value =
          std::make_shared<const T>(std::forward<Fn>(fn)());
      publish(key, entry, value, size_of(*value));
      if (bounded_.load(std::memory_order_relaxed)) pin_on_thread(value);
      return value;
    } catch (...) {
      abandon(key, entry);
      throw;
    }
  }

  /// Release this thread's pinned values (see pin_on_thread). The job
  /// queue calls this between jobs; embedders driving a *bounded* cache
  /// directly should call it once in-flight references are no longer used.
  static void release_thread_pins();

  /// True when `key` holds a published value (no blocking, no LRU touch).
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Drop every entry. Outstanding shared_ptrs stay valid; in-flight
  /// computations publish into their (now detached) entries, which are
  /// simply discarded. Traffic counters are preserved; eviction counters
  /// are not advanced (invalidation is not eviction).
  void invalidate();

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    bool ready = false;
    bool failed = false;
    std::size_t bytes = 0;
    bool in_lru = false;
    std::list<std::string>::iterator lru_it;
  };

  /// Look up or insert `key`. Returns the entry plus true when the caller
  /// must compute the value ("owner"); blocks when another thread owns an
  /// unpublished entry. Throws graphct::Error if the owning computation
  /// failed (waiters do not retry on the owner's behalf). Inside a
  /// HitsOnly scope, throws NotCached instead of inserting or blocking.
  std::pair<std::shared_ptr<Entry>, bool> acquire(const std::string& key);

  /// Count a hit on a published `entry` and make it the hottest; mu_ held.
  void hit_locked(Entry& entry);

  /// Publish an owned entry's value, charge the budget, evict LRU entries
  /// past it, and wake waiters.
  void publish(const std::string& key, const std::shared_ptr<Entry>& entry,
               std::shared_ptr<const void> value, std::size_t bytes);

  /// Remove a failed owned entry so a later call can retry.
  void abandon(const std::string& key, const std::shared_ptr<Entry>& entry);

  /// Keep `value` alive on the calling thread until release_thread_pins()
  /// (or the close of the HitsOnly scope it was pinned in).
  /// Bounded caches hand out values that eviction may drop from the table
  /// at any moment, while Toolkit accessors return plain references; the
  /// per-thread pin keeps those references valid for the duration of the
  /// job/command that obtained them. Unbounded caches (the default) never
  /// pin — entries live until invalidate(), as before.
  static void pin_on_thread(std::shared_ptr<const void> value);

  /// Evict LRU entries until resident bytes fit the budget; mu_ held.
  void evict_to_budget_locked();

  /// Detach `entry` from the LRU list and budget accounting; mu_ held.
  void uncharge_locked(const std::shared_ptr<Entry>& entry);

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<std::string> lru_;  ///< front = coldest, back = hottest
  std::uint64_t budget_bytes_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::atomic<bool> bounded_{false};  ///< budget_bytes_ != 0, lock-free read
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace graphct
