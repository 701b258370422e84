#pragma once

/// \file work_queue.hpp
/// Chunked work-stealing frontier for level-synchronous sweeps.
///
/// The centrality kernels process one compacted level array at a time; a
/// `#pragma omp parallel for schedule(dynamic)` over the level serializes on
/// a central iteration counter and re-forks a team per level. This queue
/// replaces that: the level range is split into contiguous chunks dealt to
/// per-thread deques up front, owners drain their own deque in ascending
/// index order (sequential adjacency reads), and a thread that runs dry
/// steals half of a victim's remaining chunks — so one straggler chunk of
/// hub vertices cannot serialize the level on the slowest thread.
///
/// Concurrency contract: fill() is called by one thread between drains.
/// pop()/steal()/pop_or_steal() may race freely. No new chunks are created
/// while a drain is in flight, so pop_or_steal() returning false is a
/// correct per-thread exit condition: every remaining chunk is held in the
/// deque of some thread that is still draining, and the caller's level
/// barrier waits for those threads.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

namespace graphct {

/// Half-open index range: the unit of scheduling.
struct WorkChunk {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

class WorkQueue {
 public:
  WorkQueue();
  ~WorkQueue();
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Movable (so owners can live in vectors); must not race with a drain.
  WorkQueue(WorkQueue&& other) noexcept;
  WorkQueue& operator=(WorkQueue&& other) noexcept;

  /// Size to `num_queues` per-thread deques and drop any leftover chunks.
  /// Deque storage is reused when the count is unchanged.
  void reset(int num_queues);

  /// Split [begin, end) into per-owner contiguous spans, each chopped into
  /// chunks of `chunk` items, and deal span t to deque t. Owners then drain
  /// their span front to back, so unstolen work is processed in ascending
  /// index order.
  void fill(std::int64_t begin, std::int64_t end, std::int64_t chunk);

  /// Append one chunk to deque `t`.
  void push(int t, WorkChunk c);

  /// Pop the next chunk of thread t's own span. False when empty.
  bool pop(int t, WorkChunk& out);

  /// Scan the other deques from t+1 upward and steal half of the first
  /// non-empty victim's chunks (the half farthest from the victim's current
  /// position). One stolen chunk is returned; the rest move to deque t.
  /// False when every other deque is empty.
  bool steal(int t, WorkChunk& out);

  /// pop() then steal(). False = this thread is done with the drain.
  bool pop_or_steal(int t, WorkChunk& out) {
    return pop(t, out) || steal(t, out);
  }

  /// Chunks currently queued across all deques (tests/diagnostics; racy
  /// while a drain is in flight).
  [[nodiscard]] std::int64_t chunks_queued() const;

  /// Steal-half transfers since construction (tests/diagnostics).
  [[nodiscard]] std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Deque;
  std::unique_ptr<Deque[]> deques_;
  int count_ = 0;
  std::atomic<std::int64_t> steals_{0};
};

/// Level scheduling shared by every level-synchronous sweep (the BC forward
/// and backward sweeps, k-betweenness, the dist worker): vertices per work
/// chunk, and the level size below which a level runs serially inside the
/// calling thread. Chunking never enters a sum, so no score depends on it.
inline constexpr std::int64_t kLevelChunk = 64;
inline constexpr std::int64_t kLevelSerialBelow = 512;

/// Work-stealing parallel for: run `body(b, e)` over disjoint subranges
/// covering [begin, end). Spawns its own parallel region of `nthreads`
/// threads; runs `body(begin, end)` inline instead when nthreads <= 1, when
/// already inside a parallel region (nested teams serialize anyway), or when
/// the range is shorter than `serial_below` — the tiny-frontier guard that
/// keeps high-diameter levels from paying a region fork per level.
void stealing_for(WorkQueue& q, std::int64_t begin, std::int64_t end,
                  std::int64_t chunk, std::int64_t serial_below, int nthreads,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace graphct
