#include "util/work_queue.hpp"

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace graphct {
namespace {

TEST(WorkQueueTest, FillCoversRangeExactlyOnce) {
  WorkQueue q;
  q.reset(4);
  q.fill(10, 273, 16);  // deliberately not a multiple of the chunk size

  std::vector<int> hits(273, 0);
  WorkChunk c;
  for (int t = 0; t < 4; ++t) {
    while (q.pop(t, c)) {
      ASSERT_LT(c.begin, c.end);
      for (std::int64_t i = c.begin; i < c.end; ++i) {
        hits[static_cast<std::size_t>(i)]++;
      }
    }
  }
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i], 0);
  for (std::int64_t i = 10; i < 273; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(WorkQueueTest, OwnerPopsAscending) {
  WorkQueue q;
  q.reset(2);
  q.fill(0, 100, 8);
  WorkChunk c;
  std::int64_t prev = -1;
  while (q.pop(0, c)) {
    EXPECT_GT(c.begin, prev);
    prev = c.begin;
  }
}

TEST(WorkQueueTest, EmptyQueueTerminates) {
  WorkQueue q;
  q.reset(3);
  WorkChunk c;
  for (int t = 0; t < 3; ++t) {
    EXPECT_FALSE(q.pop(t, c));
    EXPECT_FALSE(q.steal(t, c));
    EXPECT_FALSE(q.pop_or_steal(t, c));
  }
  // fill() of an empty range leaves every deque empty too.
  q.fill(5, 5, 4);
  EXPECT_EQ(q.chunks_queued(), 0);
  EXPECT_FALSE(q.pop_or_steal(0, c));
}

TEST(WorkQueueTest, StealTakesHalfOfVictim) {
  WorkQueue q;
  // Everything lands in deque 0: 8 chunks. A thief steal takes ceil(8/2)=4,
  // returns one and parks 3 in its own deque.
  q.reset(2);
  for (int i = 0; i < 8; ++i) {
    q.push(0, {i * 10, i * 10 + 10});
  }
  WorkChunk c;
  ASSERT_TRUE(q.steal(1, c));
  EXPECT_EQ(q.steals(), 1);
  EXPECT_EQ(q.chunks_queued(), 7);  // 4 left with the victim, 3 parked

  // The thief drains its parked chunks before stealing again.
  std::set<std::int64_t> thief_begins{c.begin};
  while (q.pop(1, c)) thief_begins.insert(c.begin);
  EXPECT_EQ(thief_begins.size(), 4u);

  std::set<std::int64_t> victim_begins;
  while (q.pop(0, c)) victim_begins.insert(c.begin);
  EXPECT_EQ(victim_begins.size(), 4u);
  // Disjoint halves covering all 8 chunks.
  for (auto b : thief_begins) EXPECT_EQ(victim_begins.count(b), 0u) << b;
}

TEST(WorkQueueTest, ConcurrentDrainProcessesEverythingOnce) {
  // All chunks start on queue 0, so every other thread must steal; the
  // atomic per-item counters prove exactly-once execution under contention.
  const int nthreads = std::max(2, std::min(8, omp_get_max_threads() * 2));
  constexpr std::int64_t kItems = 1 << 14;
  WorkQueue q;
  q.reset(nthreads);
  for (std::int64_t b = 0; b < kItems; b += 32) {
    q.push(0, {b, std::min<std::int64_t>(kItems, b + 32)});
  }

  std::vector<std::atomic<int>> hits(kItems);
  for (auto& h : hits) h.store(0);
#pragma omp parallel num_threads(nthreads)
  {
    const int t = omp_get_thread_num();
    WorkChunk c;
    while (q.pop_or_steal(t, c)) {
      for (std::int64_t i = c.begin; i < c.end; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      }
    }
  }
  for (std::int64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
  EXPECT_EQ(q.chunks_queued(), 0);
  // With the skew above (all work on one deque), a multi-thread drain must
  // have stolen at least once.
  if (omp_get_max_threads() > 1) {
    EXPECT_GE(q.steals(), 1);
  }
}

TEST(WorkQueueTest, StealingForCoversRange) {
  WorkQueue q;
  const std::int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  stealing_for(q, 0, n, 64, /*serial_below=*/1, num_threads(),
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   hits[static_cast<std::size_t>(i)].fetch_add(
                       1, std::memory_order_relaxed);
                 }
               });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(WorkQueueTest, StealingForSerialBelowRunsInline) {
  WorkQueue q;
  // Range below the serial threshold: exactly one body call, whole range.
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  stealing_for(q, 3, 40, 8, /*serial_below=*/512, num_threads(),
               [&](std::int64_t b, std::int64_t e) { calls.push_back({b, e}); });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 3);
  EXPECT_EQ(calls[0].second, 40);
}

TEST(WorkQueueTest, StealingForInsideParallelRegionRunsInline) {
  WorkQueue q;
  // Nested inside an active region each call serializes over its own range
  // (nested OpenMP teams are single-threaded) — the coarse-mode path.
  std::atomic<std::int64_t> total{0};
#pragma omp parallel num_threads(2)
  {
    stealing_for(q, 0, 1000, 16, /*serial_below=*/1, num_threads(),
                 [&](std::int64_t b, std::int64_t e) {
                   total.fetch_add(e - b, std::memory_order_relaxed);
                 });
  }
  // Every participating thread covered the full range once.
  EXPECT_EQ(total.load() % 1000, 0);
  EXPECT_GE(total.load(), 1000);
}

}  // namespace
}  // namespace graphct
