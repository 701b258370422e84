#include "util/parallel.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace graphct {
namespace {

TEST(FetchAddTest, ReturnsPreviousValueAndAccumulates) {
  std::int64_t x = 10;
  EXPECT_EQ(fetch_add(x, 5), 10);
  EXPECT_EQ(x, 15);
  EXPECT_EQ(fetch_add(x, -3), 15);
  EXPECT_EQ(x, 12);
}

TEST(FetchAddTest, DoubleVariant) {
  double x = 1.5;
  EXPECT_DOUBLE_EQ(fetch_add(x, 2.25), 1.5);
  EXPECT_DOUBLE_EQ(x, 3.75);
}

TEST(FetchAddTest, ConcurrentCountingIsExact) {
  std::int64_t counter = 0;
#pragma omp parallel for
  for (int i = 0; i < 100000; ++i) {
    fetch_add(counter, 1);
  }
  EXPECT_EQ(counter, 100000);
}

TEST(CompareAndSwapTest, SucceedsOnlyOnMatch) {
  std::int64_t x = 5;
  EXPECT_TRUE(compare_and_swap(x, 5, 9));
  EXPECT_EQ(x, 9);
  EXPECT_FALSE(compare_and_swap(x, 5, 11));
  EXPECT_EQ(x, 9);
}

TEST(AtomicMinTest, OnlyDecreases) {
  std::int64_t x = 10;
  EXPECT_TRUE(atomic_min(x, 3));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(atomic_min(x, 7));
  EXPECT_EQ(x, 3);
  EXPECT_FALSE(atomic_min(x, 3));
  EXPECT_EQ(x, 3);
}

TEST(ScanTest, EmptyInput) {
  std::vector<std::int64_t> v;
  EXPECT_EQ(exclusive_scan_inplace(v), 0);
}

TEST(ScanTest, SingleElement) {
  std::vector<std::int64_t> v{7};
  EXPECT_EQ(exclusive_scan_inplace(v), 7);
  EXPECT_EQ(v[0], 0);
}

TEST(ScanTest, KnownSequence) {
  std::vector<std::int64_t> v{1, 2, 3, 4};
  EXPECT_EQ(exclusive_scan_inplace(v), 10);
  EXPECT_EQ(v, (std::vector<std::int64_t>{0, 1, 3, 6}));
}

TEST(ScanTest, MatchesStdExclusiveScanOnLargeInput) {
  std::vector<std::int64_t> v(100001);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int64_t>((i * 2654435761u) % 97);
  }
  std::vector<std::int64_t> expect(v.size());
  std::exclusive_scan(v.begin(), v.end(), expect.begin(), std::int64_t{0});
  const std::int64_t total = std::accumulate(v.begin(), v.end(), std::int64_t{0});
  std::vector<std::int64_t> got(v.size());
  EXPECT_EQ(exclusive_scan(std::span<const std::int64_t>(v.data(), v.size()),
                           std::span<std::int64_t>(got.data(), got.size())),
            total);
  EXPECT_EQ(got, expect);
}

TEST(ScanTest, InPlaceAliasing) {
  std::vector<std::int64_t> v(1000, 1);
  EXPECT_EQ(exclusive_scan_inplace(v), 1000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], static_cast<std::int64_t>(i));
  }
}

TEST(ScanTest, CorrectTotalInsideParallelRegion) {
  // Inside an enclosing parallel region the scan's own region collapses to
  // a single thread (nesting is off); the total must come from the actual
  // team size, not the configured thread count. Regression: the coarse bc
  // engine calls the level compactor — and through it this scan — from
  // worker threads, and the stale block_sum[num_threads()] slot returned 0,
  // silently truncating every BFS level to empty.
  set_num_threads(4);
  std::vector<std::int64_t> totals(4, -1);
#pragma omp parallel num_threads(4)
  {
    const int t = omp_get_thread_num();
    std::vector<std::int64_t> v(1000, 1);
    totals[static_cast<std::size_t>(t)] = exclusive_scan_inplace(v);
  }
  set_num_threads(0);
  for (const auto total : totals) EXPECT_EQ(total, 1000);
}

TEST(ThreadsTest, NumThreadsPositive) { EXPECT_GE(num_threads(), 1); }

// ---- Source-parallel sums ----

/// A contribution whose every term depends on the running sum, so any
/// other order of sources within a slot, or of slots in the combine, gives
/// other bits. Sources sleep for uneven times to shuffle the schedule.
void order_sensitive_source(std::int64_t i, std::span<double> into) {
  std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
  for (std::size_t v = 0; v < into.size(); ++v) {
    into[v] += 1.0 / (1.0 + into[v] + static_cast<double>(i) +
                      static_cast<double>(v) / 7.0);
  }
}

TEST(SourceSumTest, ParallelPlanRepeatsTheSlotOrderBitForBit) {
  const std::int64_t n = 257;
  const std::int64_t sources = 64;
  const std::uint64_t buffer = static_cast<std::uint64_t>(n) * sizeof(double);
  // Two slots per thread, and a budget that affords one per thread only.
  for (const std::uint64_t budget : {kSourceSumBudgetBytes, 4 * buffer}) {
    const SourceSumPlan plan = plan_source_sum(n, sources, 4, budget, 0);
    ASSERT_EQ(plan.team, 4);
    ASSERT_EQ(plan.slots, budget == 4 * buffer ? 4 : 8);

    // Reference: slot j sums sources j, j + S, ... in order, then the slots
    // combine pairwise (stride 1, 2, 4, ...) into the output.
    const auto slots = static_cast<std::size_t>(plan.slots);
    std::vector<std::vector<double>> classes(
        slots, std::vector<double>(static_cast<std::size_t>(n), 0.0));
    for (std::int64_t i = 0; i < sources; ++i) {
      order_sensitive_source(i, classes[static_cast<std::size_t>(i) % slots]);
    }
    for (std::size_t stride = 1; stride < slots; stride *= 2) {
      for (std::size_t b = 0; b + stride < slots; b += 2 * stride) {
        for (std::size_t v = 0; v < classes[b].size(); ++v) {
          classes[b][v] += classes[b + stride][v];
        }
      }
    }
    std::vector<double> want(static_cast<std::size_t>(n), 1.5);
    for (std::size_t v = 0; v < want.size(); ++v) want[v] += classes[0][v];

    std::atomic<bool> bad_worker{false};
    for (int call = 0; call < 20; ++call) {
      std::vector<double> got(static_cast<std::size_t>(n), 1.5);
      sum_over_sources(sources, plan, {}, got,
                       [&](int worker, std::int64_t i, std::span<double> into) {
                         if (worker < 0 || worker >= plan.team) bad_worker = true;
                         order_sensitive_source(i, into);
                       });
      ASSERT_EQ(got, want) << "call " << call << ", slots " << plan.slots;
    }
    EXPECT_FALSE(bad_worker);
  }
}

TEST(SourceSumTest, SerialPlanIsAPlainInOrderLoop) {
  const std::int64_t n = 100;
  const std::int64_t sources = 12;
  const SourceSumPlan plan =
      plan_source_sum(n, sources, 1, kSourceSumBudgetBytes, 0);
  ASSERT_EQ(plan.team, 1);
  std::vector<double> want(static_cast<std::size_t>(n), 0.25);
  for (std::int64_t i = 0; i < sources; ++i) order_sensitive_source(i, want);
  std::vector<double> got(static_cast<std::size_t>(n), 0.25);
  std::vector<std::int64_t> order;
  sum_over_sources(sources, plan, {}, got,
                   [&](int worker, std::int64_t i, std::span<double> into) {
                     EXPECT_EQ(worker, 0);
                     EXPECT_EQ(into.data(), got.data());
                     order.push_back(i);
                     order_sensitive_source(i, into);
                   });
  EXPECT_EQ(got, want);
  std::vector<std::int64_t> in_order(static_cast<std::size_t>(sources));
  std::iota(in_order.begin(), in_order.end(), std::int64_t{0});
  EXPECT_EQ(order, in_order);
}

TEST(SourceSumTest, ParallelPlanRethrowsASourcesError) {
  const SourceSumPlan plan =
      plan_source_sum(50, 40, 4, kSourceSumBudgetBytes, 0);
  ASSERT_EQ(plan.team, 4);
  std::vector<double> out(50, 0.0);
  EXPECT_THROW(sum_over_sources(40, plan, {}, out,
                                [](int, std::int64_t i, std::span<double>) {
                                  if (i == 17) throw Error("source 17");
                                }),
               Error);
}

TEST(SourceSumTest, PlanArithmetic) {
  const std::uint64_t gib = kSourceSumBudgetBytes;
  for (const std::int64_t n : {1, 100, 1000}) {
    const std::uint64_t buffer = static_cast<std::uint64_t>(n) * 8;
    for (const std::int64_t sources : {0, 1, 2, 3, 5, 8, 64}) {
      for (int threads = 1; threads <= 9; ++threads) {
        for (const std::uint64_t budget :
             {std::uint64_t{0}, buffer, 3 * buffer, 16 * buffer, 100 * buffer,
              gib}) {
          for (const std::uint64_t ws : {std::uint64_t{0}, buffer, 5 * buffer}) {
            const auto p = plan_source_sum(n, sources, threads, budget, ws);
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " sources=" << sources
                         << " threads=" << threads << " budget=" << budget
                         << " ws=" << ws);
            ASSERT_GE(p.team, 1);
            ASSERT_LE(p.team, threads);
            if (p.team == 1) {
              EXPECT_EQ(p.slots, 0);
              EXPECT_EQ(p.buffer_bytes, ws);
              continue;
            }
            EXPECT_LE(p.team, p.slots);
            EXPECT_LE(p.slots, std::min<std::int64_t>(2 * p.team, sources));
            EXPECT_EQ(p.buffer_bytes, static_cast<std::uint64_t>(p.slots) * buffer +
                                          static_cast<std::uint64_t>(p.team) * ws);
            EXPECT_LE(p.buffer_bytes, budget);
          }
        }
      }
    }
  }

  // The largest team that still affords a slot per thread.
  const auto tight = plan_source_sum(200, 64, 8, 4000, 0);
  EXPECT_EQ(tight.team, 2);
  EXPECT_EQ(tight.slots, 2);
  EXPECT_EQ(tight.buffer_bytes, 3200u);
  const auto few = plan_source_sum(200, 5, 4, gib, 0);
  EXPECT_EQ(few.team, 4);
  EXPECT_EQ(few.slots, 5);
  EXPECT_EQ(plan_source_sum(200, 3, 8, gib, 0).team, 3);
  // Workspaces come off the budget first: 4 x 1000 B leave 6400 B, eight
  // 800-byte slots; one byte less leaves seven.
  const auto full = plan_source_sum(100, 64, 4, 10400, 1000);
  EXPECT_EQ(full.team, 4);
  EXPECT_EQ(full.slots, 8);
  EXPECT_EQ(full.buffer_bytes, 10400u);
  EXPECT_EQ(plan_source_sum(100, 64, 4, 10399, 1000).slots, 7);
  // A budget below two workspaces and their slots: serial, one workspace.
  const auto serial = plan_source_sum(120, 40, 4, 6144, 4800);
  EXPECT_EQ(serial.team, 1);
  EXPECT_EQ(serial.buffer_bytes, 4800u);
}

TEST(SampleSourcesTest, MatchesRngSampleAndCoversTheEdgeCases) {
  for (const std::uint64_t seed : {1u, 7u, 12345u}) {
    EXPECT_EQ(sample_sources(500, 37, seed),
              Rng(seed).sample_without_replacement(500, 37));
  }
  std::vector<std::int64_t> all(9);
  std::iota(all.begin(), all.end(), std::int64_t{0});
  EXPECT_EQ(sample_sources(9, -1, 3), all);  // kNoVertex
  EXPECT_EQ(sample_sources(9, 9, 3), all);
  EXPECT_EQ(sample_sources(9, 100, 3), all);
  EXPECT_THROW(sample_sources(9, 0, 3), Error);
  EXPECT_THROW(sample_sources(9, -2, 3), Error);
}

}  // namespace
}  // namespace graphct
