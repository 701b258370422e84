#include "util/parallel.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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
/// other order of sources gives other bits. Sources sleep for uneven times
/// to shuffle a parallel schedule.
void order_sensitive_source(std::int64_t i, std::span<double> into) {
  std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
  for (std::size_t v = 0; v < into.size(); ++v) {
    into[v] += 1.0 / (1.0 + into[v] + static_cast<double>(i) +
                      static_cast<double>(v) / 7.0);
  }
}

/// A contribution that meets sum_over_sources' contract: at most one term
/// per element, never reading `into`. Its terms span sixty binary orders of
/// magnitude, so adding the sources in any other order, or in any other
/// grouping, gives other bits. Source i reaches a window of 1 to 9,001
/// elements that starts at a different place for each source, and every
/// fifth element of it gets no term; `touched` lists the elements it added to.
void one_term_source(std::int64_t i, std::span<double> into,
                     std::vector<std::int64_t>& touched) {
  std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
  touched.clear();
  const auto n = static_cast<std::int64_t>(into.size());
  const std::int64_t lo = (i * 2741) % n;
  const std::int64_t hi = std::min(n, lo + 1 + (i % 4) * 3000);
  for (std::int64_t v = lo; v < hi; ++v) {
    const std::int64_t k = v + i;
    if (k % 5 == 0) continue;
    into[static_cast<std::size_t>(v)] +=
        std::ldexp(1.0 + static_cast<double>(k % 97) / 97.0,
                   static_cast<int>((k * 13) % 61) - 30);
    touched.push_back(v);
  }
}

TEST(SourceSumTest, ParallelPlansGiveTheInOrderLoopsBits) {
  // Twelve and a bit 1,024-element commit blocks: a source's window touches
  // one to ten of them.
  const std::int64_t n = 12 * 1024 + 7;
  const std::int64_t sources = 64;
  const std::uint64_t buffer = static_cast<std::uint64_t>(n) * sizeof(double);
  std::vector<double> want(static_cast<std::size_t>(n), 1.5);
  std::vector<std::int64_t> scratch;
  for (std::int64_t i = 0; i < sources; ++i) one_term_source(i, want, scratch);

  for (int team = 2; team <= 4; ++team) {
    // Two buffers per thread, and a budget that affords one per thread.
    for (const std::uint64_t budget : {kSourceSumBudgetBytes, team * buffer}) {
      const SourceSumPlan plan = plan_source_sum(n, sources, team, budget, 0);
      ASSERT_EQ(plan.team, team);
      ASSERT_EQ(plan.slots, budget == kSourceSumBudgetBytes ? 2 * team : team);
      std::vector<std::vector<std::int64_t>> touched(
          static_cast<std::size_t>(team));
      std::atomic<bool> bad_worker{false};
      for (int call = 0; call < 5; ++call) {
        std::vector<double> got(static_cast<std::size_t>(n), 1.5);
        sum_over_sources(
            sources, plan, {}, got,
            [&](int worker, std::int64_t i, std::span<double> into) {
              if (worker < 0 || worker >= plan.team) bad_worker = true;
              auto& mine = touched[static_cast<std::size_t>(worker)];
              one_term_source(i, into, mine);
              return std::span<const std::int64_t>(mine);
            });
        ASSERT_EQ(got, want) << "call " << call << ", team " << plan.team
                             << ", slots " << plan.slots;
      }
      EXPECT_FALSE(bad_worker);
    }
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
                     return std::span<const std::int64_t>();
                   });
  EXPECT_EQ(got, want);
  std::vector<std::int64_t> in_order(static_cast<std::size_t>(sources));
  std::iota(in_order.begin(), in_order.end(), std::int64_t{0});
  EXPECT_EQ(order, in_order);
}

TEST(SourceSumTest, ParallelPlanRethrowsASourcesError) {
  // Source 0 fails only after sources 1 .. slots - 1 have finished. Their
  // threads then find the ring full (source slots needs source 0's buffer)
  // and wait, so the error must wake them: a lost wake-up hangs here.
  const SourceSumPlan plan =
      plan_source_sum(50, 40, 4, kSourceSumBudgetBytes, 0);
  ASSERT_EQ(plan.team, 4);
  ASSERT_EQ(plan.slots, 8);
  std::vector<double> out(50, 0.0);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      sum_over_sources(
          40, plan, {}, out,
          [&](int, std::int64_t i,
              std::span<double>) -> std::span<const std::int64_t> {
            if (i != 0) {
              ++finished;
              return {};
            }
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (finished.load() < plan.slots - 1 &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw Error("source 0");
          }),
      Error);
  EXPECT_EQ(finished.load(), plan.slots - 1);  // no claim past the ring
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
  // Plenty of budget: team capped by threads, two slots per thread.
  const auto wide = plan_source_sum(200, 10, 4, gib, 0);
  EXPECT_EQ(wide.team, 4);
  EXPECT_EQ(wide.buffer_bytes, 8u * 1600u);
  // One thread, one source, or a budget below two buffers: serial, with
  // no buffers at all.
  for (const SourceSumPlan serial :
       {plan_source_sum(200, 64, 1, gib, 0), plan_source_sum(200, 1, 8, gib, 0),
        plan_source_sum(200, 64, 8, 3000, 0),
        plan_source_sum(200, 64, 8, 100, 0)}) {
    EXPECT_EQ(serial.team, 1);
    EXPECT_EQ(serial.buffer_bytes, 0u);
  }
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
