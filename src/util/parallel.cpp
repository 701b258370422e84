#include "util/parallel.hpp"

#include <omp.h>

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace graphct {

int num_threads() { return omp_get_max_threads(); }

int effective_num_threads() { return obs::effective_threads(); }

void set_num_threads(int n) {
  if (n <= 0) {
    omp_set_num_threads(omp_get_num_procs());
  } else {
    omp_set_num_threads(n);
  }
  obs::registry()
      .gauge("gct_omp_threads_requested")
      .set(static_cast<double>(num_threads()));
  obs::registry()
      .gauge("gct_omp_threads_effective")
      .set(static_cast<double>(effective_num_threads()));
}

std::int64_t fetch_add(std::int64_t& target, std::int64_t delta) {
  std::int64_t old;
#pragma omp atomic capture
  {
    old = target;
    target += delta;
  }
  return old;
}

double fetch_add(double& target, double delta) {
  double old;
#pragma omp atomic capture
  {
    old = target;
    target += delta;
  }
  return old;
}

bool compare_and_swap(std::int64_t& target, std::int64_t expected,
                      std::int64_t desired) {
  return __atomic_compare_exchange_n(&target, &expected, desired,
                                     /*weak=*/false, __ATOMIC_SEQ_CST,
                                     __ATOMIC_SEQ_CST);
}

bool atomic_min(std::int64_t& target, std::int64_t value) {
  std::int64_t cur = __atomic_load_n(&target, __ATOMIC_RELAXED);
  while (value < cur) {
    if (__atomic_compare_exchange_n(&target, &cur, value, /*weak=*/true,
                                    __ATOMIC_SEQ_CST, __ATOMIC_RELAXED)) {
      return true;
    }
  }
  return false;
}

std::int64_t exclusive_scan(std::span<const std::int64_t> in,
                            std::span<std::int64_t> out) {
  GCT_ASSERT(in.size() == out.size());
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  if (n == 0) return 0;

  const int nt = num_threads();
  std::vector<std::int64_t> block_sum(static_cast<std::size_t>(nt) + 1, 0);

  // The region may get fewer threads than requested (most importantly when
  // the caller is already inside a parallel region and nesting is off, where
  // the team collapses to 1) — so the total lives at block_sum[actual team
  // size], not block_sum[nt]. Indexing by nt here returned a stale 0 for
  // nested callers, which silently emptied every compacted BFS level.
  int team = 1;
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const int p = omp_get_num_threads();
    const std::int64_t lo = n * t / p;
    const std::int64_t hi = n * (t + 1) / p;
    std::int64_t s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += in[static_cast<std::size_t>(i)];
    block_sum[static_cast<std::size_t>(t) + 1] = s;
#pragma omp barrier
#pragma omp single
    {
      for (int b = 0; b < p; ++b) block_sum[b + 1] += block_sum[b];
      team = p;
    }
    std::int64_t run = block_sum[static_cast<std::size_t>(t)];
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t v = in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = run;
      run += v;
    }
  }
  return block_sum[static_cast<std::size_t>(team)];
}

std::int64_t exclusive_scan_inplace(std::vector<std::int64_t>& v) {
  return exclusive_scan(std::span<const std::int64_t>(v.data(), v.size()),
                        std::span<std::int64_t>(v.data(), v.size()));
}

std::vector<std::int64_t> sample_sources(std::int64_t n,
                                         std::int64_t num_sources,
                                         std::uint64_t seed) {
  if (num_sources == -1 || num_sources >= n) {
    std::vector<std::int64_t> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), std::int64_t{0});
    return all;
  }
  GCT_CHECK(num_sources > 0, "num_sources must be positive");
  return Rng(seed).sample_without_replacement(n, num_sources);
}

SourceSumPlan plan_source_sum(std::int64_t n, std::int64_t num_sources,
                              int threads, std::uint64_t budget_bytes,
                              std::uint64_t workspace_bytes) {
  const std::uint64_t per_buffer =
      std::max<std::uint64_t>(static_cast<std::uint64_t>(n) * sizeof(double), 1);
  for (int t = threads; t >= 2; --t) {
    const std::uint64_t workspaces =
        static_cast<std::uint64_t>(t) * workspace_bytes;
    if (workspaces > budget_bytes) continue;
    const std::int64_t slots = std::min<std::int64_t>(
        {2 * t, num_sources,
         static_cast<std::int64_t>(std::min<std::uint64_t>(
             (budget_bytes - workspaces) / per_buffer, 2u * t))});
    if (slots >= t) {
      return {t, static_cast<int>(slots),
              static_cast<std::uint64_t>(slots * n) * sizeof(double) +
                  workspaces};
    }
  }
  return {1, 0, workspace_bytes};
}

void sum_over_sources(
    std::int64_t num_sources, const SourceSumPlan& plan,
    SourceWork per_source, std::span<double> out,
    const std::function<void(int, std::int64_t, std::span<double>)>& fn) {
  if (plan.team < 2) {
    for (std::int64_t i = 0; i < num_sources; ++i) fn(0, i, out);
    return;
  }
  GCT_ASSERT(plan.slots >= plan.team);
  const auto slots = static_cast<std::size_t>(plan.slots);
  std::vector<std::vector<double>> buffers(
      slots, std::vector<double>(out.size(), 0.0));
  // Guarded by `mu`: slot j's next source (j, j + slots, ...), whether a
  // thread is summing into it, and the first error.
  std::mutex mu;
  std::vector<std::int64_t> next(slots);
  std::iota(next.begin(), next.end(), std::int64_t{0});
  std::vector<char> busy(slots, 0);
  std::exception_ptr error;
  {
    // Workers record no spans, and the calling thread's share alone would
    // skew the profile; the region is booked in bulk below.
    obs::SuspendCollection pause;
#pragma omp parallel num_threads(plan.team)
    {
      const int worker = omp_get_thread_num();
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        std::size_t pick = slots;
        for (std::size_t j = 0; j < slots; ++j) {
          if (!busy[j] && next[j] < num_sources &&
              (pick == slots || next[j] < next[pick])) {
            pick = j;
          }
        }
        // Every slot with sources left is busy, and each holder re-picks in
        // the lock hold that frees its slot: there is nothing to wait for.
        if (pick == slots || error) break;
        const std::int64_t i = next[pick];
        next[pick] += plan.slots;
        busy[pick] = 1;
        lock.unlock();
        try {
          fn(worker, i, buffers[pick]);
        } catch (...) {
          const std::lock_guard<std::mutex> guard(mu);
          if (!error) error = std::current_exception();
        }
        lock.lock();
        busy[pick] = 0;
      }
    }
  }
  if (error) std::rethrow_exception(error);
  obs::add_work(num_sources * per_source.vertices,
                num_sources * per_source.edges);
  // The slots combine pairwise (stride 1, 2, 4, ...) into buffers[0], then
  // into out: the tree's shape, not the schedule, fixes every sum's order.
  GCT_SPAN("source_sum.reduce_tree");
  for (std::size_t stride = 1; stride < slots; stride *= 2) {
#pragma omp parallel for schedule(static)
    for (std::size_t v = 0; v < out.size(); ++v) {
      for (std::size_t b = 0; b + stride < slots; b += 2 * stride) {
        buffers[b][v] += buffers[b + stride][v];
      }
    }
  }
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < out.size(); ++v) out[v] += buffers[0][v];
}

}  // namespace graphct
