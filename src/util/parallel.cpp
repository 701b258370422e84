#include "util/parallel.hpp"

#include <omp.h>

#include <algorithm>
#include <condition_variable>
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

void set_num_threads(std::int64_t n) {
  GCT_CHECK(n >= 0 && n <= kMaxThreads,
            "thread count " + std::to_string(n) + " out of range [0, " +
                std::to_string(kMaxThreads) + "] (0 = default)");
  omp_set_num_threads(n == 0 ? omp_get_num_procs() : static_cast<int>(n));
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
    const std::function<std::span<const std::int64_t>(
        int, std::int64_t, std::span<double>)>& fn) {
  if (plan.team < 2) {
    for (std::int64_t i = 0; i < num_sources; ++i) fn(0, i, out);
    return;
  }
  GCT_ASSERT(plan.slots >= plan.team);
  const std::int64_t slots = plan.slots;
  // Commit blocks of kCommitBlock elements; the last may be short or empty.
  // Small enough that a source reaching a few vertices commits little,
  // large enough that one reaching them all takes few lock round trips.
  constexpr std::size_t kCommitBlock = 1024;
  const std::size_t blocks = out.size() / kCommitBlock + 1;
  // A ring buffer: its source's terms (zero elsewhere), the blocks they
  // touch, and once the source is finished its number and the blocks it
  // has left to commit.
  struct Slot {
    std::vector<double> sum;
    std::vector<char> touched;
    std::int64_t source = -1;
    std::size_t left = 0;
  };
  std::vector<Slot> ring(static_cast<std::size_t>(slots));
  for (Slot& r : ring) {
    r.sum.assign(out.size(), 0.0);
    r.touched.assign(blocks, 0);
  }
  // Guarded by `mu`: the next source to claim; how many sources have
  // finished; per block, how many sources it has committed and whether a
  // thread is committing it; how many sources every block has committed
  // (`freed`); the slots' sources and counts; the first error. Source i owns
  // slot i mod slots from its claim until it is freed, so a claim waits
  // only while the slot holds i - slots.
  std::mutex mu;
  std::condition_variable progress;
  std::int64_t next = 0;
  std::int64_t finished = 0;
  std::int64_t freed = 0;
  std::vector<std::int64_t> done(blocks, 0);
  std::vector<char> busy(blocks, 0);
  std::exception_ptr error;
  {
    // Workers record no spans, and the calling thread's share alone would
    // skew the profile; the region is booked in bulk below.
    obs::SuspendCollection pause;
#pragma omp parallel num_threads(plan.team)
    {
      const int worker = omp_get_thread_num();
      std::unique_lock<std::mutex> lock(mu);
      // Add every block's finished sources into `out`, each block's in
      // source order, skipping blocks another thread is committing (it
      // goes on to the next source there itself).
      const auto commit_ready = [&] {
        for (std::size_t b = 0; b < blocks; ++b) {
          while (!busy[b] && done[b] < num_sources) {
            Slot& r = ring[static_cast<std::size_t>(done[b] % slots)];
            if (r.source != done[b]) break;
            if (r.touched[b]) {
              busy[b] = 1;
              lock.unlock();
              const std::size_t hi =
                  std::min(out.size(), (b + 1) * kCommitBlock);
              for (std::size_t v = b * kCommitBlock; v < hi; ++v) {
                out[v] += r.sum[v];
                r.sum[v] = 0.0;
              }
              r.touched[b] = 0;
              lock.lock();
              busy[b] = 0;
            }
            ++done[b];
            if (--r.left == 0) {
              r.source = -1;
              ++freed;
              progress.notify_all();
            }
          }
        }
      };
      for (;;) {
        commit_ready();
        if (error || freed == num_sources) break;
        if (next == num_sources || next == freed + slots) {
          // Wait for a free buffer, the end, an error, or a newly finished
          // source to help commit.
          const std::int64_t seen = finished;
          progress.wait(lock, [&] {
            return error || finished != seen || freed == num_sources ||
                   next < std::min(num_sources, freed + slots);
          });
          continue;
        }
        const std::int64_t i = next++;
        Slot& r = ring[static_cast<std::size_t>(i % slots)];
        lock.unlock();
        try {
          for (const std::int64_t v : fn(worker, i, r.sum)) {
            r.touched[static_cast<std::size_t>(v) / kCommitBlock] = 1;
          }
        } catch (...) {
          lock.lock();
          if (!error) error = std::current_exception();
          progress.notify_all();
          break;
        }
        lock.lock();
        r.source = i;
        r.left = blocks;
        ++finished;
        progress.notify_all();
      }
    }
  }
  if (error) std::rethrow_exception(error);
  obs::add_work(num_sources * per_source.vertices,
                num_sources * per_source.edges);
}

}  // namespace graphct
