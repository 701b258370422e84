#pragma once

/// \file parallel.hpp
/// OpenMP-based parallel primitives shared by every GraphCT kernel.
///
/// The paper's algorithms need exactly one synchronization primitive — an
/// atomic fetch-and-add — plus parallel loops and prefix sums; this header
/// provides portable versions of those on top of OpenMP. On the Cray XMT the
/// same roles were played by hardware int_fetch_add and the Threadstorm
/// stream scheduler.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace graphct {

/// Number of OpenMP threads a parallel region will use. This is the
/// *requested* count (omp_get_max_threads); the runtime may deliver fewer.
int num_threads();

/// Number of threads a parallel region actually materializes right now —
/// measured, not requested (OMP_THREAD_LIMIT, nesting, or the runtime can
/// cap the request). Spawns a trivial parallel region, so don't call it on
/// a hot path; profiles and job records use this.
int effective_num_threads();

/// Largest thread count set_num_threads() accepts; dist workers take the
/// same bound for their per-worker teams.
inline constexpr std::int64_t kMaxThreads = 256;

/// Override the number of threads for subsequent parallel regions
/// (0 restores the runtime default). Throws graphct::Error, before any
/// OpenMP call, when `n` is outside [0, kMaxThreads]. Records the requested
/// and effective counts as gauges (gct_omp_threads_{requested,effective}).
void set_num_threads(std::int64_t n);

/// Atomic fetch-and-add on a 64-bit integer; returns the previous value.
/// This is the paper's sole synchronization primitive (§II-B).
std::int64_t fetch_add(std::int64_t& target, std::int64_t delta);

/// Atomic compare-and-swap: if target == expected, store desired and return
/// true. Used by label-absorption in connected components.
bool compare_and_swap(std::int64_t& target, std::int64_t expected,
                      std::int64_t desired);

/// Atomic minimum: target = min(target, value); returns true when the stored
/// value changed. Lock-free CAS loop.
bool atomic_min(std::int64_t& target, std::int64_t value);

/// Exclusive prefix sum of `in`, written to `out` (out[0] = 0); returns the
/// total. `in` and `out` may alias. Parallel two-pass block algorithm.
std::int64_t exclusive_scan(std::span<const std::int64_t> in,
                            std::span<std::int64_t> out);

/// In-place exclusive prefix sum over a vector; returns the total.
std::int64_t exclusive_scan_inplace(std::vector<std::int64_t>& v);

// ---- Source-parallel sums (bc, kbc, closeness; paper §II-B) ----

/// Default cap on a source sum's buffer and workspace bytes (1 GiB).
inline constexpr std::uint64_t kSourceSumBudgetBytes = std::uint64_t{1} << 30;

/// All n vertices when num_sources is -1 (kNoVertex) or >= n, else
/// Rng(seed).sample_without_replacement(n, num_sources). Throws on any
/// other count <= 0.
std::vector<std::int64_t> sample_sources(std::int64_t n,
                                         std::int64_t num_sources,
                                         std::uint64_t seed);

/// team 1: serial, sources in order straight into the output. Otherwise
/// `team` threads over a ring of `slots` buffers, committed into the output
/// in source order, so every plan gives the same bits (sum_over_sources).
struct SourceSumPlan {
  int team = 1;
  int slots = 0;                   ///< ring buffers; 0 when serial
  std::uint64_t buffer_bytes = 0;  ///< slots * 8n + team * workspace
};

/// The largest team t <= threads whose slot count
/// S = min(2t, num_sources, (budget - t * workspace) / 8n) is >= t;
/// serial (one workspace) below a team of two.
SourceSumPlan plan_source_sum(std::int64_t n, std::int64_t num_sources,
                              int threads, std::uint64_t budget_bytes,
                              std::uint64_t workspace_bytes);

/// Work booked per source after a parallel plan's region, where profiling
/// is suspended (a serial plan's spans record their own).
struct SourceWork {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
};

/// out += every source's contribution under `plan`: fn(worker, i, into)
/// adds source i's terms into `into`, with workspace number `worker` in
/// [0, plan.team), and returns the elements it added to (a superset will
/// do; the span need only last until fn's next call on that worker).
/// Contract: fn adds at most one term to each element of `into` and never
/// reads it otherwise. A parallel plan sums source i into zeroed ring
/// buffer i mod slots and commits it into `out` in blocks of 1,024
/// elements: each block takes its sources in source order, skips the ones
/// that touched none of its elements and re-zeroes the rest, and any
/// thread may commit any block whose next source is finished, so the
/// commits of consecutive sources run side by side. Every element gets the
/// serial plan's adds in its order, plus +0.0 where a source touched its
/// block but not it, so every plan gives the same bits. A thread waits only
/// while the ring is full or every source is claimed; an exception from fn
/// stops the sum, wakes every waiter and is rethrown.
void sum_over_sources(
    std::int64_t num_sources, const SourceSumPlan& plan,
    SourceWork per_source, std::span<double> out,
    const std::function<std::span<const std::int64_t>(
        int, std::int64_t, std::span<double>)>& fn);

}  // namespace graphct
