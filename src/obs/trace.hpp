#pragma once

/// \file trace.hpp
/// Scoped tracing spans and per-kernel phase profiling.
///
/// This is the repo's single phase-timing mechanism: kernels mark their
/// phases with `GCT_SPAN("bc.dependency_accum")` and their entry point with
/// a `KernelScope`, and the profiler attributes wall time, call counts, and
/// work counters (vertices visited / edges traversed, hence TEPS) to each
/// phase. The same instrumentation serves the CLI's `--profile` table, the
/// script interpreter's `profile on`, the server's per-command profiles,
/// and `bench/kernel_profile`'s JSON baselines.
///
/// Cost model — the reason this can live inside every kernel permanently:
///   * Profiling disabled (default): a Span is one thread_local load and a
///     branch; a KernelScope is two steady_clock reads plus one registry
///     counter/histogram update per *kernel run*. Kernel throughput is
///     unaffected (< 2% on the bench smoke graph; see ISSUE 3).
///   * Profiling enabled: spans take two clock reads and a short linear
///     scan; kernels additionally compute exact work counters where cheap.
///
/// Collection model: `set_profiling_enabled(true)` arms collection
/// process-wide. The first KernelScope opened on a thread becomes the root
/// of a profile; spans and nested KernelScopes opened on the *same thread*
/// while it is live become phases, keyed by (name, depth) and accumulated
/// across repeat entries (loops, per-source calls). Spans opened on OpenMP
/// worker threads inside a parallel region are not recorded — phases are
/// attributed by the orchestrating thread, and a phase that *contains* a
/// parallel region reports its full wall time, so top-level (depth-1)
/// phase times still sum to the kernel total. Completed profiles queue on
/// a thread-local list until `drain_profiles()` (the thread that ran the
/// kernel prints them — CLI main, script interpreter, or server worker).

#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

namespace graphct::obs {

/// Accumulated statistics for one (name, depth) phase of a kernel run.
struct PhaseStats {
  std::string name;
  int depth = 1;            ///< 1 = direct child of the kernel root
  std::int64_t calls = 0;   ///< times the span was entered
  double seconds = 0.0;     ///< total wall time across entries
  std::int64_t vertices = 0;  ///< work attributed via add_work()
  std::int64_t edges = 0;
};

/// One kernel run's profile: total wall time, effective thread count, work
/// counters, and phases in first-entered order.
struct KernelProfile {
  std::string kernel;
  double seconds = 0.0;
  int threads = 0;
  std::int64_t vertices = 0;  ///< total across all phases
  std::int64_t edges = 0;

  std::vector<PhaseStats> phases;

  /// Traversed edges per second over the whole kernel (the paper's §V
  /// runtime currency); 0 when no edge work was recorded.
  [[nodiscard]] double teps() const {
    return seconds > 0.0 ? static_cast<double>(edges) / seconds : 0.0;
  }

  /// Sum of phase wall time at `depth` (depth-1 phases partition the
  /// kernel, so phase_seconds(1) ~= seconds up to instrumentation gaps).
  [[nodiscard]] double phase_seconds(int depth = 1) const;

  /// One-line JSON object (kernel, seconds, threads, vertices, edges,
  /// teps, phases[]) — the bench/kernel_profile line format.
  [[nodiscard]] std::string to_json() const;
};

/// Render a profile as an indented fixed-width phase table (the CLI's
/// `--profile` output). Self-contained so obs stays dependency-free.
std::string format_profile(const KernelProfile& profile);

/// Process-wide collection switch. Cheap to read (one relaxed atomic).
bool profiling_enabled();
void set_profiling_enabled(bool on);

/// True when the calling thread is inside a collecting KernelScope. Guards
/// work-counter computations that are only cheap relative to profiling
/// (e.g. summing frontier degrees).
bool profile_active();

/// Attribute work to the innermost open span on this thread (the kernel
/// root when no span is open). No-op when no profile is active.
void add_work(std::int64_t vertices, std::int64_t edges);

/// Measured OpenMP thread count: spawns a trivial parallel region and
/// reports how many threads actually materialized, which is what profiles
/// and job records store (the requested count can be lied to by
/// OMP_THREAD_LIMIT, nesting, or the runtime).
int effective_threads();

/// RAII phase marker. Use through GCT_SPAN; nestable and reentrant —
/// re-entering a name at the same depth accumulates into one PhaseStats.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// False when no profile is active (the span records nothing).
  [[nodiscard]] bool active() const { return index_ >= 0; }

 private:
  int index_ = -1;  ///< phase slot in the thread's sink; -1 = inactive
  std::chrono::steady_clock::time_point start_;
};

#define GCT_OBS_CONCAT_INNER(a, b) a##b
#define GCT_OBS_CONCAT(a, b) GCT_OBS_CONCAT_INNER(a, b)
/// Open a profiling span for the rest of the enclosing block.
#define GCT_SPAN(name) \
  ::graphct::obs::Span GCT_OBS_CONCAT(gct_span_, __COUNTER__)(name)

/// RAII kernel entry marker. Always measures wall time (kernels report
/// result.seconds from it — the one timing mechanism), and:
///   * as the outermost scope on the thread: records the run into the
///     metrics registry (gct_kernel_runs_total / gct_kernel_seconds) and,
///     when profiling is enabled, collects a KernelProfile;
///   * nested inside another KernelScope (one kernel called from another's
///     body): degrades to a plain phase span.
class KernelScope {
 public:
  explicit KernelScope(const char* kernel);
  ~KernelScope();
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Wall seconds since construction (live; used for result.seconds).
  [[nodiscard]] double seconds() const;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  bool owner_ = false;       ///< outermost scope on this thread
  bool collecting_ = false;  ///< owner with profiling enabled at entry
  int index_ = -1;           ///< phase slot when nested
};

/// RAII: detach the calling thread's live profile for a stretch of code.
/// Coarse-parallel kernels use it around source-parallel regions: the
/// orchestrating thread participates in the region, and without suspension
/// its share of per-source work would be recorded exactly while the other
/// threads' shares are invisible — the caller instead accounts for the whole
/// region in bulk after it ends.
class SuspendCollection {
 public:
  SuspendCollection();
  ~SuspendCollection();
  SuspendCollection(const SuspendCollection&) = delete;
  SuspendCollection& operator=(const SuspendCollection&) = delete;

 private:
  void* saved_;
};

/// Run `fn` under a root KernelScope named `name` and return its wall
/// seconds — the bench harness' one-liner replacement for ad-hoc Timer
/// start/stop pairs (the run also lands in the metrics registry and, when
/// profiling is on, the profile log).
template <typename Fn>
double timed(const char* name, Fn&& fn) {
  KernelScope scope(name);
  fn();
  return scope.seconds();
}

/// Move out the calling thread's completed profiles (oldest first).
std::vector<KernelProfile> drain_profiles();

/// Discard the calling thread's completed profiles.
void clear_profiles();

}  // namespace graphct::obs
