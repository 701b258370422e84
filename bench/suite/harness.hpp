#pragma once

/// \file harness.hpp
/// Shared pieces of graphct_bench: the bench-side span recorder, sample
/// statistics, the metric report every workload fills in, and small
/// process/filesystem helpers. Nothing here calls into the graphct
/// libraries; the workloads do that, from outside, through facade APIs.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace graphct::suite {

/// Fixed thread cap for multi-threaded series. A constant, not the host's
/// core count, so results stay comparable across hosts; main() warns when
/// the host has fewer cores.
inline constexpr int kThreads = 4;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Median and quartiles as Python's statistics.quantiles(v, n=4) gives
/// them (the default "exclusive" method); one sample gives q1 = q3 = it.
struct Quartiles {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t samples = 0;
};
Quartiles quartiles(std::vector<double> v);

/// Value at fraction `p` of the sorted samples (nearest rank, 0 if empty).
double percentile(std::vector<double> v, double p);

/// Bench-side spans around calls into the library layers. A span's name is
/// `<layer>.<what>`; the root span of each measured operation is named
/// `op` and every span of that operation carries its op id. Spans are kept
/// in memory and written as Chrome trace-event JSON at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t op = 0;
    int lane = 0;  ///< thread lane in the Chrome trace
  };

  /// While disabled, begin() records nothing (the untraced reps).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span on the calling thread, nested under that thread's
  /// innermost open span. Returns -1 when disabled.
  std::int64_t begin(const std::string& name, std::uint64_t op);
  void end(std::int64_t id);

  /// Record a span whose bounds were measured elsewhere (server job queue
  /// wait and run time, joined by job id); returns its index.
  std::int64_t add(Span s);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Self time (duration minus the part covered by child spans) summed per
  /// layer, plus the `op` root spans' total duration under key "op".
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Durations of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Write every span as Chrome trace-event JSON (opens in Perfetto).
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool enabled_ = false;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::uint64_t op)
      : t_(t), id_(t.begin(name, op)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output when trace is on
  std::string tmp_dir;     ///< per-run scratch directory (removed at exit)
};

/// What one workload measured. Each workload adds its metrics, counts its
/// checked operations, and finish() prints one JSON line per metric plus
/// the final result line.
class Report {
 public:
  Report(const RunConfig& cfg, Tracer& tracer);

  /// End-to-end metric from untraced samples (median, quartiles).
  void e2e(const std::string& name, const std::string& unit,
           const std::vector<double>& samples);
  /// Per-layer metric from samples, or from one exact value.
  void layer(const std::string& name, const std::string& unit,
             const std::vector<double>& samples);
  void layer(const std::string& name, const std::string& unit, double value);

  /// The four end-to-end metrics of a workload whose operations run one at
  /// a time: op_ms and ops_per_s from the untraced op durations (seconds).
  void sequential_e2e(const std::vector<double>& setup_s,
                      const std::vector<double>& op_s, double peak_rss_mb);

  /// Host bandwidth anchor measured for this run (0 = not measured).
  void set_host_gbps(double gbps) { host_gbps_ = gbps; }
  /// core.bc_mteps from per-rep rates (computed: sources x adjacency
  /// entries / seconds), and core.bc_mteps_per_gbps against the anchor.
  void bc_rate(const std::vector<double>& mteps);

  /// Count one checked operation; a false `ok` counts it as failed and
  /// prints `what` to stderr (at most a few times per run).
  void check(bool ok, const std::string& what);
  /// A failure that is not tied to one checked operation (e.g. a setup
  /// step); makes the run incorrect without counting an operation.
  void fail(const std::string& what);

  /// Derive the per-layer shares, coverage and overhead from the tracer,
  /// given the traced and untraced op durations. No-op when untraced.
  void add_trace_metrics(const std::vector<double>& traced_op_s,
                         const std::vector<double>& untraced_op_s);

  /// Print every metric line and the final result line; write the Chrome
  /// trace when tracing. Returns the process exit code.
  int finish();

 private:
  struct Metric {
    std::string name;
    std::string kind;  ///< "e2e" or "layer"
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
    double q1 = 0.0;
    double q3 = 0.0;
  };
  void add(const std::string& kind, const std::string& name,
           const std::string& unit, const std::vector<double>& samples);

  const RunConfig& cfg_;
  Tracer& tracer_;
  std::vector<Metric> metrics_;
  std::mutex mu_;  ///< guards the counters below (server clients check)
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  double host_gbps_ = 0.0;
  bool setup_failed_ = false;
  int reported_ = 0;
};

/// Runs `rep(i)` for i = 0, 1, ... until `seconds` have elapsed since the
/// call and at least `min_reps` reps ran.
void run_for(double seconds, int min_reps, const std::function<void(int)>& rep);

/// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Run `fn` in a forked child and wait for it; true when it exited 0.
/// Call only while the process has no other threads (before any OpenMP
/// region): the child is a copy of the calling thread alone. Input
/// generation uses it so the workload process's peak RSS measures the
/// program, not the generator.
bool run_in_child(const std::function<void()>& fn);

/// Relative difference |a - b| / max(|a|, |b|), 0 when both are 0.
double rel_diff(double a, double b);

}  // namespace graphct::suite
