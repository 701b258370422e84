#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace graphct::suite {

namespace {

/// The metrics the final result line carries: BENCHMARK.json's end_to_end
/// list (untraced runs) and per_layer list (traced runs). run.py checks the
/// two lists agree.
const std::vector<std::string> kResultE2e = {"setup_s", "op_ms", "ops_per_s",
                                             "peak_rss_mb"};
const std::vector<std::string> kLayers = {"twitter", "graph",   "algs",
                                          "core",    "storage", "dist",
                                          "server"};
const std::vector<std::string> kResultLayerExtra = {
    "core.bc_share",   "core.bc_mteps",       "core.bc_mteps_per_gbps",
    "trace.coverage",  "trace.overhead_frac", "host.triad_gbps",
    "host.nproc"};

std::vector<std::string> result_layer_metrics() {
  std::vector<std::string> out;
  for (const auto& l : kLayers) out.push_back(l + ".share");
  out.insert(out.end(), kResultLayerExtra.begin(), kResultLayerExtra.end());
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// True for spans that wrap a betweenness call on any backend.
bool is_bc_span(const std::string& span_name) {
  const auto dot = span_name.find('.');
  return dot != std::string::npos &&
         span_name.compare(dot + 1, 2, "bc") == 0;
}

thread_local std::vector<std::int64_t> t_open_spans;

int lane_id() {
  static std::mutex mu;
  static int next = 0;
  thread_local int lane = -1;
  if (lane < 0) {
    std::lock_guard<std::mutex> lock(mu);
    lane = next++;
  }
  return lane;
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.samples = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), step for step.
  auto cut = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    const auto ju = static_cast<std::size_t>(j);
    return (v[ju - 1] * static_cast<double>(4 - delta) +
            v[ju] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

// ---------------------------------------------------------------------------
// Tracer

std::int64_t Tracer::begin(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.lane = lane_id();
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.start = now_s();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::int64_t Tracer::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const auto all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const auto& s : all) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double dur = all[i].end - all[i].start;
    const std::string layer = layer_of(all[i].name);
    self[layer] += std::max(0.0, dur - child_time[i]);
    if (layer == "op") self["op.total"] += dur;
  }
  return self;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans()) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"op\":%llu,\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  layer_of(s.name).c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6, s.lane,
                  static_cast<unsigned long long>(s.op),
                  static_cast<long long>(s.parent));
    f << buf;
  }
  f << "]}\n";
}

// ---------------------------------------------------------------------------
// Report

Report::Report(const RunConfig& cfg, Tracer& tracer)
    : cfg_(cfg), tracer_(tracer) {}

void Report::add(const std::string& kind, const std::string& name,
                 const std::string& unit, const std::vector<double>& samples) {
  if (samples.empty()) {
    fail("no samples for metric " + name);
    return;
  }
  const Quartiles q = quartiles(samples);
  metrics_.push_back({name, kind, unit, q.median, q.samples, q.q1, q.q3});
}

void Report::e2e(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples) {
  add("e2e", name, unit, samples);
}

void Report::layer(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples) {
  add("layer", name, unit, samples);
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value) {
  add("layer", name, unit, {value});
}

void Report::sequential_e2e(const std::vector<double>& setup_s,
                            const std::vector<double>& op_s,
                            double peak_rss_mb) {
  std::vector<double> op_ms, per_s;
  for (const double s : op_s) {
    op_ms.push_back(s * 1e3);
    per_s.push_back(1.0 / s);
  }
  e2e("setup_s", "s", setup_s);
  e2e("op_ms", "ms", op_ms);
  e2e("ops_per_s", "1/s", per_s);
  e2e("peak_rss_mb", "MiB", {peak_rss_mb});
}

void Report::bc_rate(const std::vector<double>& mteps) {
  layer("core.bc_mteps", "MTEPS", mteps);
  if (host_gbps_ <= 0.0 || mteps.empty()) return;
  std::vector<double> per_gbps;
  for (const double r : mteps) per_gbps.push_back(r / host_gbps_);
  layer("core.bc_mteps_per_gbps", "MTEPS/GBps", per_gbps);
}

void Report::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (++reported_ <= 5) {
    std::fprintf(stderr, "graphct_bench %s: check failed: %s\n",
                 cfg_.workload.c_str(), what.c_str());
  }
}

void Report::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  setup_failed_ = true;
  std::fprintf(stderr, "graphct_bench %s: %s\n", cfg_.workload.c_str(),
               what.c_str());
}

void Report::add_trace_metrics(const std::vector<double>& traced_op_s,
                               const std::vector<double>& untraced_op_s) {
  if (!cfg_.trace) return;
  const auto self = tracer_.layer_self_seconds();
  const auto get = [&](const std::string& k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  const double total = get("op.total");
  if (total <= 0.0) {
    fail("traced run recorded no op spans");
    return;
  }
  for (const auto& l : kLayers) layer(l + ".share", "ratio", get(l) / total);
  layer("trace.coverage", "ratio", 1.0 - get("op") / total);

  double bc = 0.0;
  for (const auto& s : tracer_.spans()) {
    if (is_bc_span(s.name)) bc += s.end - s.start;
  }
  layer("core.bc_share", "ratio", bc / total);

  const double traced = quartiles(traced_op_s).median;
  const double untraced = quartiles(untraced_op_s).median;
  if (traced > 0.0 && untraced > 0.0) {
    layer("trace.overhead_frac", "ratio", traced / untraced - 1.0);
  } else {
    fail("trace overhead needs traced and untraced reps");
  }
}

int Report::finish() {
  const bool correct = failed_ == 0 && !setup_failed_ && attempted_ > 0;
  for (const auto& m : metrics_) {
    std::printf(
        "{\"workload\":\"%s\",\"metric\":\"%s\",\"kind\":\"%s\",\"value\":",
        cfg_.workload.c_str(), m.name.c_str(), m.kind.c_str());
    print_number(m.value);
    std::printf(",\"unit\":\"%s\",\"samples\":%zu,\"q1\":", m.unit.c_str(),
                m.samples);
    print_number(m.q1);
    std::printf(",\"q3\":");
    print_number(m.q3);
    std::printf("}\n");
  }
  std::printf(
      "{\"workload\":\"%s\",\"metric\":\"fail_frac\",\"kind\":\"e2e\","
      "\"value\":",
      cfg_.workload.c_str());
  print_number(attempted_ > 0 ? static_cast<double>(failed_) /
                                    static_cast<double>(attempted_)
                              : 1.0);
  std::printf(",\"unit\":\"ratio\",\"samples\":%lld,\"q1\":null,\"q3\":null}\n",
              static_cast<long long>(attempted_));

  if (cfg_.trace && !cfg_.trace_path.empty()) {
    tracer_.write_chrome(cfg_.trace_path);
  }

  const std::vector<std::string> wanted =
      cfg_.trace ? result_layer_metrics() : kResultE2e;
  std::string body;
  for (const auto& name : wanted) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      std::fprintf(stderr, "graphct_bench %s: metric %s was not measured\n",
                   cfg_.workload.c_str(), name.c_str());
      return 3;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  body.empty() ? "" : ",", name.c_str(), it->value,
                  it->unit.c_str());
    body += buf;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), body.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Helpers

void run_for(double seconds, int min_reps,
             const std::function<void(int)>& rep) {
  const double deadline = now_s() + seconds;
  for (int i = 0; i < min_reps || now_s() < deadline; ++i) rep(i);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool run_in_child(const std::function<void()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "graphct_bench: input generation: %s\n", e.what());
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace graphct::suite
