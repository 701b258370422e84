/// \file main.cpp
/// graphct_bench: one command, every workload, end-to-end and per-layer
/// metrics. See README.md in this directory.
///
///   graphct_bench --workload <name|all> [--seed N] [--seconds S]
///                 [--trace 0|1|<file>]
///
/// Prints one JSON line per metric ({workload, metric, kind, value, unit,
/// samples, q1, q3}) and, last, the result line {correct, attempted,
/// failed, metrics}. Exits non-zero when any output check fails.
/// `--workload all` re-executes this binary once per workload, traced, so
/// peak RSS and OpenMP state are per workload and bc_dist can fork its
/// workers before any OpenMP team exists.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <omp.h>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace graphct::suite;

using WorkloadFn = void (*)(const RunConfig&, Tracer&, Report&);

const std::vector<std::pair<std::string, WorkloadFn>> kWorkloads = {
    {"twitter_pipeline", run_twitter_pipeline},
    {"bc_rmat", run_bc_rmat},
    {"bc_packed", run_bc_packed},
    {"bc_dist", run_bc_dist},
    {"server_mixed", run_server_mixed},
};

int usage() {
  std::fprintf(stderr,
               "usage: graphct_bench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1|<file>]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.first.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string self_exe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

/// Shell command line running this binary with `args`.
std::string self_command(const std::string& args) {
  std::string cmd = "'";
  cmd += self_exe();
  cmd += "' ";
  cmd += args;
  return cmd;
}

/// Last-level cache size in bytes (L3, else L2, else 32 MiB).
long llc_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? llc : 32L << 20;
}

/// STREAM triad a[i] = b[i] + s*c[i] at kThreads threads over arrays each
/// four times the LLC; prints the best of five passes as one JSON line.
int triad_main() {
  const long llc = llc_bytes();
  const std::size_t n = static_cast<std::size_t>(4 * llc) / sizeof(double);
  double* a = static_cast<double*>(std::malloc(n * sizeof(double)));
  double* b = static_cast<double*>(std::malloc(n * sizeof(double)));
  double* c = static_cast<double*>(std::malloc(n * sizeof(double)));
  if (a == nullptr || b == nullptr || c == nullptr) return 1;
  const auto count = static_cast<long>(n);
  omp_set_num_threads(kThreads);
#pragma omp parallel for schedule(static)
  for (long i = 0; i < count; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static)
    for (long i = 0; i < count; ++i) a[i] = b[i] + 3.0 * c[i];
    const double secs = now_s() - t0;
    if (pass > 0) best = std::max(best, 3.0 * sizeof(double) * n / secs / 1e9);
  }
  const bool sane = a[n / 2] == 7.0;
  std::free(a);
  std::free(b);
  std::free(c);
  std::printf("{\"triad_gbps\":%.17g,\"array_mib\":%.1f,\"llc_mib\":%.1f}\n",
              best, static_cast<double>(n * sizeof(double)) / (1 << 20),
              static_cast<double>(llc) / (1 << 20));
  return sane ? 0 : 1;
}

/// Run the triad in its own child process; returns GB/s (0 on failure)
/// and prints the array and LLC sizes as a note line.
double measure_triad(const std::string& workload) {
  FILE* p = popen(self_command("--triad").c_str(), "r");
  if (p == nullptr) return 0.0;
  char line[256] = {0};
  const bool got = std::fgets(line, sizeof(line), p) != nullptr;
  const int status = pclose(p);
  double gbps = 0.0, array_mib = 0.0, llc_mib = 0.0;
  if (!got || status != 0 ||
      std::sscanf(line,
                  "{\"triad_gbps\":%lf,\"array_mib\":%lf,\"llc_mib\":%lf}",
                  &gbps, &array_mib, &llc_mib) != 3) {
    return 0.0;
  }
  std::printf(
      "{\"workload\":\"%s\",\"note\":\"host triad\",\"array_mib\":%.1f,"
      "\"llc_mib\":%.1f}\n",
      workload.c_str(), array_mib, llc_mib);
  return gbps;
}

/// `--workload all`: each workload in its own traced child process, output
/// forwarded; the last line totals the checks.
int run_all(const RunConfig& cfg) {
  std::int64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const auto& w : kWorkloads) {
    char args[256];
    std::snprintf(args, sizeof(args),
                  "--workload %s --seed %llu --seconds %.17g --trace 1",
                  w.first.c_str(), static_cast<unsigned long long>(cfg.seed),
                  cfg.seconds);
    FILE* p = popen(self_command(args).c_str(), "r");
    if (p == nullptr) return 1;
    char line[8192];
    std::string last;
    while (std::fgets(line, sizeof(line), p) != nullptr) {
      std::fputs(line, stdout);
      last = line;
    }
    std::fflush(stdout);
    const int status = pclose(p);
    long long a = 0, f = 0;
    const char* at = std::strstr(last.c_str(), "\"attempted\":");
    const char* ft = std::strstr(last.c_str(), "\"failed\":");
    if (status != 0 || at == nullptr || ft == nullptr ||
        std::sscanf(at, "\"attempted\":%lld", &a) != 1 ||
        std::sscanf(ft, "\"failed\":%lld", &f) != 1) {
      correct = false;
    }
    attempted += a;
    failed += f;
  }
  correct = correct && failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  return correct ? 0 : 1;
}

/// A scratch directory under $TMPDIR, removed with everything in it.
class ScratchDir {
 public:
  ScratchDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base && *base ? base : "/tmp") +
                       "/graphct_bench.XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string trace_arg = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--triad") return triad_main();
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace_arg = val;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0.0)) return usage();
  if (cfg.workload == "all") return run_all(cfg);

  WorkloadFn fn = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.first == cfg.workload) fn = w.second;
  }
  if (fn == nullptr) return usage();

  cfg.trace = trace_arg != "0";
  if (trace_arg == "1") {
    cfg.trace_path = (std::filesystem::path(self_exe()).parent_path() /
                      ("trace_" + cfg.workload + ".json"))
                         .string();
  } else if (cfg.trace) {
    cfg.trace_path = trace_arg;
  }

  ScratchDir scratch;
  Tracer tracer;
  Report report(cfg, tracer);
  if (scratch.path().empty()) {
    report.fail("cannot create a scratch directory under $TMPDIR");
    return report.finish();
  }
  cfg.tmp_dir = scratch.path();

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (nproc < kThreads) {
    std::fprintf(stderr,
                 "graphct_bench: warning: %d cores for a %d-thread cap; "
                 "timings are oversubscribed\n",
                 nproc, kThreads);
    std::printf("{\"workload\":\"%s\",\"oversubscribed\":true,\"nproc\":%d}\n",
                cfg.workload.c_str(), nproc);
  }
  report.layer("host.nproc", "count", static_cast<double>(nproc));
  if (cfg.trace) {
    const double gbps = measure_triad(cfg.workload);
    if (gbps > 0.0) {
      report.set_host_gbps(gbps);
      report.layer("host.triad_gbps", "GB/s", gbps);
    } else {
      report.fail("host triad failed");
    }
  }

  try {
    fn(cfg, tracer, report);
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  return report.finish();
}
