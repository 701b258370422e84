/// \file bc_workloads.cpp
/// One betweenness problem through three backends. bc_rmat runs the core
/// kernel on a DRAM Toolkit at 1 and N threads; bc_packed runs it over a
/// packed on-disk store; bc_dist runs it on forked dist workers. The two
/// backend workloads each isolate one layer, and bc_rmat is the run that
/// skips both.

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algs/connected_components.hpp"
#include "algs/ranking.hpp"
#include "core/toolkit.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "gen/rmat.hpp"
#include "storage/graph_store.hpp"
#include "storage/packed_writer.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace graphct::suite {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

CsrGraph rmat_lwcc(std::int64_t scale, std::uint64_t seed) {
  RmatOptions r;
  r.scale = scale;
  r.edge_factor = 16;
  r.seed = seed;
  return largest_component(rmat_graph(r)).graph;
}

namespace {

BetweennessOptions bc_options(std::int64_t sources, std::uint64_t seed) {
  BetweennessOptions bo;
  bo.num_sources = sources;
  bo.seed = seed;
  return bo;
}

/// One betweenness rep on `tk`, cache invalidated first so the ResultCache
/// cannot serve the repeat. Returns the scores and their wall time.
std::vector<double> bc_rep(Toolkit& tk, const BetweennessOptions& bo,
                           Tracer& tracer, const char* span,
                           std::uint64_t op, double& seconds,
                           dist::Coordinator* coord = nullptr) {
  tk.invalidate();
  const double t0 = now_s();
  std::vector<double> scores;
  {
    ScopedSpan s(tracer, span, op);
    scores = coord ? tk.betweenness_dist(*coord, bo).score
                   : tk.betweenness(bo).score;
  }
  seconds = now_s() - t0;
  return scores;
}

/// Threaded default-mode scores are not bitwise reproducible: within 1e-12
/// relative, with the same top-15 set.
bool close_match(const std::vector<double>& got,
                 const std::vector<double>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (rel_diff(got[i], ref[i]) > 1e-12) return false;
  }
  auto top = [](const std::vector<double>& s) {
    auto v = top_k(std::span<const double>(s), 15);
    std::sort(v.begin(), v.end());
    return v;
  };
  return top(got) == top(ref);
}

std::vector<double> scaled(const std::vector<double>& v, double factor) {
  std::vector<double> out;
  for (const double x : v) out.push_back(x * factor);
  return out;
}

std::vector<double> rates(const std::vector<double>& seconds, double work) {
  std::vector<double> out;
  for (const double s : seconds) out.push_back(work / s / 1e6);
  return out;
}

}  // namespace

void run_bc_rmat(const RunConfig& cfg, Tracer& tracer, Report& report) {
  constexpr std::int64_t kSources = 256;
  set_num_threads(kThreads);
  const CsrGraph g = rmat_lwcc(16, derive_seed(cfg.seed, 3));
  const BetweennessOptions bo = bc_options(kSources, derive_seed(cfg.seed, 4));

  // Set-up: Toolkit load with default options (sorted adjacency and the
  // paper's 256-BFS diameter estimate), three times; the last one is used.
  std::vector<double> setup;
  std::optional<Toolkit> tk;
  for (int k = 0; k < 3; ++k) {
    CsrGraph copy = g;
    tk.reset();
    const double t0 = now_s();
    tk.emplace(std::move(copy));
    setup.push_back(now_s() - t0);
  }
  const double work =
      static_cast<double>(kSources) *
      static_cast<double>(tk->graph().num_adjacency_entries());

  // Reference (and the 1-thread series' warm-up), then the N-thread warm-up.
  double secs = 0.0;
  set_num_threads(1);
  const auto ref = bc_rep(*tk, bo, tracer, "core.bc_t1", 0, secs);
  set_num_threads(kThreads);
  report.check(close_match(bc_rep(*tk, bo, tracer, "core.bc", 0, secs), ref),
               "N-thread warm-up differs from the 1-thread reference");

  // Timed: three N-thread reps per 1-thread rep; each group of four is
  // traced or not as a unit.
  std::vector<double> tn[2], t1[2];
  run_for(cfg.seconds, cfg.trace ? 8 : 4, [&](int i) {
    const bool traced = cfg.trace && (i / 4) % 2 == 1;
    const bool single = i % 4 == 3;
    const auto op = static_cast<std::uint64_t>(i) + 1;
    tracer.set_enabled(traced);
    set_num_threads(single ? 1 : kThreads);
    std::vector<double> got;
    {
      ScopedSpan s(tracer, "op", op);
      got = bc_rep(*tk, bo, tracer, single ? "core.bc_t1" : "core.bc", op,
                   secs);
    }
    tracer.set_enabled(false);
    set_num_threads(kThreads);
    (single ? t1 : tn)[traced ? 1 : 0].push_back(secs);
    report.check(single ? got == ref : close_match(got, ref),
                 single ? "1-thread rep is not bitwise the reference"
                        : "N-thread rep differs from the 1-thread reference");
  });

  report.sequential_e2e(setup, tn[0], peak_rss_mib());
  report.layer("core.load_s", "s", setup);
  report.layer("core.bc_t1_s", "s", t1[0].empty() ? t1[1] : t1[0]);
  if (!cfg.trace) return;

  const auto tn_traced = tracer.durations("core.bc");
  const auto t1_traced = tracer.durations("core.bc_t1");
  report.bc_rate(rates(tn_traced, work));
  report.layer("core.bc_t1_mteps", "MTEPS", rates(t1_traced, work));
  const double eff = quartiles(t1_traced).median /
                     (kThreads * quartiles(tn_traced).median);
  report.layer("core.bc_scaling_eff", "ratio", eff);
  // The op spans cover both series; overhead compares like with like.
  report.add_trace_metrics(tn[1], tn[0]);
}

void run_bc_packed(const RunConfig& cfg, Tracer& tracer, Report& report) {
  constexpr std::int64_t kSources = 64;
  set_num_threads(1);
  ToolkitOptions topts;
  topts.estimate_diameter_on_load = false;
  Toolkit dram(rmat_lwcc(14, derive_seed(cfg.seed, 5)), topts);
  const BetweennessOptions bo = bc_options(kSources, derive_seed(cfg.seed, 6));
  const double work =
      static_cast<double>(kSources) *
      static_cast<double>(dram.graph().num_adjacency_entries());

  // Set-up: pack the graph and open the store (block cache at 1/8 of the
  // raw adjacency), five times as it is cheap; the last store is used.
  storage::StoreOptions sopts;
  sopts.cache_budget_bytes = static_cast<std::uint64_t>(
      dram.graph().num_adjacency_entries() * sizeof(vid) / 8);
  std::vector<double> setup, pack_s;
  std::optional<Toolkit> packed;
  double compression = 0.0;
  for (int k = 0; k < 5; ++k) {
    const std::string path =
        cfg.tmp_dir + "/rmat14_" + std::to_string(k) + ".packed";
    packed.reset();
    const double t0 = now_s();
    compression = storage::pack_graph(dram.graph(), path).compression_ratio;
    const double t1 = now_s();
    packed.emplace(Toolkit::load_packed(path, topts, sopts));
    setup.push_back(now_s() - t0);
    pack_s.push_back(t1 - t0);
  }

  double secs = 0.0;
  const auto ref = bc_rep(dram, bo, tracer, "core.bc", 0, secs);
  report.check(bc_rep(*packed, bo, tracer, "storage.bc", 0, secs) == ref,
               "packed warm-up is not bitwise the DRAM reference");

  // Timed: packed and DRAM reps alternate; each pair is traced or not as a
  // unit. Cache stats are differenced across each packed rep.
  std::vector<double> packed_s[2], dram_s[2], decoded, decoded_mb, hit_ratio;
  run_for(cfg.seconds, cfg.trace ? 4 : 2, [&](int i) {
    const bool traced = cfg.trace && (i / 2) % 2 == 1;
    const bool on_store = i % 2 == 0;
    const auto op = static_cast<std::uint64_t>(i) + 1;
    tracer.set_enabled(traced);
    const auto before = packed->store()->cache_stats();
    std::vector<double> got;
    {
      ScopedSpan s(tracer, "op", op);
      got = on_store ? bc_rep(*packed, bo, tracer, "storage.bc", op, secs)
                     : bc_rep(dram, bo, tracer, "core.bc", op, secs);
    }
    tracer.set_enabled(false);
    (on_store ? packed_s : dram_s)[traced ? 1 : 0].push_back(secs);
    if (on_store) {
      const auto after = packed->store()->cache_stats();
      const auto misses = static_cast<double>(after.misses - before.misses);
      const auto hits = static_cast<double>(after.hits - before.hits);
      decoded.push_back(misses);
      decoded_mb.push_back(
          static_cast<double>(after.decoded_bytes - before.decoded_bytes) /
          (1024.0 * 1024.0));
      hit_ratio.push_back(hits + misses > 0 ? hits / (hits + misses) : 0.0);
    }
    report.check(got == ref, on_store ? "packed rep is not bitwise DRAM"
                                      : "DRAM rep is not bitwise the reference");
  });

  report.sequential_e2e(setup, packed_s[0], peak_rss_mib());
  report.layer("storage.pack_s", "s", pack_s);
  report.layer("storage.compression_ratio", "ratio", compression);
  report.layer("storage.blocks_decoded", "count", decoded);
  report.layer("storage.decoded_mb", "MiB", decoded_mb);
  report.layer("storage.block_hit_ratio", "ratio", hit_ratio);
  report.layer("core.bc_dram_s", "s", dram_s[0]);
  report.layer("storage.overhead_x", "ratio",
               quartiles(packed_s[0]).median / quartiles(dram_s[0]).median);
  if (!cfg.trace) return;
  report.bc_rate(rates(tracer.durations("storage.bc"), work));
  report.add_trace_metrics(packed_s[1], packed_s[0]);
}

void run_bc_dist(const RunConfig& cfg, Tracer& tracer, Report& report) {
  constexpr std::int64_t kSources = 64;
  constexpr int kSets = 5;
  // Fork every worker set before anything in this process starts an
  // OpenMP team (dist/local_worker_set.hpp): five cheap set-ups, the last
  // one used.
  std::vector<std::unique_ptr<dist::LocalWorkerSet>> sets;
  std::vector<double> spawn_s;
  dist::LocalWorkerSetOptions wopts;
  wopts.num_workers = 2;
  wopts.fork_mode = true;
  wopts.threads = 1;
  for (int k = 0; k < kSets; ++k) {
    const double t0 = now_s();
    sets.push_back(std::make_unique<dist::LocalWorkerSet>(wopts));
    spawn_s.push_back(now_s() - t0);
  }

  set_num_threads(1);
  ToolkitOptions topts;
  topts.estimate_diameter_on_load = false;
  Toolkit tk(rmat_lwcc(14, derive_seed(cfg.seed, 7)), topts);
  const BetweennessOptions bo = bc_options(kSources, derive_seed(cfg.seed, 8));
  const double work = static_cast<double>(kSources) *
                      static_cast<double>(tk.graph().num_adjacency_entries());

  std::vector<double> setup, load_s;
  std::vector<std::unique_ptr<dist::Coordinator>> coords;
  for (int k = 0; k < kSets; ++k) {
    coords.push_back(std::make_unique<dist::Coordinator>());
    const double t0 = now_s();
    coords.back()->connect(sets[static_cast<std::size_t>(k)]->ports());
    const double t1 = now_s();
    coords.back()->load_graph(tk.graph());
    load_s.push_back(now_s() - t1);
    setup.push_back(spawn_s[static_cast<std::size_t>(k)] + now_s() - t0);
  }
  for (int k = 0; k + 1 < kSets; ++k) {
    coords[static_cast<std::size_t>(k)]->shutdown();
    sets[static_cast<std::size_t>(k)]->stop();
  }
  dist::Coordinator& coord = *coords.back();

  double secs = 0.0;
  const auto ref = bc_rep(tk, bo, tracer, "core.bc", 0, secs);
  report.check(bc_rep(tk, bo, tracer, "dist.bc", 0, secs, &coord) == ref,
               "dist warm-up is not bitwise the DRAM reference");

  std::vector<double> dist_s[2], dram_s[2], steps, messages, wire_mb;
  run_for(cfg.seconds, cfg.trace ? 4 : 2, [&](int i) {
    const bool traced = cfg.trace && (i / 2) % 2 == 1;
    const bool on_workers = i % 2 == 0;
    const auto op = static_cast<std::uint64_t>(i) + 1;
    tracer.set_enabled(traced);
    std::vector<double> got;
    {
      ScopedSpan s(tracer, "op", op);
      got = on_workers ? bc_rep(tk, bo, tracer, "dist.bc", op, secs, &coord)
                       : bc_rep(tk, bo, tracer, "core.bc", op, secs);
    }
    tracer.set_enabled(false);
    (on_workers ? dist_s : dram_s)[traced ? 1 : 0].push_back(secs);
    if (on_workers) {
      const dist::DistStats& st = coord.last_kernel_stats();
      steps.push_back(static_cast<double>(st.steps));
      messages.push_back(
          static_cast<double>(st.messages_sent + st.messages_received));
      wire_mb.push_back(
          static_cast<double>(st.bytes_sent + st.bytes_received) /
          (1024.0 * 1024.0));
    }
    report.check(got == ref, on_workers ? "dist rep is not bitwise DRAM"
                                        : "DRAM rep is not bitwise the reference");
  });

  report.sequential_e2e(setup, dist_s[0], peak_rss_mib());
  report.layer("dist.spawn_s", "s", spawn_s);
  report.layer("dist.load_s", "s", load_s);
  report.layer("dist.supersteps", "count", steps);
  report.layer("dist.messages", "count", messages);
  report.layer("dist.wire_mb", "MiB", wire_mb);
  // Superstep counts repeat exactly, so every rep divides by the first.
  report.layer("dist.ms_per_superstep", "ms",
               scaled(dist_s[0], 1e3 / steps.front()));
  report.layer("core.bc_dram_s", "s", dram_s[0]);
  report.layer("dist.overhead_x", "ratio",
               quartiles(dist_s[0]).median / quartiles(dram_s[0]).median);
  if (!cfg.trace) return;
  report.bc_rate(rates(tracer.durations("dist.bc"), work));
  report.add_trace_metrics(dist_s[1], dist_s[0]);
}

}  // namespace graphct::suite
