/// \file server_test.cpp
/// graphctd subsystem tests: the thread-safe result cache, the graph
/// registry's load-once/refcounted sharing, the job queue's per-graph
/// serialization and accounting, and whole sessions over the stdio
/// transport. The concurrency tests use rendezvous flags rather than
/// sleeps, so they are deterministic under sanitizers; the cache-hammer
/// test is the one intended for -fsanitize=thread CI runs.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "graph/io_dimacs.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/parallel.hpp"

namespace graphct::server {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

script::InterpreterOptions fast_opts() {
  script::InterpreterOptions o;
  o.toolkit.diameter_samples = 16;
  return o;
}

ServerOptions fast_server_opts(int workers = 4) {
  ServerOptions o;
  o.workers = workers;
  o.interpreter = fast_opts();
  return o;
}

// ---------------------------------------------------------------- cache --

TEST(ResultCacheTest, ComputesOnceAndCountsTraffic) {
  ResultCache cache;
  int computed = 0;
  auto a = cache.get_or_compute<int>("answer", [&] {
    ++computed;
    return 42;
  });
  auto b = cache.get_or_compute<int>("answer", [&] {
    ++computed;
    return 0;  // must not run
  });
  EXPECT_EQ(*a, 42);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(computed, 1);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1);
}

TEST(ResultCacheTest, FailedComputationRetries) {
  ResultCache cache;
  EXPECT_THROW(cache.get_or_compute<int>(
                   "k", []() -> int { throw Error("boom"); }),
               Error);
  auto v = cache.get_or_compute<int>("k", [] { return 7; });
  EXPECT_EQ(*v, 7);
}

TEST(ResultCacheTest, InvalidatePreservesOutstandingValues) {
  ResultCache cache;
  auto v = cache.get_or_compute<std::vector<int>>(
      "v", [] { return std::vector<int>{1, 2, 3}; });
  cache.invalidate();
  EXPECT_EQ(v->size(), 3u);  // our shared_ptr keeps the value alive
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(ResultCacheTest, ConcurrentFirstCallersComputeOnce) {
  ResultCache cache;
  std::atomic<int> computed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] =
          cache.get_or_compute<int>("shared", [&] {
            std::this_thread::sleep_for(10ms);  // widen the race window
            return computed.fetch_add(1) + 100;
          });
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(computed.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());  // everyone shares one object
  }
}

// ---------------------------------------------------- hits-only scope --

TEST(ResultCacheTest, HitsOnlyThrowsForAnAbsentKeyAndInsertsNothing) {
  ResultCache cache;
  cache.get_or_compute<int>("other", [] { return 1; });
  const auto before = cache.stats();
  bool ran = false;
  {
    ResultCache::HitsOnly scope;
    EXPECT_THROW(cache.get_or_compute<int>("k",
                                           [&] {
                                             ran = true;
                                             return 7;
                                           }),
                 ResultCache::NotCached);
    EXPECT_EQ(scope.hits(), 0);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(cache.stats().entries, before.entries);
  EXPECT_EQ(cache.stats().misses, before.misses);
  // Outside the scope the same call computes as always.
  EXPECT_EQ(*cache.get_or_compute<int>("k", [] { return 7; }), 7);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ResultCacheTest, HitsOnlyThrowsAtOnceForAKeyStillBeingComputed) {
  ResultCache cache;
  std::promise<void> started;
  std::promise<void> finish;
  auto finished = finish.get_future().share();
  std::thread owner([&] {
    cache.get_or_compute<int>("slow", [&] {
      started.set_value();
      finished.wait();
      return 5;
    });
  });
  started.get_future().wait();
  auto probe = std::async(std::launch::async, [&cache] {
    ResultCache::HitsOnly scope;
    try {
      cache.get_or_compute<int>("slow", [] { return -1; });
    } catch (const ResultCache::NotCached&) {
      return true;
    }
    return false;
  });
  // A waiting probe would stay blocked until the owner is released.
  const bool answered = probe.wait_for(10s) == std::future_status::ready;
  finish.set_value();
  owner.join();
  ASSERT_TRUE(answered);
  EXPECT_TRUE(probe.get());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(ResultCacheTest, HitsOnlyServesAPublishedValueAndCountsItsHit) {
  ResultCache cache;
  auto computed = cache.get_or_compute<int>("k", [] { return 9; });
  const auto before = cache.stats();
  ResultCache::HitsOnly scope;
  auto served = cache.get_or_compute<int>("k", [] { return -1; });
  EXPECT_EQ(served.get(), computed.get());
  EXPECT_EQ(scope.hits(), 1);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST(ResultCacheTest, HitsOnlyScopeDropsThePinsItTook) {
  ResultCache cache;
  cache.set_budget_bytes(1000);
  auto value = cache.get_or_compute<int>("k", [] { return 3; });
  ResultCache::release_thread_pins();
  const long held = value.use_count();  // ours and the cache's
  {
    ResultCache::HitsOnly scope;
    cache.get_or_compute<int>("k", [] { return -1; });
    EXPECT_EQ(value.use_count(), held + 1);  // pinned on this thread
  }
  EXPECT_EQ(value.use_count(), held);
}

// ------------------------------------------------------- cache eviction --

TEST(ResultCacheTest, BudgetEvictsLeastRecentlyUsed) {
  ResultCache cache;
  cache.set_budget_bytes(300);
  const auto size100 = [](const int&) { return std::size_t{100}; };
  cache.get_or_compute<int>("a", [] { return 1; }, size100);
  cache.get_or_compute<int>("b", [] { return 2; }, size100);
  cache.get_or_compute<int>("c", [] { return 3; }, size100);
  EXPECT_EQ(cache.stats().entries, 3);
  // Touch "a" so "b" becomes the coldest entry, then overflow the budget.
  cache.get_or_compute<int>("a", [] { return -1; }, size100);
  cache.get_or_compute<int>("d", [] { return 4; }, size100);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 3);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_LE(s.resident_bytes, 300);
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));  // the LRU victim
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  ResultCache::release_thread_pins();
}

TEST(ResultCacheTest, EvictedEntryRecomputesIdenticalValue) {
  ResultCache cache;
  cache.set_budget_bytes(100);
  const auto size80 = [](const std::vector<int>&) { return std::size_t{80}; };
  int runs = 0;
  const auto compute = [&runs] {
    ++runs;
    return std::vector<int>{9, 8, 7};
  };
  auto first = cache.get_or_compute<std::vector<int>>("v", compute, size80);
  cache.get_or_compute<std::vector<int>>("w", compute, size80);  // evicts v
  EXPECT_FALSE(cache.contains("v"));
  auto again = cache.get_or_compute<std::vector<int>>("v", compute, size80);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(*again, *first);            // identical contents...
  EXPECT_NE(again.get(), first.get());  // ...from a genuine recompute
  EXPECT_GE(cache.stats().evictions, 2);
  ResultCache::release_thread_pins();
}

TEST(ResultCacheTest, ResidentBytesNeverExceedBudgetEvenTransiently) {
  ResultCache cache;
  cache.set_budget_bytes(64);
  // An entry larger than the whole budget is evicted by its own publish.
  auto huge = cache.get_or_compute<int>(
      "huge", [] { return 5; }, [](const int&) { return std::size_t{1000}; });
  EXPECT_EQ(*huge, 5);  // the caller's value stays usable...
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0);  // ...but it was never left resident
  EXPECT_EQ(s.resident_bytes, 0);
  EXPECT_EQ(s.evictions, 1);
  ResultCache::release_thread_pins();
}

TEST(ResultCacheTest, ShrinkingBudgetEvictsImmediately) {
  ResultCache cache;
  cache.set_budget_bytes(1000);
  const auto size100 = [](const int&) { return std::size_t{100}; };
  for (int i = 0; i < 5; ++i) {
    cache.get_or_compute<int>("k" + std::to_string(i), [i] { return i; },
                              size100);
  }
  EXPECT_EQ(cache.stats().entries, 5);
  cache.set_budget_bytes(250);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_LE(s.resident_bytes, 250);
  EXPECT_EQ(s.evictions, 3);
  ResultCache::release_thread_pins();
}

// ------------------------------------------------------------- registry --

TEST(GraphRegistryTest, LoadOnceAndShare) {
  const std::string path = temp_path("gct_registry.dimacs");
  write_dimacs(path_graph(12), path);
  GraphRegistry reg;
  auto first = reg.load_graph("p", path);
  auto second = reg.load_graph("p", "/nonexistent/ignored");  // name is taken
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(reg.get_graph("p").get(), first.get());
  EXPECT_EQ(reg.get_graph("missing"), nullptr);
  std::remove(path.c_str());
}

TEST(GraphRegistryTest, DropRespectsOutstandingReferences) {
  GraphRegistry reg;
  auto held = reg.add("g", path_graph(6));
  EXPECT_EQ(reg.list().size(), 1u);
  EXPECT_TRUE(reg.drop("g"));
  EXPECT_FALSE(reg.drop("g"));
  EXPECT_EQ(reg.get_graph("g"), nullptr);
  // The session's reference keeps the toolkit alive after the drop.
  EXPECT_EQ(held->graph().num_vertices(), 6);
}

TEST(GraphRegistryTest, ListReportsSessionsHoldingTheGraph) {
  GraphRegistry reg;
  auto a = reg.add("g", path_graph(4));
  auto b = reg.get_graph("g");
  const auto rows = reg.list();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "g");
  EXPECT_EQ(rows[0].vertices, 4);
  EXPECT_EQ(rows[0].sessions, 2);  // a and b, minus the registry's own ref
}

// ------------------------------------------------------------ job queue --

/// try_submit() that the test expects to be admitted; returns the job id.
std::uint64_t admit(JobQueue& q, std::string session, std::string graph_key,
                    std::string command, JobQueue::Work work) {
  const auto r = q.try_submit(std::move(session), std::move(graph_key),
                              command, std::move(work));
  EXPECT_EQ(r.admission, Admission::kAdmitted) << command;
  return r.id;
}

TEST(JobQueueTest, RunsJobAndRecordsAccounting) {
  JobQueue q(2);
  const auto id = admit(q, "s1", "graph:g", "print graph",
                        [](JobCounters& c) -> std::string {
                          c.cache_hits = 3;
                          return "out\n";
                        });
  const JobRecord r = q.wait(id);
  EXPECT_EQ(r.state, JobState::kDone);
  EXPECT_EQ(r.output, "out\n");
  EXPECT_EQ(r.counters.cache_hits, 3);
  EXPECT_GT(r.threads, 0);
  EXPECT_GE(r.run_seconds, 0.0);
}

TEST(JobQueueTest, FailureIsCapturedNotThrown) {
  JobQueue q(1);
  const auto id = admit(q, "s1", "", "bad", [](JobCounters&) -> std::string {
    throw Error("kernel exploded");
  });
  const JobRecord r = q.wait(id);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_NE(r.error.find("kernel exploded"), std::string::npos);
}

TEST(JobQueueTest, CancelQueuedJob) {
  JobQueue q(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  const auto blocker =
      admit(q, "s1", "graph:a", "slow", [released](JobCounters&) {
        released.wait();
        return std::string("done\n");
      });
  const auto victim = admit(q, "s1", "graph:b", "never",
                            [](JobCounters&) { return std::string(); });
  EXPECT_TRUE(q.cancel(victim));
  EXPECT_FALSE(q.cancel(victim));  // already terminal
  release.set_value();
  EXPECT_EQ(q.wait(blocker).state, JobState::kDone);
  EXPECT_EQ(q.wait(victim).state, JobState::kCancelled);
  EXPECT_FALSE(q.cancel(blocker));  // running/terminal jobs not cancellable
}

TEST(JobQueueTest, SameGraphJobsNeverOverlap) {
  JobQueue q(4);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(admit(q, "s1", "graph:same", "job", [&](JobCounters&) {
      const int now = running.fetch_add(1) + 1;
      int prev = max_running.load();
      while (now > prev && !max_running.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(2ms);
      running.fetch_sub(1);
      return std::string();
    }));
  }
  for (const auto id : ids) {
    EXPECT_EQ(q.wait(id).state, JobState::kDone);
  }
  EXPECT_EQ(max_running.load(), 1);  // serialized per graph
}

TEST(JobQueueTest, DifferentGraphJobsRunConcurrently) {
  JobQueue q(2);
  // Deterministic rendezvous: each job waits for the other to start, so
  // both can only finish if they run at the same time.
  std::promise<void> a_started, b_started;
  auto a_fut = a_started.get_future().share();
  auto b_fut = b_started.get_future().share();
  const auto a = admit(q, "s1", "graph:a", "a", [&](JobCounters&) {
    a_started.set_value();
    EXPECT_EQ(b_fut.wait_for(5s), std::future_status::ready);
    return std::string();
  });
  const auto b = admit(q, "s2", "graph:b", "b", [&](JobCounters&) {
    b_started.set_value();
    EXPECT_EQ(a_fut.wait_for(5s), std::future_status::ready);
    return std::string();
  });
  EXPECT_EQ(q.wait(a).state, JobState::kDone);
  EXPECT_EQ(q.wait(b).state, JobState::kDone);
}

// ------------------------------------- admission control and fairness --

/// A job body that does nothing (for queued-but-never-inspected jobs).
std::string noop_job(JobCounters&) { return std::string(); }

TEST(JobQueueTest, TrySubmitShedsWhenGlobalQueueFull) {
  QueueLimits lim;
  lim.max_queued = 2;
  JobQueue q(1, lim);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  admit(q, "a", "graph:block", "blocker", [&](JobCounters&) {
    running.store(true);
    released.wait();
    return std::string();
  });
  while (!running.load()) std::this_thread::yield();

  const auto r1 = q.try_submit("a", "graph:block", "q1", noop_job);
  const auto r2 = q.try_submit("b", "graph:block", "q2", noop_job);
  const auto r3 = q.try_submit("c", "graph:block", "q3", noop_job);
  EXPECT_EQ(r1.admission, Admission::kAdmitted);
  EXPECT_EQ(r2.admission, Admission::kAdmitted);
  EXPECT_EQ(r3.admission, Admission::kShedQueueFull);
  EXPECT_EQ(r3.id, 0u);  // shed submissions never create a job record
  EXPECT_EQ(q.queued(), 2);

  release.set_value();
  EXPECT_EQ(q.wait(r1.id).state, JobState::kDone);
  EXPECT_EQ(q.wait(r2.id).state, JobState::kDone);
}

TEST(JobQueueTest, TrySubmitShedsPerSessionBeforeGlobal) {
  QueueLimits lim;
  lim.max_queued = 8;
  lim.max_queued_per_session = 1;
  JobQueue q(1, lim);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  admit(q, "x", "graph:block", "blocker", [&](JobCounters&) {
    running.store(true);
    released.wait();
    return std::string();
  });
  while (!running.load()) std::this_thread::yield();

  const auto r1 = q.try_submit("greedy", "graph:block", "g1", noop_job);
  const auto r2 = q.try_submit("greedy", "graph:block", "g2", noop_job);
  const auto r3 = q.try_submit("other", "graph:block", "o1", noop_job);
  EXPECT_EQ(r1.admission, Admission::kAdmitted);
  EXPECT_EQ(r2.admission, Admission::kShedSessionFull);  // greedy is full...
  EXPECT_EQ(r3.admission, Admission::kAdmitted);  // ...other sessions are not

  release.set_value();
  EXPECT_EQ(q.wait(r1.id).state, JobState::kDone);
  EXPECT_EQ(q.wait(r3.id).state, JobState::kDone);
}

TEST(JobQueueTest, RoundRobinRunsSecondSessionBeforeBurstFinishes) {
  JobQueue q(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  admit(q, "x", "graph:block", "blocker", [&](JobCounters&) {
    running.store(true);
    released.wait();
    return std::string();
  });
  while (!running.load()) std::this_thread::yield();

  // While the single worker is busy, one session bursts three jobs and a
  // second session submits one. Round-robin scheduling interleaves the
  // sessions instead of draining the burst first.
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto tagged = [&](const std::string& tag) {
    return [&order_mu, &order, tag](JobCounters&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
      return std::string();
    };
  };
  std::vector<std::uint64_t> ids;
  ids.push_back(admit(q, "burst", "graph:b1", "b1", tagged("burst1")));
  ids.push_back(admit(q, "burst", "graph:b2", "b2", tagged("burst2")));
  ids.push_back(admit(q, "burst", "graph:b3", "b3", tagged("burst3")));
  ids.push_back(admit(q, "late", "graph:l", "l1", tagged("late")));

  release.set_value();
  for (const auto id : ids) {
    EXPECT_EQ(q.wait(id).state, JobState::kDone);
  }
  const auto pos = std::find(order.begin(), order.end(), "late");
  ASSERT_NE(pos, order.end());
  EXPECT_LE(pos - order.begin(), 1);  // FIFO would have run it last
}

TEST(JobQueueTest, CancelPendingFiresOnTerminalAndDrainCompletes) {
  JobQueue q(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  admit(q, "x", "graph:block", "blocker", [&](JobCounters&) {
    running.store(true);
    released.wait();
    return std::string();
  });
  while (!running.load()) std::this_thread::yield();

  std::promise<JobRecord> terminal;
  const auto r = q.try_submit(
      "s", "graph:v", "victim", noop_job, 0,
      [&](const JobRecord& rec) { terminal.set_value(rec); });
  ASSERT_EQ(r.admission, Admission::kAdmitted);

  EXPECT_FALSE(q.drain(0.0));  // blocker still running
  EXPECT_EQ(q.cancel_pending(), 1);
  auto fut = terminal.get_future();
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(fut.get().state, JobState::kCancelled);

  release.set_value();
  EXPECT_TRUE(q.drain(5.0));
  EXPECT_EQ(q.queued(), 0);
}

TEST(JobQueueTest, OnTerminalFiresOnNormalCompletion) {
  JobQueue q(2);
  std::promise<JobRecord> terminal;
  const auto r = q.try_submit(
      "s", "graph:g", "cmd",
      [](JobCounters& c) {
        c.cache_hits = 2;
        return std::string("body\n");
      },
      0, [&](const JobRecord& rec) { terminal.set_value(rec); });
  ASSERT_EQ(r.admission, Admission::kAdmitted);
  auto fut = terminal.get_future();
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const JobRecord rec = fut.get();
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_EQ(rec.output, "body\n");
  EXPECT_EQ(rec.counters.cache_hits, 2);
}

TEST(JobQueueTest, HistoryKeepsTheNewestFinishedJobs) {
  // One worker and one session run the jobs in id order, so the newest
  // kJobHistory finished jobs are the highest ids.
  JobQueue q(1);
  const std::uint64_t total = kJobHistory + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(q.try_submit("s", "", "job", noop_job, 1).admission,
              Admission::kAdmitted);
  }
  ASSERT_TRUE(q.drain(120.0));
  const auto jobs = q.snapshot();
  ASSERT_EQ(jobs.size(), kJobHistory);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i].id, total - kJobHistory + 1 + i);
    ASSERT_EQ(jobs[i].state, JobState::kDone);
  }
  // A dropped id takes the unknown-id path.
  EXPECT_FALSE(q.get(1).has_value());
  EXPECT_EQ(q.wait(1).error, "unknown job id");
  EXPECT_TRUE(q.get(total).has_value());
}

// A job's thread count goes through set_num_threads, so a count past
// kMaxThreads fails that job before any OpenMP call, and the worker runs
// the next job.
TEST(JobQueueTest, ThreadCountPastTheBoundFailsOnlyThatJob) {
  JobQueue q(1);
  const auto wide = q.try_submit("s", "", "wide", noop_job, 257);
  const auto narrow = q.try_submit("s", "", "narrow", noop_job, 1);
  ASSERT_EQ(wide.admission, Admission::kAdmitted);
  ASSERT_EQ(narrow.admission, Admission::kAdmitted);
  const JobRecord r = q.wait(wide.id);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
  EXPECT_EQ(q.wait(narrow.id).state, JobState::kDone);
}

TEST(JobQueueTest, TrySubmitAfterShutdownSheds) {
  JobQueue q(1);
  q.shutdown();
  const auto r = q.try_submit("s", "", "cmd", noop_job);
  EXPECT_EQ(r.admission, Admission::kShedShutdown);
  EXPECT_EQ(r.id, 0u);
}

// cancel_pending() and shutdown() cancel queued jobs through the same
// routine as cancel(): each job gets the stop reason, its queue wait and
// one gct_job_runs_total{state="cancelled"} count, and fires its hook once.
TEST(JobQueueTest, StoppingCancelsEachQueuedJobOnceWithWaitAndCount) {
  const obs::Counter& cancelled =
      obs::registry().counter("gct_job_runs_total{state=\"cancelled\"}");
  struct Case {
    const char* reason;
    std::function<void(JobQueue&)> stop;
  };
  const Case cases[] = {
      {"server stopping",
       [](JobQueue& q) { EXPECT_EQ(q.cancel_pending(), 3); }},
      {"server shutting down", [](JobQueue& q) { q.shutdown(); }},
  };
  for (const Case& c : cases) {
    constexpr int kQueued = 3;
    std::mutex mu;
    std::map<std::uint64_t, std::vector<JobRecord>> fired;
    std::atomic<int> fired_count{0};
    JobQueue q(1);
    std::promise<void> release;
    auto released = release.get_future().share();
    std::atomic<bool> running{false};
    // The blocker holds its own copy of the future: `released` dies before
    // `q` joins the worker that may still be waking from it.
    admit(q, "x", "graph:block", "blocker", [&running, released](JobCounters&) {
      running.store(true);
      released.wait();
      return std::string();
    });
    while (!running.load()) std::this_thread::yield();
    for (int i = 0; i < kQueued; ++i) {
      const auto r = q.try_submit(
          "s" + std::to_string(i % 2), "graph:block", "victim", noop_job, 0,
          [&](const JobRecord& rec) {
            std::lock_guard<std::mutex> lock(mu);
            fired[rec.id].push_back(rec);
            fired_count.fetch_add(1);
          });
      ASSERT_EQ(r.admission, Admission::kAdmitted);
    }
    std::this_thread::sleep_for(2ms);  // every job waits a measurable time
    const std::int64_t before = cancelled.value();
    // shutdown() joins the worker, so it runs beside the blocker's release.
    std::thread stopper([&] { c.stop(q); });
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (fired_count.load() < kQueued &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    release.set_value();
    stopper.join();

    EXPECT_EQ(cancelled.value() - before, kQueued) << c.reason;
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kQueued)) << c.reason;
    for (const auto& [id, records] : fired) {
      ASSERT_EQ(records.size(), 1u) << c.reason << " job " << id;
      EXPECT_EQ(records[0].state, JobState::kCancelled) << c.reason;
      EXPECT_EQ(records[0].error, c.reason);
      EXPECT_GT(records[0].wait_seconds, 0.0) << c.reason << " job " << id;
    }
  }
}

// ------------------------------------------------------------- sessions --

/// Split a protocol response into lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// The "ok job=..." terminator lines of a transcript, in order.
std::vector<std::string> ok_lines(const std::string& transcript) {
  std::vector<std::string> out;
  for (const auto& line : lines_of(transcript)) {
    if (line.rfind("ok job=", 0) == 0) out.push_back(line);
  }
  return out;
}

/// The hits and misses of a reply's ` cache=<hits>/<misses>` accounting;
/// {-1, -1} when the line carries none.
std::pair<long, long> cache_traffic(const std::string& line) {
  long hits = -1, misses = -1;
  const auto pos = line.find(" cache=");
  if (pos == std::string::npos ||
      std::sscanf(line.c_str() + pos, " cache=%ld/%ld", &hits, &misses) != 2) {
    return {-1, -1};
  }
  return {hits, misses};
}

TEST(ServerTest, StdioSessionServesRepeatedQueryFromCache) {
  const std::string path = temp_path("gct_server.dimacs");
  write_dimacs(star_of_cliques(4, 8), path);

  Server srv(fast_server_opts());
  std::istringstream in("load graph g1 " + path +
                        "\n"
                        "print components\n"
                        "print components\n"
                        "quit\n");
  std::ostringstream out;
  srv.serve_stream(in, out);
  const std::string transcript = out.str();
  std::remove(path.c_str());

  EXPECT_NE(transcript.find("graphctd ready"), std::string::npos);
  EXPECT_NE(transcript.find("loaded graph 'g1'"), std::string::npos);
  EXPECT_NE(transcript.find("components: "), std::string::npos);

  const auto oks = ok_lines(transcript);
  ASSERT_EQ(oks.size(), 3u);  // load + print + print
  // First `print components` computes (misses, no hits)...
  EXPECT_NE(oks[1].find("graph=graph:g1"), std::string::npos);
  EXPECT_NE(oks[1].find("cache=0/"), std::string::npos);
  EXPECT_EQ(oks[1].find("cache=0/0"), std::string::npos);
  // ...and the repeat is served from cache: hits, zero misses.
  EXPECT_NE(oks[2].find("/0"), std::string::npos);
  EXPECT_EQ(oks[2].find("cache=0/"), std::string::npos);
}

TEST(ServerTest, ErrorsAreReportedNotFatal) {
  Server srv(fast_server_opts());
  std::istringstream in(
      "print components\n"   // no graph loaded
      "frobnicate\n"         // unknown command
      "generate rmat 5 4\n"  // still works afterwards
      "quit\n");
  std::ostringstream out;
  srv.serve_stream(in, out);
  const std::string t = out.str();
  EXPECT_NE(t.find("error script line 1: no graph loaded"), std::string::npos);
  EXPECT_NE(t.find("error script line 1: unknown command"), std::string::npos);
  EXPECT_NE(t.find("generated rmat scale 5"), std::string::npos);
}

// An error reply carries the message alone, never the source file and
// line of the check that raised it.
TEST(ServerTest, ErrorRepliesNameNoSourceFile) {
  Server srv(fast_server_opts());
  std::istringstream in("generate rmat 4 4\n"
                        "read binary " +
                        temp_path("gct_server_missing.bin") +
                        "\n"
                        "threads 257\n"
                        "kcentrality 9223372036854775807 1\n"
                        "quit\n");
  std::ostringstream out;
  srv.serve_stream(in, out);
  std::vector<std::string> errors;
  for (const auto& line : lines_of(out.str())) {
    if (line.rfind("error ", 0) == 0) errors.push_back(line);
  }
  ASSERT_EQ(errors.size(), 3u) << out.str();
  for (const auto& e : errors) {
    EXPECT_EQ(e.find(".cpp:"), std::string::npos) << e;
    EXPECT_EQ(e.find("src/"), std::string::npos) << e;
  }
}

TEST(ServerTest, ServerVerbsListGraphsAndJobs) {
  Server srv(fast_server_opts());
  srv.registry().add("resident", path_graph(9));
  auto session = srv.open_session("analyst");
  EXPECT_NE(session->handle_line("graphs").find("resident"),
            std::string::npos);
  session->handle_line("use graph resident");
  session->handle_line("print degrees");
  const std::string jobs = session->handle_line("jobs");
  EXPECT_NE(jobs.find("print degrees"), std::string::npos);
  EXPECT_NE(jobs.find("done"), std::string::npos);
  const std::string info = session->handle_line("session");
  EXPECT_NE(info.find("analyst"), std::string::npos);
  EXPECT_NE(info.find("graph:resident"), std::string::npos);
}

TEST(ServerTest, JobsVerbListsABoundedNumberOfFinishedJobs) {
  Server srv(fast_server_opts());
  auto session = srv.open_session("analyst");
  const std::size_t total = kJobsListedFinished + 50;
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_NE(session->handle_line("threads 1").find("\nok job="),
              std::string::npos);
  }
  // The table's header and rule, one row per listed job, the left-out
  // count and the terminator.
  const auto lines = lines_of(session->handle_line("jobs"));
  ASSERT_EQ(lines.size(), kJobsListedFinished + 4);
  std::vector<std::uint64_t> listed;
  for (std::size_t i = 2; i < 2 + kJobsListedFinished; ++i) {
    std::uint64_t id = 0;
    std::istringstream(lines[i]) >> id;
    listed.push_back(id);
  }
  std::vector<std::uint64_t> newest(kJobsListedFinished);
  std::iota(newest.begin(), newest.end(), total - kJobsListedFinished + 1);
  EXPECT_EQ(listed, newest);
  EXPECT_EQ(lines[2 + kJobsListedFinished], "50 older finished jobs not listed");
}

TEST(ServerTest, MetricsVerbExposesRegistry) {
  Server srv(fast_server_opts());
  auto session = srv.open_session("analyst");
  session->handle_line("generate rmat 6 4");
  session->handle_line("print components");

  const std::string prom = session->handle_line("metrics");
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  EXPECT_NE(prom.find("gct_kernel_runs_total{kernel=\"components\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("gct_result_cache_"), std::string::npos);
  EXPECT_EQ(prom.substr(prom.size() - 3), "ok\n");

  const std::string json = session->handle_line("metrics json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  // One JSON line plus the ok terminator.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);
  EXPECT_EQ(json.substr(json.size() - 3), "ok\n");
}

// A kcentrality slack that overflows the workspace sizes is an error reply,
// not a crash of the server: the session answers its next command, and the
// failed key leaves no entry in the graph's ResultCache.
TEST(ServerTest, OverflowingKbcSlackIsAnErrorAndTheSessionServesOn) {
  Server srv(fast_server_opts());
  const auto tk = srv.registry().add("even", cycle_graph(6));
  auto session = srv.open_session();
  session->handle_line("use graph even");
  const std::int64_t entries = tk->cache_stats().entries;
  for (const char* k : {"9223372036854775807", "4611686018427387903"}) {
    const std::string resp =
        session->handle_line(std::string("kcentrality ") + k + " 1");
    EXPECT_NE(resp.find("error "), std::string::npos) << resp;
    EXPECT_NE(resp.find("overflows"), std::string::npos) << resp;
    EXPECT_EQ(tk->cache_stats().entries, entries) << k;
  }
  EXPECT_NE(session->handle_line("kcentrality 1 2").find("\nok job="),
            std::string::npos);
  EXPECT_EQ(tk->cache_stats().entries, entries + 1);
}

TEST(ServerTest, ThreadsCommandPinsJobParallelism) {
  Server srv(fast_server_opts(2));
  auto session = srv.open_session();
  session->handle_line("generate rmat 6 4");
  EXPECT_NE(session->handle_line("threads 2").find("threads set to 2"),
            std::string::npos);
  const std::string resp = session->handle_line("print degrees");
  EXPECT_NE(resp.find("threads=2"), std::string::npos);
}

TEST(ServerTest, ConcurrentSessionsOnDifferentGraphsMakeProgress) {
  Server srv(fast_server_opts(2));
  srv.registry().add("g1", path_graph(64));
  srv.registry().add("g2", star_graph(64));

  auto s1 = srv.open_session("s1");
  auto s2 = srv.open_session("s2");
  EXPECT_NE(s1->handle_line("use graph g1").find("ok"), std::string::npos);
  EXPECT_NE(s2->handle_line("use graph g2").find("ok"), std::string::npos);

  // Deterministically occupy g1: a direct job on s1's graph key blocks
  // until released, so s1's next command must queue behind it...
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> blocker_running{false};
  admit(srv.jobs(), "test", "graph:g1", "blocker", [&](JobCounters&) {
    blocker_running.store(true);
    released.wait();
    return std::string();
  });
  while (!blocker_running.load()) std::this_thread::yield();

  std::thread s1_thread([&] {
    // Queues behind the blocker; completes only after release.
    EXPECT_NE(s1->handle_line("print components").find("ok job="),
              std::string::npos);
  });

  // ...while s2, on a different graph, makes progress immediately even
  // though g1 is wedged.
  const std::string s2_resp = s2->handle_line("print components");
  EXPECT_NE(s2_resp.find("components: 1"), std::string::npos);
  EXPECT_NE(s2_resp.find("ok job="), std::string::npos);

  // s1's job is still waiting on the busy graph. Poll until the job
  // shows up in the snapshot — s1_thread races us to submit it — after
  // which it cannot be terminal: the blocker still holds g1.
  bool s1_job_waiting = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!s1_job_waiting && std::chrono::steady_clock::now() < deadline) {
    for (const auto& job : srv.jobs().snapshot()) {
      if (job.command == "print components" && job.session == "s1") {
        s1_job_waiting = !job.terminal();
      }
    }
    if (!s1_job_waiting) std::this_thread::yield();
  }
  EXPECT_TRUE(s1_job_waiting);

  release.set_value();
  s1_thread.join();
}

/// A job that holds `graph_key` until the returned promise is set.
std::promise<void> hold_graph(JobQueue& q, const std::string& graph_key) {
  std::promise<void> release;
  auto released = release.get_future().share();
  auto running = std::make_shared<std::atomic<bool>>(false);
  admit(q, "test", graph_key, "blocker", [running, released](JobCounters&) {
    running->store(true);
    released.wait();
    return std::string();
  });
  while (!running->load()) std::this_thread::yield();
  return release;
}

/// A reply's lines before its terminator.
std::string payload_of(const std::string& reply) {
  const auto ls = lines_of(reply);
  std::string out;
  for (std::size_t i = 0; i + 1 < ls.size(); ++i) out += ls[i] + "\n";
  return out;
}

// A read the graph's cache holds answers on the dispatching thread: it
// neither waits for a worker nor for the job holding its graph, and it is
// recorded like any job.
TEST(ServerTest, CachedReadsAnswerWhileAJobHoldsTheirGraph) {
  Server srv(fast_server_opts(2));
  srv.registry().add("g", star_of_cliques(3, 5));
  auto warm = srv.open_session("warm");
  warm->handle_line("use graph g");
  const std::vector<std::string> reads = {"print degrees", "bc 8"};
  std::vector<std::string> computed;
  for (const auto& read : reads) computed.push_back(warm->handle_line(read));
  auto reader = srv.open_session("reader");
  reader->handle_line("use graph g");

  std::promise<void> release = hold_graph(srv.jobs(), "graph:g");
  std::vector<std::string> replies;
  for (const auto& read : reads) {
    auto reply = std::async(std::launch::async,
                            [&reader, read] { return reader->handle_line(read); });
    if (reply.wait_for(10s) != std::future_status::ready) {
      ADD_FAILURE() << "'" << read << "' waited behind the blocker";
      release.set_value();
      reply.wait();
      return;
    }
    replies.push_back(reply.get());
  }
  const std::string listing = reader->handle_line("jobs");
  release.set_value();

  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::string& reply = replies[i];
    EXPECT_EQ(payload_of(reply), payload_of(computed[i])) << reads[i];
    const std::string ok = lines_of(reply).back();
    EXPECT_NE(ok.find(" queue=0.0us "), std::string::npos) << ok;
    EXPECT_NE(ok.find(" threads=1 "), std::string::npos) << ok;
    EXPECT_NE(ok.find(" graph=graph:g "), std::string::npos) << ok;
    const auto [hits, misses] = cache_traffic(ok);
    EXPECT_GT(hits, 0) << ok;
    EXPECT_EQ(misses, 0) << ok;
    unsigned long long id = 0;
    ASSERT_EQ(std::sscanf(ok.c_str(), "ok job=%llu", &id), 1) << ok;
    const auto record = srv.jobs().get(id);
    ASSERT_TRUE(record.has_value()) << ok;
    EXPECT_EQ(record->id, id);
    EXPECT_EQ(record->state, JobState::kDone);
    EXPECT_EQ(record->wait_seconds, 0.0);
    EXPECT_EQ(record->command, reads[i]);
    EXPECT_EQ(record->session, "reader");
    // `jobs` lists the record: "<id> reader graph:g done <command> ...".
    bool listed = false;
    for (const auto& line : lines_of(listing)) {
      std::istringstream row(line);
      std::string row_id, session, graph, state;
      row >> row_id >> session >> graph >> state;
      listed |= row_id == std::to_string(id) && session == "reader" &&
                graph == "graph:g" && state == "done";
    }
    EXPECT_TRUE(listed) << id << " not in\n" << listing;
  }
}

// Reads the cache cannot answer by itself still queue behind a job that
// holds their graph: a miss, a redirected hit (it writes a file), and a
// hit while `workers` routing is on (it may spawn workers).
TEST(ServerTest, MissesRedirectsAndRoutedReadsStillQueue) {
  Server srv(fast_server_opts(2));
  srv.registry().add("g", star_of_cliques(3, 5));
  const std::string out_path = temp_path("gct_server_redirect.txt");
  std::remove(out_path.c_str());
  auto warm = srv.open_session("warm");
  warm->handle_line("use graph g");
  warm->handle_line("print degrees");
  warm->handle_line("bc 8");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"miss", "print kcores"},
      {"redirect", "bc 8 => " + out_path},
      {"routed", "print degrees"}};
  std::vector<std::shared_ptr<Session>> sessions;
  for (const auto& [name, command] : cases) {
    sessions.push_back(srv.open_session(name));
    sessions.back()->handle_line("use graph g");
  }
  sessions[2]->handle_line("workers 1");

  std::promise<void> release = hold_graph(srv.jobs(), "graph:g");
  std::vector<std::future<std::string>> replies;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    replies.push_back(std::async(
        std::launch::async, [session = sessions[i], line = cases[i].second] {
          return session->handle_line(line);
        }));
  }
  // Each command appears in the job table as queued, where the blocker
  // keeps it until released.
  std::size_t queued = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (queued < cases.size() && std::chrono::steady_clock::now() < deadline) {
    queued = 0;
    for (const auto& job : srv.jobs().snapshot()) {
      if (job.session != "test" && job.graph_key == "graph:g" &&
          job.state == JobState::kQueued) {
        ++queued;
      }
    }
    if (queued < cases.size()) std::this_thread::yield();
  }
  EXPECT_EQ(queued, cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_NE(replies[i].wait_for(0s), std::future_status::ready)
        << cases[i].first;
  }
  release.set_value();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string reply = replies[i].get();
    EXPECT_NE(reply.find("\nok job="), std::string::npos) << reply;
  }
  EXPECT_TRUE(std::filesystem::exists(out_path));
  std::remove(out_path.c_str());
}

TEST(ServerTest, CancelNamesABadJobId) {
  Server srv(fast_server_opts(1));
  auto s = srv.open_session();
  for (const std::string arg : {"abc", "", "99999999999999999999999"}) {
    const std::string line = arg.empty() ? "cancel" : "cancel " + arg;
    EXPECT_EQ(s->handle_line(line),
              "error cancel: expected a job id, got '" + arg + "'\n");
  }
}

// Every field after `ok` in a compat terminator is one key=value token, so
// a whitespace split recovers the accounting.
TEST(ServerTest, AccountingFieldsAreOneKeyValueTokenEach) {
  Server srv(fast_server_opts(2));
  srv.registry().add("g", star_of_cliques(3, 5));
  auto s = srv.open_session();
  for (const char* line : {"use graph g", "print components",
                           "print components", "@7 bc 4", "@8 bc 4"}) {
    const std::string ok = lines_of(s->handle_line(line)).back();
    std::istringstream tokens(ok);
    std::string token;
    tokens >> token;
    EXPECT_EQ(token, "ok") << ok;
    int fields = 0;
    while (tokens >> token) {
      const auto eq = token.find('=');
      EXPECT_TRUE(eq != std::string::npos && eq > 0 && eq + 1 < token.size())
          << "'" << token << "' in " << ok;
      ++fields;
    }
    EXPECT_GE(fields, 6) << ok;
  }
}

TEST(ServerTest, SharedGraphExtractionStaysPrivateToTheSession) {
  Server srv(fast_server_opts(2));
  srv.registry().add("shared", star_of_cliques(3, 5));
  auto s1 = srv.open_session("s1");
  auto s2 = srv.open_session("s2");
  s1->handle_line("use graph shared");
  s2->handle_line("use graph shared");
  const auto n = srv.registry().get_graph("shared")->graph().num_vertices();

  s1->handle_line("extract kcore 4");  // drops the degree-3 hub
  // s1 now sees a private subgraph; s2 and the registry are untouched.
  EXPECT_LT(s1->interpreter().current().graph().num_vertices(), n);
  EXPECT_EQ(s2->interpreter().current().graph().num_vertices(), n);
  EXPECT_EQ(srv.registry().get_graph("shared")->graph().num_vertices(), n);
  EXPECT_EQ(s1->interpreter().current_graph_key(), "");  // private now
}

// The satellite stress test: ≥8 threads hammer one registry-shared graph
// with mixed kernels; every result must match a single-threaded run on an
// identical private graph. Run under -fsanitize=thread in CI.
TEST(ServerTest, ConcurrentMixedKernelsMatchSingleThreadedRun) {
  RmatOptions r;
  r.scale = 8;
  r.edge_factor = 8;
  r.seed = 99;
  const CsrGraph graph = rmat_graph(r);

  // Single-threaded reference on a private, identical graph.
  ToolkitOptions topts;
  topts.diameter_samples = 16;
  topts.estimate_diameter_on_load = false;
  Toolkit reference(graph, topts);
  const auto ref_components = reference.components_stats().num_components;
  const auto ref_largest = reference.components_stats().largest_size();
  const double ref_mean_degree = reference.degree_stats().mean;
  const auto ref_triangles = reference.clustering().total_triangles;
  const auto ref_diameter = reference.diameter().estimate;
  BetweennessOptions bo;
  bo.num_sources = 32;
  bo.seed = 5;
  const double ref_bc_sum = [&] {
    double s = 0;
    for (double x : reference.betweenness(bo).score) s += x;
    return s;
  }();

  GraphRegistry reg(topts);
  auto shared = reg.add("hammer", graph);

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      auto tk = reg.get_graph("hammer");
      for (int round = 0; round < kRounds; ++round) {
        // Each thread starts at a different kernel so first-computations
        // race from every direction.
        switch ((t + round) % 5) {
          case 0:
            if (tk->components_stats().num_components != ref_components ||
                tk->components_stats().largest_size() != ref_largest) {
              failures.fetch_add(1);
            }
            break;
          case 1:
            if (std::abs(tk->degree_stats().mean - ref_mean_degree) > 1e-9) {
              failures.fetch_add(1);
            }
            break;
          case 2:
            if (tk->clustering().total_triangles != ref_triangles) {
              failures.fetch_add(1);
            }
            break;
          case 3:
            if (tk->diameter().estimate != ref_diameter) {
              failures.fetch_add(1);
            }
            break;
          case 4: {
            double s = 0;
            for (double x : tk->betweenness(bo).score) s += x;
            if (std::abs(s - ref_bc_sum) >
                1e-6 * std::max(1.0, std::abs(ref_bc_sum))) {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every kernel computed exactly once: traffic shows at most one miss per
  // distinct cache key (5 kernels + component_stats' nested components).
  const auto stats = shared->cache_stats();
  EXPECT_LE(stats.misses, 6);
  EXPECT_GE(stats.hits, kThreads * kRounds - stats.misses);
}

// The server's cache budget reaches the kernel cache of every graph it
// registers. 64 bc queries with distinct keys make ~128 KiB of results
// (8n score bytes each on a 256-vertex graph) against a 64 KiB budget:
// resident bytes stay within it and entries evict.
TEST(ServerTest, CacheBudgetBoundsResidentBytesThroughTheServer) {
  constexpr std::uint64_t kBudget = 64 << 10;
  ServerOptions opts = fast_server_opts(2);
  opts.limits.cache_budget_bytes = kBudget;
  opts.interpreter.toolkit.estimate_diameter_on_load = false;
  Server srv(opts);
  RmatOptions r;
  r.scale = 8;
  r.edge_factor = 8;
  r.seed = 42;
  srv.registry().add("g", rmat_graph(r));

  // Both metrics are process-wide. No other cache changes during this test,
  // so growth past the baseline is this server's.
  auto& resident = obs::registry().gauge("gct_result_cache_resident_bytes");
  auto& evictions =
      obs::registry().counter("gct_result_cache_evictions_total");
  const double baseline = resident.value();
  const std::int64_t evicted_before = evictions.value();

  auto session = srv.open_session("budget");
  session->handle_line("use graph g");
  session->handle_line("threads 1");  // keeps the TSan job fast
  double resident_max = 0.0;
  for (int i = 0; i < 64; ++i) {
    // Distinct source counts make distinct cache keys: every query misses.
    const std::string resp =
        session->handle_line("bc " + std::to_string(2 + i));
    ASSERT_NE(resp.find("\nok job="), std::string::npos) << resp;
    resident_max = std::max(resident_max, resident.value() - baseline);
  }
  EXPECT_GT(resident_max, 0.0);
  EXPECT_LE(resident_max, static_cast<double>(kBudget));
  EXPECT_GT(evictions.value() - evicted_before, 0);
}

// ------------------------------------------------------------- framing --

TEST(SessionFramingTest, CompatEchoesRequestIds) {
  Server srv(fast_server_opts());
  auto s = srv.open_session("f");
  const std::string ok = s->handle_line("@7 generate rmat 5 4");
  EXPECT_NE(ok.find("ok id=7 job="), std::string::npos);
  const std::string err = s->handle_line("@9 frobnicate");
  EXPECT_NE(err.find("error id=9 "), std::string::npos);
  // Unadorned commands keep the exact historical terminator.
  EXPECT_NE(s->handle_line("print degrees").find("\nok job="),
            std::string::npos);
}

TEST(SessionFramingTest, FramedV1HeaderCountsPayloadLines) {
  Server srv(fast_server_opts());
  auto s = srv.open_session("f");
  // The proto ack itself still arrives in the framing that was active
  // when the command was received — compat here.
  const std::string ack = s->handle_line("proto v1");
  EXPECT_NE(ack.find("protocol set to gct/1 framed"), std::string::npos);
  EXPECT_NE(ack.find("\nok"), std::string::npos);
  EXPECT_NE(ack.rfind("gct/1 ", 0), 0u);  // no v1 header on the ack

  const std::string resp = s->handle_line("@12 generate rmat 5 4");
  const auto ls = lines_of(resp);
  ASSERT_GE(ls.size(), 2u);
  EXPECT_EQ(ls[0].rfind("gct/1 ok lines=", 0), 0u);
  EXPECT_NE(ls[0].find(" id=12"), std::string::npos);
  EXPECT_NE(ls[0].find(" job="), std::string::npos);
  // lines=<n> matches the payload exactly.
  const auto lpos = ls[0].find("lines=") + 6;
  const int n = std::stoi(ls[0].substr(lpos));
  EXPECT_EQ(static_cast<int>(ls.size()) - 1, n);

  // Errors carry the message as the last payload line.
  const std::string err = s->handle_line("@13 frobnicate");
  const auto els = lines_of(err);
  ASSERT_GE(els.size(), 2u);
  EXPECT_EQ(els[0].rfind("gct/1 error lines=", 0), 0u);
  EXPECT_NE(els[0].find(" id=13"), std::string::npos);
  EXPECT_NE(els.back().find("unknown command"), std::string::npos);
}

TEST(SessionFramingTest, ProtoSwitchBackAcksInV1ThenSpeaksCompat) {
  Server srv(fast_server_opts());
  auto s = srv.open_session("f");
  s->handle_line("proto v1");
  const std::string ack = s->handle_line("proto compat");
  EXPECT_EQ(ack.rfind("gct/1 ok lines=1", 0), 0u);  // rendered in v1
  const std::string after = s->handle_line("generate rmat 5 4");
  EXPECT_EQ(after.find("gct/1"), std::string::npos);
  EXPECT_NE(after.find("\nok job="), std::string::npos);
}

TEST(SessionFramingTest, ShedRequestsReportBusyInBothFramings) {
  // One worker wedged plus a full one-deep queue: the next command sheds.
  ServerOptions opts = fast_server_opts(1);
  opts.limits.max_queued_jobs = 1;
  Server srv(opts);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  // The blocker holds its own copy of the future: the test returns while
  // the worker may still be waking from it.
  admit(srv.jobs(), "test", "graph:block", "blocker",
        [&running, released](JobCounters&) {
          running.store(true);
          released.wait();
          return std::string();
        });
  while (!running.load()) std::this_thread::yield();
  admit(srv.jobs(), "test", "graph:block", "filler",
        [](JobCounters&) { return std::string(); });

  auto s = srv.open_session("shed");
  const std::string compat = s->handle_line("@4 generate rmat 5 4");
  EXPECT_NE(compat.find("error id=4 busy: queue full"), std::string::npos);

  s->handle_line("proto v1");
  const std::string framed = s->handle_line("@5 generate rmat 5 4");
  const auto ls = lines_of(framed);
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0].rfind("gct/1 busy lines=1 id=5", 0), 0u);
  EXPECT_NE(ls[1].find("queue full"), std::string::npos);

  release.set_value();
}

// ---------------------------------------------------------- epoll / TCP --

/// Minimal blocking test client for the TCP transport.
struct TestClient {
  int fd = -1;
  std::string buf;

  ~TestClient() {
    if (fd >= 0) ::close(fd);
  }

  bool connect_to(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send_text(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& out) {
    std::size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    out = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    return true;
  }

  /// Lines of one compat-framed reply, terminator included.
  std::vector<std::string> read_reply() {
    std::vector<std::string> out;
    std::string line;
    while (read_line(line)) {
      out.push_back(line);
      if (line.rfind("ok", 0) == 0 || line.rfind("error", 0) == 0) break;
    }
    return out;
  }

  /// One framed-v1 reply: its header line, parsed into `h`, then the payload
  /// lines the header counts. False on a malformed header or a closed
  /// stream.
  bool read_v1_reply(std::string& header, framing::TextHeader& h) {
    if (!read_line(header) || !framing::parse_text_header(header, h)) {
      return false;
    }
    std::string line;
    for (std::size_t i = 0; i < h.lines; ++i) {
      if (!read_line(line)) return false;
    }
    return true;
  }
};

/// serve_tcp on a background thread, bound to an ephemeral port.
struct TcpFixture {
  Server srv;
  std::thread loop;
  int rc = -1;

  explicit TcpFixture(ServerOptions opts) : srv(std::move(opts)) {
    loop = std::thread([this] { rc = srv.serve_tcp(0); });
    while (srv.port() == 0) std::this_thread::sleep_for(1ms);
  }

  ~TcpFixture() {
    srv.request_stop();
    if (loop.joinable()) loop.join();
  }
};

/// True when a compat reply's terminator starts with `prefix`.
bool terminated_by(const std::vector<std::string>& reply,
                   const std::string& prefix) {
  return !reply.empty() && reply.back().rfind(prefix, 0) == 0;
}

// 200 connections open at once on one event loop. Even clients stay in
// compat framing and pipeline two reads the warm cache answers; odd clients
// switch to framed v1 and ask for bc with source counts no other request
// uses, so both of their requests miss the cache. Every connection must be
// accepted and every request answered, each with the cache path it took.
TEST(ServerTcpTest, ServesManyConnectionsFromOneEventLoop) {
  TcpFixture fx(fast_server_opts(2));
  fx.srv.registry().add("g", star_of_cliques(3, 5));
  {
    auto warm = fx.srv.open_session("warm");
    warm->handle_line("use graph g");
    warm->handle_line("print degrees");
    warm->handle_line("print components");
  }

  // Each thread owns 10 connections, so at most 20 connects wait in the
  // listen backlog at a time, and all 200 stay open until every one is set
  // up.
  constexpr std::size_t kThreads = 20;
  constexpr std::size_t kPerThread = 10;
  constexpr std::size_t kClients = kThreads * kPerThread;
  const int port = fx.srv.port();
  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> answered{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> client_threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    client_threads.emplace_back([&, t] {
      const auto open = [port](TestClient& c, bool v1) {
        std::string line;
        if (!c.connect_to(port) || !c.read_line(line) ||
            line.rfind("graphctd ready", 0) != 0) {
          return false;
        }
        // The proto ack still arrives in compat framing.
        if (v1 && !(c.send_text("proto v1\n") &&
                    terminated_by(c.read_reply(), "ok"))) {
          return false;
        }
        if (!c.send_text("use graph g\n")) return false;
        if (!v1) return terminated_by(c.read_reply(), "ok");
        framing::TextHeader h;
        return c.read_v1_reply(line, h) &&
               h.status == framing::TextReply::Status::kOk;
      };
      // One reply to the request tagged `id`: cached in compat framing,
      // uncached in framed v1.
      const auto answer_ok = [](TestClient& c, bool v1, const char* id) {
        if (!v1) {
          const auto reply = c.read_reply();
          if (!terminated_by(reply, std::string("ok id=") + id)) return false;
          const auto [hits, misses] = cache_traffic(reply.back());
          return hits > 0 && misses == 0;
        }
        std::string header;
        framing::TextHeader h;
        return c.read_v1_reply(header, h) &&
               h.status == framing::TextReply::Status::kOk &&
               h.request_id == id && cache_traffic(header).second > 0;
      };

      std::vector<TestClient> clients(kPerThread);
      std::vector<bool> live(kPerThread);
      for (std::size_t k = 0; k < kPerThread; ++k) {
        live[k] = open(clients[k], k % 2 == 1);
        if (!live[k]) failures.fetch_add(1);
      }
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();

      for (std::size_t k = 0; k < kPerThread; ++k) {
        if (!live[k]) continue;
        const std::size_t sources = 1000 + 2 * (t * kPerThread + k);
        live[k] = clients[k].send_text(
            k % 2 == 1 ? "@a bc " + std::to_string(sources) + "\n@b bc " +
                             std::to_string(sources + 1) + "\n"
                       : "@a print degrees\n@b print components\n");
      }
      for (std::size_t k = 0; k < kPerThread; ++k) {
        if (!live[k]) continue;
        for (const char* id : {"a", "b"}) {
          if (answer_ok(clients[k], k % 2 == 1, id)) {
            answered.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        }
        std::string line;
        clients[k].send_text("quit\n");
        if (clients[k].read_line(line)) failures.fetch_add(1);  // silent close
      }
    });
  }
  for (auto& d : client_threads) d.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answered.load(), 2 * kClients);
}

TEST(ServerTcpTest, ConnectionCapRefusesWithExplicitError) {
  ServerOptions opts = fast_server_opts(1);
  opts.limits.max_connections = 2;
  TcpFixture fx(opts);

  TestClient a, b, refused;
  std::string line;
  ASSERT_TRUE(a.connect_to(fx.srv.port()) && a.read_line(line));
  EXPECT_EQ(line.rfind("graphctd ready", 0), 0u);
  ASSERT_TRUE(b.connect_to(fx.srv.port()) && b.read_line(line));
  EXPECT_EQ(line.rfind("graphctd ready", 0), 0u);

  ASSERT_TRUE(refused.connect_to(fx.srv.port()));
  ASSERT_TRUE(refused.read_line(line));
  EXPECT_NE(line.find("connection capacity"), std::string::npos);
  EXPECT_FALSE(refused.read_line(line));  // then the server closes it

  // A held slot freed by quit becomes available again.
  a.send_text("quit\n");
  while (a.read_line(line)) {
  }
  TestClient again;
  for (int tries = 0; tries < 100; ++tries) {
    if (again.connect_to(fx.srv.port()) && again.read_line(line) &&
        line.rfind("graphctd ready", 0) == 0) {
      break;
    }
    ::close(again.fd);
    again.fd = -1;
    again.buf.clear();
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(line.rfind("graphctd ready", 0), 0u);
}

TEST(ServerTcpTest, PipeliningPastBacklogShedsWithBusy) {
  ServerOptions opts = fast_server_opts(1);
  opts.limits.max_queued_per_session = 2;
  TcpFixture fx(opts);

  TestClient c;
  std::string line;
  ASSERT_TRUE(c.connect_to(fx.srv.port()) && c.read_line(line));
  // Fire 12 commands without reading: 1 dispatches, 2 buffer, the rest
  // shed with explicit busy errors — and every one gets a response.
  std::string burst;
  for (int i = 0; i < 12; ++i) {
    burst += "@" + std::to_string(i) + " generate rmat 5 4\n";
  }
  ASSERT_TRUE(c.send_text(burst));
  int ok = 0, busy = 0;
  for (int i = 0; i < 12; ++i) {
    const auto reply = c.read_reply();
    ASSERT_FALSE(reply.empty());
    if (reply.back().rfind("ok", 0) == 0) {
      ++ok;
    } else if (reply.back().find("busy:") != std::string::npos) {
      ++busy;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(busy, 0);
  EXPECT_EQ(ok + busy, 12);
}

// Regression: stopping under load used to leave connection threads mid-job
// and exit nondeterministically. The event loop must cancel queued jobs
// (delivering explicit cancellations), finish the in-flight response, and
// return cleanly within the drain window.
TEST(ServerTcpTest, StopUnderLoadDrainsDeterministically) {
  ServerOptions opts = fast_server_opts(1);
  opts.limits.drain_timeout_seconds = 5.0;
  auto fx = std::make_unique<TcpFixture>(opts);

  // Wedge the single worker so client commands queue behind it.
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> running{false};
  admit(fx->srv.jobs(), "test", "graph:block", "blocker", [&](JobCounters&) {
    running.store(true);
    released.wait();
    return std::string();
  });
  while (!running.load()) std::this_thread::yield();

  TestClient c;
  std::string line;
  ASSERT_TRUE(c.connect_to(fx->srv.port()) && c.read_line(line));
  ASSERT_TRUE(c.send_text("@1 generate rmat 5 4\n"));
  while (fx->srv.jobs().queued() == 0) std::this_thread::yield();

  fx->srv.request_stop();
  // The queued job is cancelled and the client is told so before close.
  const auto reply = c.read_reply();
  ASSERT_FALSE(reply.empty());
  EXPECT_NE(reply.back().find("error id=1"), std::string::npos);
  EXPECT_NE(reply.back().find("cancelled"), std::string::npos);
  EXPECT_FALSE(c.read_line(line));  // connection closed by the drain

  release.set_value();  // only now does the blocker finish
  fx.reset();           // joins serve_tcp; must not hang
}

}  // namespace
}  // namespace graphct::server
