#include "server/job_queue.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/result_cache.hpp"
#include "util/timer.hpp"

namespace graphct::server {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* to_string(Admission a) {
  switch (a) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kShedQueueFull:
      return "queue full";
    case Admission::kShedSessionFull:
      return "session backlog full";
    case Admission::kShedShutdown:
      return "server shutting down";
  }
  return "unknown";
}

struct JobQueue::Internal {
  JobRecord record;
  Work work;
  OnTerminal on_terminal;
  int threads = 0;
  Timer queued_at;  // measures queue wait
};

namespace {

void note_queue_depth(std::size_t pending) {
  static obs::Gauge& g = obs::registry().gauge("gct_job_queue_depth");
  g.set(static_cast<double>(pending));
}

/// Count one job that ran to the end in the queue-wait and run-time
/// histograms and the finished-runs counter.
void note_run(double wait_seconds, double run_seconds, bool failed) {
  static obs::Histogram& wait =
      obs::registry().histogram("gct_job_queue_wait_seconds");
  static obs::Histogram& run = obs::registry().histogram("gct_job_run_seconds");
  static obs::Counter& done =
      obs::registry().counter("gct_job_runs_total{state=\"done\"}");
  static obs::Counter& fail =
      obs::registry().counter("gct_job_runs_total{state=\"failed\"}");
  wait.observe(wait_seconds);
  run.observe(run_seconds);
  (failed ? fail : done).add();
}

}  // namespace

JobQueue::JobQueue(int num_workers, QueueLimits limits) : limits_(limits) {
  const int n = std::max(1, num_workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobQueue::~JobQueue() { shutdown(); }

JobQueue::SubmitResult JobQueue::try_submit(std::string session,
                                            std::string graph_key,
                                            std::string command, Work work,
                                            int threads,
                                            OnTerminal on_terminal) {
  auto job = std::make_shared<Internal>();
  job->work = std::move(work);
  job->on_terminal = std::move(on_terminal);
  job->threads = threads;
  job->record.session = std::move(session);
  job->record.graph_key = std::move(graph_key);
  job->record.command = std::move(command);
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return {Admission::kShedShutdown, 0};
    if (limits_.max_queued > 0 &&
        pending_total_ >= static_cast<std::size_t>(limits_.max_queued)) {
      obs::registry()
          .counter("gct_jobs_shed_total{reason=\"queue_full\"}")
          .add();
      return {Admission::kShedQueueFull, 0};
    }
    auto& pending = pending_by_session_[job->record.session];
    if (limits_.max_queued_per_session > 0 &&
        pending.size() >=
            static_cast<std::size_t>(limits_.max_queued_per_session)) {
      obs::registry()
          .counter("gct_jobs_shed_total{reason=\"session_full\"}")
          .add();
      return {Admission::kShedSessionFull, 0};
    }
    id = next_id_++;
    job->record.id = id;
    if (pending.empty()) rotation_.push_back(job->record.session);
    pending.push_back(id);
    ++pending_total_;
    note_queue_depth(pending_total_);
    jobs_.emplace(id, std::move(job));
  }
  work_cv_.notify_one();
  return {Admission::kAdmitted, id};
}

std::uint64_t JobQueue::take_runnable_locked() {
  for (std::size_t scanned = 0; scanned < rotation_.size(); ++scanned) {
    const std::string session = rotation_.front();
    rotation_.pop_front();
    auto it = pending_by_session_.find(session);
    if (it == pending_by_session_.end() || it->second.empty()) {
      continue;  // emptied by cancel; drop from rotation
    }
    auto& dq = it->second;
    bool taken = false;
    std::uint64_t id = 0;
    // First job in this session whose graph is idle. Scanning past a
    // blocked head is safe: a later job on the *same* graph is equally
    // blocked, so per-graph FIFO within the session is preserved.
    for (auto jit = dq.begin(); jit != dq.end(); ++jit) {
      const auto& job = jobs_.at(*jit);
      if (job->record.graph_key.empty() ||
          busy_graphs_.count(job->record.graph_key) == 0) {
        id = *jit;
        dq.erase(jit);
        taken = true;
        break;
      }
    }
    if (!taken) {
      rotation_.push_back(session);  // nothing runnable; keep in rotation
      continue;
    }
    --pending_total_;
    note_queue_depth(pending_total_);
    if (dq.empty()) {
      pending_by_session_.erase(it);
    } else {
      rotation_.push_back(session);  // scheduled: go to the back (fairness)
    }
    return id;
  }
  return 0;
}

void JobQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const std::uint64_t id = take_runnable_locked();
    if (id == 0) {
      if (shutdown_) return;
      work_cv_.wait(lock);
      continue;
    }
    std::shared_ptr<Internal> job = jobs_.at(id);
    job->record.state = JobState::kRunning;
    job->record.wait_seconds = job->queued_at.seconds();
    running_.insert(id);
    if (!job->record.graph_key.empty()) {
      busy_graphs_.insert(job->record.graph_key);
    }
    lock.unlock();

    std::string output;
    std::string error;
    bool failed = false;
    int threads_used = 0;
    JobCounters counters;
    Timer run_timer;
    try {
      // Pin this worker's OpenMP parallelism for the job, then restore the
      // default — omp_set_num_threads is per calling thread, so concurrent
      // jobs on other workers are unaffected. A count set_num_threads
      // rejects fails this job only.
      if (job->threads > 0) set_num_threads(job->threads);
      // Record what the OpenMP runtime will actually deliver, not what the
      // session requested — the two differ under OMP_THREAD_LIMIT or when
      // the request exceeds the machine.
      threads_used = effective_num_threads();
      output = job->work(counters);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    job->work = nullptr;  // the record outlives whatever the work captured
    const double run_seconds = run_timer.seconds();
    note_run(job->record.wait_seconds, run_seconds, failed);
    // Always restore this worker's default — the work itself may have
    // called set_num_threads (the script's `threads N`), and a worker must
    // not carry one session's pinning into another session's job.
    set_num_threads(0);
    // Drop values a bounded ResultCache pinned for this job's references;
    // the job is done with them, and a worker must not accumulate pins
    // across jobs.
    ResultCache::release_thread_pins();

    lock.lock();
    job->record.state = failed ? JobState::kFailed : JobState::kDone;
    job->record.output = std::move(output);
    job->record.error = std::move(error);
    job->record.run_seconds = run_seconds;
    job->record.threads = threads_used;
    job->record.counters = counters;
    running_.erase(id);
    if (!job->record.graph_key.empty()) {
      busy_graphs_.erase(job->record.graph_key);
    }
    retire_locked(id);
    terminal_cv_.notify_all();
    // The freed graph may unblock a queued job another worker skipped.
    work_cv_.notify_all();
    if (job->on_terminal) {
      OnTerminal fire = std::move(job->on_terminal);
      const JobRecord record = job->record;
      lock.unlock();
      fire(record);
      lock.lock();
    }
  }
}

std::uint64_t JobQueue::record_finished(JobRecord record) {
  const double wait_seconds = record.wait_seconds;
  const double run_seconds = record.run_seconds;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return 0;
    id = next_id_++;
    auto job = std::make_shared<Internal>();
    job->record = std::move(record);
    job->record.id = id;
    jobs_.emplace(id, std::move(job));
    retire_locked(id);
  }
  note_run(wait_seconds, run_seconds, false);
  return id;
}

JobRecord JobQueue::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    JobRecord missing;
    missing.id = id;
    missing.state = JobState::kFailed;
    missing.error = "unknown job id";
    return missing;
  }
  std::shared_ptr<Internal> job = it->second;
  terminal_cv_.wait(lock, [&] { return job->record.terminal(); });
  return job->record;
}

void JobQueue::unqueue_locked(const std::shared_ptr<Internal>& job) {
  auto it = pending_by_session_.find(job->record.session);
  if (it == pending_by_session_.end()) return;
  auto& dq = it->second;
  auto pos = std::find(dq.begin(), dq.end(), job->record.id);
  if (pos == dq.end()) return;
  dq.erase(pos);
  --pending_total_;
  note_queue_depth(pending_total_);
  if (dq.empty()) {
    pending_by_session_.erase(it);
    // Keep the invariant "in rotation_ iff it has pending jobs" so a
    // cancel/resubmit cycle cannot give one session duplicate turns.
    auto rot = std::find(rotation_.begin(), rotation_.end(),
                         job->record.session);
    if (rot != rotation_.end()) rotation_.erase(rot);
  }
}

void JobQueue::retire_locked(std::uint64_t id) {
  finished_.push_back(id);
  if (finished_.size() > kJobHistory) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
}

void JobQueue::cancel_locked(Internal& job, const std::string& reason,
                             Fired& fired) {
  job.record.state = JobState::kCancelled;
  job.record.error = reason;
  job.record.wait_seconds = job.queued_at.seconds();
  obs::registry().counter("gct_job_runs_total{state=\"cancelled\"}").add();
  if (job.on_terminal) {
    fired.emplace_back(std::move(job.on_terminal), job.record);
  }
  retire_locked(job.record.id);
  terminal_cv_.notify_all();
}

int JobQueue::cancel_all_locked(const std::string& reason, Fired& fired) {
  int cancelled = 0;
  for (auto& [session, dq] : pending_by_session_) {
    for (const std::uint64_t id : dq) {
      cancel_locked(*jobs_.at(id), reason, fired);
      ++cancelled;
    }
  }
  pending_by_session_.clear();
  rotation_.clear();
  pending_total_ = 0;
  note_queue_depth(0);
  return cancelled;
}

bool JobQueue::cancel(std::uint64_t id) {
  Fired fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->record.state != JobState::kQueued) {
      return false;
    }
    unqueue_locked(it->second);
    cancel_locked(*it->second, "", fired);
  }
  for (auto& [fire, record] : fired) fire(record);
  return true;
}

int JobQueue::cancel_pending() {
  Fired fired;
  int cancelled = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled = cancel_all_locked("server stopping", fired);
  }
  for (auto& [fire, record] : fired) fire(record);
  return cancelled;
}

bool JobQueue::drain(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  return terminal_cv_.wait_until(lock, deadline, [&] {
    return pending_total_ == 0 && running_.empty();
  });
}

std::optional<JobRecord> JobQueue::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->record;
}

JobQueue::Listing JobQueue::list(std::size_t newest_finished) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t kept = std::min(newest_finished, finished_.size());
  std::vector<std::uint64_t> ids(running_.begin(), running_.end());
  for (const auto& [session, dq] : pending_by_session_) {
    ids.insert(ids.end(), dq.begin(), dq.end());
  }
  ids.insert(ids.end(), finished_.end() - static_cast<std::ptrdiff_t>(kept),
             finished_.end());
  std::sort(ids.begin(), ids.end());
  Listing out{{}, finished_.size() - kept};
  out.jobs.reserve(ids.size());
  for (const std::uint64_t id : ids) out.jobs.push_back(jobs_.at(id)->record);
  return out;
}

int JobQueue::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(pending_total_);
}

void JobQueue::shutdown() {
  Fired fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
    cancel_all_locked("server shutting down", fired);
  }
  for (auto& [fire, record] : fired) fire(record);
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

}  // namespace graphct::server
