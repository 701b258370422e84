#pragma once

/// \file job_queue.hpp
/// Worker pool executing analyst commands: serialized per graph, fair per
/// session, bounded per server.
///
/// graphctd's concurrency model: every protocol command that may compute
/// becomes a job. Jobs against the *same* graph run one at a time —
/// kernels share the graph's ResultCache, so running them back-to-back
/// maximizes hits and bounds peak memory — while jobs against *different*
/// graphs run concurrently on the worker pool. A read the cache answers
/// computes nothing and allocates no kernel memory, so it needs neither:
/// the session runs it on its dispatching thread, beside any job on the
/// same graph, and files its record here with record_finished().
///
/// Scheduling is round-robin across sessions rather than FIFO arrival
/// order: a session that bursts fifty commands cannot starve everyone
/// else, because each scheduling decision takes the next runnable job from
/// the next session in rotation (jobs within one session stay FIFO, which
/// also preserves per-graph submission order inside a session).
///
/// Admission is bounded: QueueLimits caps the queued backlog globally and
/// per session, and try_submit() *sheds* (returns a busy verdict without
/// enqueueing) rather than queueing without limit — the transport turns
/// that into an explicit `busy` response instead of unbounded latency.
///
/// Each job records queue wait, run wall-clock, the OpenMP thread count it
/// ran with, and the cache hit/miss delta it caused; the protocol's
/// terminating "ok" line reports these so an analyst can see a repeated
/// query being served from cache (queue wait 0 and one thread when the
/// session answered it from the cache itself).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace graphct::server {

/// Finished (done, failed or cancelled) jobs whose records the queue keeps
/// for wait(), get() and snapshot(). Each job that finishes past this many
/// drops the oldest finished record; queued and running jobs are always
/// kept.
inline constexpr std::size_t kJobHistory = 65536;

/// Lifecycle of a job.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState s);

/// Per-job accounting, filled in by the work function.
struct JobCounters {
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

/// Everything known about one job; snapshot semantics (a copy).
struct JobRecord {
  std::uint64_t id = 0;
  std::string session;    ///< submitting session's name
  std::string graph_key;  ///< serialization key ("" = never serialized)
  std::string command;    ///< display text of the command
  JobState state = JobState::kQueued;
  std::string output;     ///< command output (valid when done)
  std::string error;      ///< failure message (valid when failed)
  double wait_seconds = 0.0;  ///< time spent queued
  double run_seconds = 0.0;   ///< execution wall-clock
  int threads = 0;            ///< OpenMP threads the job ran with
  JobCounters counters;       ///< kernel-cache traffic caused by the job

  [[nodiscard]] bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
};

/// Admission-control bounds (0 = unlimited, the embedder-friendly
/// default; the server passes its ServerLimits values).
struct QueueLimits {
  int max_queued = 0;              ///< global queued-job bound
  int max_queued_per_session = 0;  ///< per-session queued-job bound
};

/// Verdict of try_submit(): admitted, or shed with a reason.
enum class Admission {
  kAdmitted,
  kShedQueueFull,    ///< global max_queued reached
  kShedSessionFull,  ///< submitting session's backlog is full
  kShedShutdown,     ///< queue is shutting down
};

[[nodiscard]] const char* to_string(Admission a);

/// Fixed worker pool with per-graph serialization, per-session fairness,
/// and bounded admission.
class JobQueue {
 public:
  /// A job: runs on a worker thread, returns the command's output text,
  /// throws graphct::Error (or any std::exception) to fail the job.
  using Work = std::function<std::string(JobCounters&)>;

  /// Completion hook: invoked exactly once with the terminal record, from
  /// the worker that finished the job or the thread that cancelled it,
  /// never while queue locks are held.
  using OnTerminal = std::function<void(const JobRecord&)>;

  struct SubmitResult {
    Admission admission = Admission::kAdmitted;
    std::uint64_t id = 0;  ///< valid when admitted
  };

  /// Start `num_workers` worker threads (minimum 1), unbounded admission.
  explicit JobQueue(int num_workers) : JobQueue(num_workers, QueueLimits{}) {}

  /// Start `num_workers` worker threads with admission bounds.
  JobQueue(int num_workers, QueueLimits limits);

  /// Drains nothing: shuts down immediately; queued jobs are cancelled and
  /// running jobs are joined.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue a job subject to admission limits. Jobs with the same
  /// non-empty `graph_key` execute serially; within a session, FIFO.
  /// `threads` > 0 pins the job's OpenMP parallelism. Sheds (without
  /// creating a job record) when the global or per-session backlog is full
  /// or the queue is shutting down; `on_terminal`, when set, fires exactly
  /// once with the terminal record of an admitted job — including jobs
  /// cancelled by shutdown — so event-driven transports never wait on a
  /// job that cannot finish.
  SubmitResult try_submit(std::string session, std::string graph_key,
                          std::string command, Work work, int threads = 0,
                          OnTerminal on_terminal = {});

  /// Record a command the caller already ran to completion outside the
  /// pool (the session's cache-answered reads): assigns the next job id,
  /// keeps the record in the finished history like any job, and counts it
  /// in the queue-wait, run-time and finished-run metrics. Returns the id,
  /// or 0 once shutdown has begun (nothing is recorded).
  std::uint64_t record_finished(JobRecord record);

  /// Block until the job reaches a terminal state; returns its record. An
  /// id never issued, or dropped from the history, returns a failed record
  /// with the error "unknown job id".
  JobRecord wait(std::uint64_t id);

  /// Cancel a job that is still queued. Running jobs are not interrupted
  /// (kernels are not preemptible); returns false for running/terminal/
  /// unknown jobs.
  bool cancel(std::uint64_t id);

  /// Cancel every queued job ("server stopping"); returns how many were
  /// cancelled. Running jobs keep running — pair with drain().
  int cancel_pending();

  /// Wait until no job is queued or running, or `timeout_seconds` elapses.
  /// Returns true when the queue drained in time.
  bool drain(double timeout_seconds);

  /// Snapshot one job, or nullopt for an unknown id (or one dropped from
  /// the history).
  [[nodiscard]] std::optional<JobRecord> get(std::uint64_t id) const;

  /// Every queued and running job and the `newest_finished` most recently
  /// finished ones, id order, copying only those records.
  struct Listing {
    std::vector<JobRecord> jobs;
    std::size_t finished_left_out = 0;  ///< older finished records kept
  };
  [[nodiscard]] Listing list(std::size_t newest_finished) const;

  /// Snapshot every queued and running job and the kJobHistory most
  /// recently finished ones, id order.
  [[nodiscard]] std::vector<JobRecord> snapshot() const {
    return list(kJobHistory).jobs;
  }

  /// Queued (not yet running) jobs right now.
  [[nodiscard]] int queued() const;

  /// Stop accepting work, cancel queued jobs, join workers (idempotent).
  void shutdown();

 private:
  struct Internal;
  /// Completion hooks to fire, with their records, once mu_ is released.
  using Fired = std::vector<std::pair<OnTerminal, JobRecord>>;

  void worker_loop();
  /// Pop the next runnable job id, rotating session order for fairness;
  /// requires mu_ held. Returns 0 when nothing is runnable.
  std::uint64_t take_runnable_locked();
  /// Remove `id` from its session's pending deque; requires mu_ held.
  void unqueue_locked(const std::shared_ptr<Internal>& job);
  /// Note that `id` just reached a terminal state and drop the oldest
  /// finished record past kJobHistory; requires mu_ held.
  void retire_locked(std::uint64_t id);
  /// Cancel a job already taken off the pending queues: mark it cancelled
  /// with `reason`, record its queue wait, count it, retire it, and add its
  /// completion hook to `fired`; requires mu_ held.
  void cancel_locked(Internal& job, const std::string& reason, Fired& fired);
  /// cancel_locked() every queued job and empty the pending queues;
  /// requires mu_ held. Returns how many were cancelled.
  int cancel_all_locked(const std::string& reason, Fired& fired);

  QueueLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // workers: new runnable work
  std::condition_variable terminal_cv_;  // waiters: a job finished
  std::map<std::uint64_t, std::shared_ptr<Internal>> jobs_;
  /// Ids of the finished jobs in jobs_, in the order they finished.
  std::deque<std::uint64_t> finished_;
  /// Queued jobs grouped by session (FIFO within a session)...
  std::map<std::string, std::deque<std::uint64_t>> pending_by_session_;
  /// ...scheduled round-robin in this rotation (front = next to inspect).
  std::deque<std::string> rotation_;
  std::size_t pending_total_ = 0;
  std::set<std::uint64_t> running_;  ///< ids of the running jobs
  std::set<std::string> busy_graphs_;
  std::uint64_t next_id_ = 1;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace graphct::server
