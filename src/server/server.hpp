#pragma once

/// \file server.hpp
/// graphctd — the long-running analysis server.
///
/// Owns the shared pieces (graph registry, job queue) and manufactures
/// sessions over three transports:
///
///   * in-process:  open_session() — tests and embedding applications
///     drive sessions directly, no I/O;
///   * stdio:       serve_stream(in, out) — one session over a pair of
///     streams (`graphct serve --stdio`), trivially scriptable;
///   * TCP:         serve_tcp(port) — a localhost line-oriented socket
///     (`graphct serve <port>`), served by a single epoll event loop.
///
/// All transports speak the same protocol (see session.hpp): script
/// commands in, framed responses out. The registry and job queue are
/// shared across every session, so graphs load once, repeated queries hit
/// the shared kernel cache, and jobs on different graphs run concurrently
/// while jobs on one graph are serialized.
///
/// ## Serving model
///
/// The TCP transport is event-driven: one thread runs an epoll loop over
/// non-blocking sockets, parsing lines into per-connection buffers and
/// handing complete commands to Session::dispatch(). Heavy work never runs
/// on the loop thread — commands become jobs on the worker pool, and each
/// completion is posted back to the loop (eventfd wakeup) for writing.
/// One connection therefore costs a few KiB of buffers, not a thread, and
/// hundreds of concurrent analyst sessions are cheap.
///
/// Overload is explicit rather than silent: every capacity knob lives in
/// ServerLimits, and each bound sheds with a visible response ("busy" /
/// refusal line) instead of queueing without bound.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "script/interpreter.hpp"
#include "server/graph_registry.hpp"
#include "server/job_queue.hpp"
#include "server/session.hpp"

namespace graphct::server {

/// Every capacity and overload-behavior knob in one place. All bounds use
/// 0 = unlimited/disabled so an embedder constructing `ServerLimits{}`
/// changes nothing; `graphct serve` maps each field to a CLI flag.
struct ServerLimits {
  /// Concurrent TCP connections. Connection number max_connections+1 is
  /// told "error server at connection capacity" and closed immediately.
  int max_connections = 1024;

  /// Global bound on queued (not yet running) jobs; excess submissions
  /// shed with `busy` (Admission::kShedQueueFull).
  int max_queued_jobs = 1024;

  /// Per-session bound, applied twice: jobs queued in the JobQueue, and
  /// pipelined lines buffered per connection awaiting dispatch. Keeps one
  /// bursty analyst from monopolizing the backlog.
  int max_queued_per_session = 16;

  /// Byte budget shared by every per-graph kernel-result cache (LRU
  /// eviction; see ResultCache). 0 = unbounded, the historical behavior.
  std::uint64_t cache_budget_bytes = 0;

  /// Close a connection that has sent a partial line (bytes but no '\n')
  /// and then stalled for this long. 0 disables.
  double read_timeout_seconds = 0.0;

  /// Close a connection with no traffic in either direction for this
  /// long. 0 disables (analyst sessions are often long-lived and idle).
  double idle_timeout_seconds = 0.0;

  /// On stop: how long serve_tcp() keeps delivering responses for jobs
  /// that were already running before closing connections.
  double drain_timeout_seconds = 5.0;
};

/// Server configuration.
struct ServerOptions {
  /// Worker threads executing jobs (also the bound on concurrently running
  /// graphs).
  int workers = 4;

  /// Capacity bounds and overload behavior (see ServerLimits).
  ServerLimits limits;

  /// Options every session's interpreter starts from (toolkit defaults,
  /// timings flag). The provider field is overwritten per session.
  /// `limits.cache_budget_bytes`, when set, overrides the toolkit's
  /// cache_budget_bytes so one flag governs every graph's cache.
  script::InterpreterOptions interpreter;
};

/// The graphctd daemon, embeddable in-process.
class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] GraphRegistry& registry() { return registry_; }
  [[nodiscard]] JobQueue& jobs() { return queue_; }

  /// Open an in-process session. `name` defaults to "s<counter>". The
  /// session holds references into this server; drop it before the server.
  std::shared_ptr<Session> open_session(std::string name = "");

  /// Run one session over a stream pair until EOF or `quit`. This is the
  /// `graphct serve --stdio` entry point and what tests drive.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Listen on 127.0.0.1:`port` (0 = ephemeral, see port()) and serve
  /// every connection from one epoll event loop on the calling thread
  /// until request_stop(). Returns 0 on clean shutdown. Throws
  /// graphct::Error when the socket cannot be bound. `on_listening`, when
  /// set, runs once the socket is accepting (the CLI's startup banner).
  int serve_tcp(int port, const std::function<void()>& on_listening = {});

  /// Port serve_tcp() is bound to (useful with port 0); 0 before the
  /// socket is listening.
  [[nodiscard]] int port() const { return bound_port_.load(); }

  /// Ask serve_tcp() to stop (callable from any thread or a
  /// signal-adjacent context). The loop cancels still-queued jobs, keeps
  /// delivering responses for running jobs for up to
  /// limits.drain_timeout_seconds, then closes every connection.
  void request_stop();

 private:
  /// A response finished off the loop thread, posted back for writing.
  struct Completion {
    std::uint64_t conn_gen = 0;
    std::string text;
  };

  void post_completion(std::uint64_t conn_gen, std::string text);

  ServerOptions opts_;
  GraphRegistry registry_;
  JobQueue queue_;
  std::atomic<int> next_session_{1};
  std::atomic<int> bound_port_{0};
  std::atomic<bool> stopping_{false};
  /// Guards completions_ and wake_fd_. Writers to the wake eventfd hold it
  /// across the write, and serve_tcp holds it to retire and close the fd,
  /// so no write can land in a closed (or reused) descriptor.
  std::mutex comp_mu_;
  std::vector<Completion> completions_;
  int wake_fd_ = -1;  ///< the loop's eventfd while serve_tcp runs
};

}  // namespace graphct::server
