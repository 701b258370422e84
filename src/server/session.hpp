#pragma once

/// \file session.hpp
/// One analyst session: interpreter state plus protocol handling.
///
/// A session owns a script interpreter (graph stack, thread pinning) and
/// turns protocol lines into jobs. The wire protocol is the scripting
/// language itself (paper §IV-B) — one command per line — plus a few
/// server verbs answered inline without queueing:
///
///   graphs           list registry-resident graphs
///   jobs             list queued, running and recently finished jobs
///   session          this session's name, stack depth, pinned threads
///   cancel <id>      cancel a still-queued job
///   proto [v1|compat]  report or switch the response framing
///
/// A script read the current graph's ResultCache already holds (see
/// Interpreter::run_cached_read) is answered inline too, on the
/// dispatching thread and beside any job on the same graph: the session
/// runs it under ResultCache::HitsOnly, so a value not yet published sends
/// the command to the job queue instead of computing, and it files the
/// answer with JobQueue::record_finished so the job table stays complete.
/// Nothing of the session is queued or running when it dispatches (one
/// dispatch at a time), so an inline answer never overtakes its own
/// session's earlier command.
///
/// Any command may carry a client request id: `@<id> <command>`. The id is
/// echoed on the response (`id=<id>`), which is what lets a pipelining
/// client match interleaved responses to requests.
///
/// ## Response framing
///
/// Two framings are supported per session. **Compat** (the default, the
/// original protocol): zero or more output lines followed by exactly one
/// terminator line —
///
///   ok [id=<rid>] [job=<id> graph=<key> wall=<t> queue=<t> threads=<n>
///       cache=<h>/<m>]
///   error [id=<rid>] <message>
///
/// so clients frame responses by reading until a line starting "ok" or
/// "error". Every accounting field is one key=value token; durations
/// carry their unit with no space (`wall=243.0us queue=0.0us`). Requests
/// shed by admission control render as `error [id=<rid>] busy: <reason>`
/// to stay parseable by old clients.
///
/// **Framed v1** (`proto v1`): every response starts with one stable
/// header line —
///
///   gct/1 <ok|error|busy> lines=<n> [id=<rid>] [job=... graph=...
///       wall=... queue=... threads=... cache=<h>/<m>]
///
/// followed by exactly `n` payload lines. Errors carry the message as the
/// last payload line; `busy` responses carry the shed reason as their only
/// payload line. Fixed-position tokens (magic, status, lines=) mean a
/// client can frame without scanning payload content, which is what makes
/// pipelining safe. The response to `proto ...` itself is rendered in the
/// framing that was active when the command was received.
///
/// handle_line() is synchronous (submit, wait, respond); dispatch() is the
/// asynchronous form the event-driven TCP transport uses — the completion
/// callback fires from a worker thread when the job finishes (or inline
/// for server verbs, cache-answered reads and shed requests). Either way
/// a session must be driven one command at a time; concurrency comes from
/// many sessions sharing the queue and registry.

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "script/interpreter.hpp"
#include "server/graph_registry.hpp"
#include "server/job_queue.hpp"
#include "util/framing.hpp"

namespace graphct::server {

/// Newest finished jobs the `jobs` verb lists beside the queued and
/// running ones; one line counts the older ones it leaves out.
inline constexpr std::size_t kJobsListedFinished = 100;

/// One connected analyst.
class Session {
 public:
  /// Response framing spoken by this session (see file comment).
  enum class Protocol { kCompat, kFramedV1 };

  /// Receives one complete response (all lines '\n'-terminated). May be
  /// invoked inline from dispatch() (server verbs, cache-answered reads,
  /// shed/busy) or later from a job-queue worker thread (queued commands).
  using Done = std::function<void(std::string)>;

  Session(std::string name, GraphRegistry& registry, JobQueue& queue,
          script::InterpreterOptions opts);

  /// Execute one protocol line and return the full response text. Never
  /// throws: command failures become "error ..." responses. Synchronous
  /// wrapper over dispatch() for the stdio transport, tests, and
  /// embedders.
  std::string handle_line(const std::string& line);

  /// Asynchronous form: parse the line, answer server verbs and reads the
  /// cache holds inline, and submit other script commands to the job
  /// queue with `done` as completion.
  /// `done` is invoked exactly once — including when the job is cancelled
  /// by shutdown or shed by admission control — so the event loop never
  /// waits on a response that cannot arrive. At most one dispatch may be
  /// outstanding per session.
  void dispatch(const std::string& line, Done done);

  /// Render a `busy` response for `line` — request id echoed, active
  /// framing — without dispatching it. The TCP transport uses this to shed
  /// pipelined input that overflows the per-connection backlog before it
  /// ever reaches the job queue.
  [[nodiscard]] std::string shed_reply(const std::string& line,
                                       const std::string& reason) const;

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] Protocol protocol() const { return protocol_; }
  void set_protocol(Protocol p) { protocol_ = p; }

  /// The underlying interpreter, for in-process embedders and tests.
  [[nodiscard]] script::Interpreter& interpreter() { return interp_; }

 private:
  /// One response, rendered by format_reply() per the active protocol.
  /// Both framings live in util/framing (shared with the dist wire layer's
  /// tests and any future client); the session only chooses which to use.
  using Reply = framing::TextReply;

  [[nodiscard]] std::string format_reply(const Reply& reply,
                                         const std::string& request_id,
                                         Protocol protocol) const;
  /// Serialization key of the session's current graph.
  [[nodiscard]] std::string graph_key() const;
  /// Answer `line` on this thread when it is a read the current graph's
  /// ResultCache holds every value for; false (nothing replied) otherwise.
  bool answer_from_cache(const std::string& line,
                         const std::string& request_id, Protocol protocol,
                         const Done& done);
  void run_command(const std::string& line, const std::string& request_id,
                   Protocol protocol, const Done& done);
  std::string handle_proto(const std::string& args,
                           const std::string& request_id);
  std::string list_graphs() const;
  std::string list_jobs() const;

  std::string name_;
  GraphRegistry& registry_;
  JobQueue& queue_;
  Protocol protocol_ = Protocol::kCompat;
  std::ostringstream out_;
  script::Interpreter interp_;
};

}  // namespace graphct::server
