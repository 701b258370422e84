#include "server/session.hpp"

#include <algorithm>
#include <charconv>
#include <future>
#include <utility>

#include "obs/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace graphct::server {

namespace {

script::InterpreterOptions with_registry(script::InterpreterOptions opts,
                                         GraphRegistry& registry) {
  opts.provider = &registry;
  return opts;
}

/// First whitespace-delimited token of a protocol line.
std::string first_token(const std::string& line) {
  std::size_t b = line.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = line.find_first_of(" \t", b);
  return line.substr(b, e == std::string::npos ? std::string::npos : e - b);
}

/// Split a leading `@<id>` request-id prefix off `line`. Returns the id
/// ("" when absent) and leaves `rest` holding the command proper.
std::string split_request_id(const std::string& line, std::string& rest) {
  const std::size_t b = line.find_first_not_of(" \t");
  if (b == std::string::npos || line[b] != '@') {
    rest = line;
    return "";
  }
  std::size_t e = line.find_first_of(" \t", b);
  if (e == std::string::npos) e = line.size();
  std::string id = line.substr(b + 1, e - b - 1);
  const std::size_t r = line.find_first_not_of(" \t", e);
  rest = r == std::string::npos ? "" : line.substr(r);
  return id;
}

/// A duration as one protocol token: format_duration without the space
/// before its unit ("243.0us", "1.2ms").
std::string duration_token(double seconds) {
  std::string t = format_duration(seconds);
  t.erase(std::remove(t.begin(), t.end(), ' '), t.end());
  return t;
}

/// The ok terminator's accounting for a finished job, every field one
/// `key=value` token.
std::string accounting(const JobRecord& record) {
  std::ostringstream acct;
  acct << " job=" << record.id << " graph=" << record.graph_key
       << " wall=" << duration_token(record.run_seconds)
       << " queue=" << duration_token(record.wait_seconds)
       << " threads=" << record.threads
       << " cache=" << record.counters.cache_hits << "/"
       << record.counters.cache_misses;
  return acct.str();
}

}  // namespace

Session::Session(std::string name, GraphRegistry& registry, JobQueue& queue,
                 script::InterpreterOptions opts)
    : name_(std::move(name)),
      registry_(registry),
      queue_(queue),
      interp_(out_, with_registry(std::move(opts), registry)) {}

std::string Session::format_reply(const Reply& reply,
                                  const std::string& request_id,
                                  Protocol protocol) const {
  // Rendering for both framings lives in util/framing; the session only
  // maps its protocol selection onto it.
  return framing::render_text_reply(reply, request_id,
                                    protocol == Protocol::kCompat
                                        ? framing::TextProtocol::kCompat
                                        : framing::TextProtocol::kFramedV1);
}

std::string Session::handle_line(const std::string& line) {
  std::promise<std::string> done;
  auto response = done.get_future();
  dispatch(line,
           [&done](std::string text) { done.set_value(std::move(text)); });
  return response.get();
}

std::string Session::shed_reply(const std::string& line,
                                const std::string& reason) const {
  std::string command;
  const std::string request_id = split_request_id(line, command);
  Reply reply;
  reply.status = Reply::Status::kBusy;
  reply.message = reason;
  return format_reply(reply, request_id, protocol_);
}

std::string Session::handle_proto(const std::string& args,
                                  const std::string& request_id) {
  // The response to `proto` is rendered in the framing that was active
  // when the command arrived, so a client can always parse the ack with
  // the parser it used to send the request.
  const Protocol before = protocol_;
  const std::string arg = first_token(args);
  Reply reply;
  if (arg.empty()) {
    reply.payload = std::string("proto ") +
                    (protocol_ == Protocol::kCompat ? "compat" : "v1") + "\n";
  } else if (arg == "v1") {
    protocol_ = Protocol::kFramedV1;
    reply.payload = "protocol set to gct/1 framed\n";
  } else if (arg == "compat") {
    protocol_ = Protocol::kCompat;
    reply.payload = "protocol set to compat\n";
  } else {
    reply.status = Reply::Status::kError;
    reply.message = "proto: expected 'v1' or 'compat' (got '" + arg + "')";
  }
  return format_reply(reply, request_id, before);
}

void Session::dispatch(const std::string& line, Done done) {
  std::string request_id;
  std::string command;
  Protocol protocol = protocol_;
  try {
    request_id = split_request_id(line, command);
    const std::string verb = first_token(command);
    Reply reply;
    if (verb.empty() || verb[0] == '#') {
      done(format_reply(reply, request_id, protocol));
      return;
    }
    if (verb == "proto") {
      const std::size_t at = command.find(verb);
      done(handle_proto(command.substr(at + verb.size()), request_id));
      return;
    }
    if (verb == "graphs") {
      reply.payload = list_graphs();
      done(format_reply(reply, request_id, protocol));
      return;
    }
    if (verb == "jobs") {
      reply.payload = list_jobs();
      done(format_reply(reply, request_id, protocol));
      return;
    }
    if (verb == "session") {
      std::ostringstream s;
      const std::string key = interp_.current_graph_key();
      s << "session " << name_ << ": stack depth " << interp_.stack_depth()
        << ", graph " << (key.empty() ? "(private)" : key) << ", threads "
        << (interp_.requested_threads() == 0
                ? "default"
                : std::to_string(interp_.requested_threads()))
        << ", proto "
        << (protocol_ == Protocol::kCompat ? "compat" : "v1") << "\n";
      reply.payload = s.str();
      done(format_reply(reply, request_id, protocol));
      return;
    }
    if (verb == "metrics") {
      // Read-only and cheap: answered inline, never queued behind jobs.
      // `metrics` / `metrics prom` -> Prometheus text exposition;
      // `metrics json` -> a single JSON line. Neither format emits lines
      // starting with "ok"/"error", so the compat framing stays parseable.
      const auto snap = obs::registry().snapshot();
      if (command.find("json") != std::string::npos) {
        reply.payload = snap.to_json() + "\n";
      } else {
        reply.payload = snap.to_prometheus();
      }
      done(format_reply(reply, request_id, protocol));
      return;
    }
    if (verb == "cancel") {
      const std::size_t at = command.find(verb);
      const std::string arg = first_token(command.substr(at + verb.size()));
      std::uint64_t id = 0;
      const auto [end, ec] =
          std::from_chars(arg.data(), arg.data() + arg.size(), id);
      if (arg.empty() || ec != std::errc() || end != arg.data() + arg.size()) {
        reply.status = Reply::Status::kError;
        reply.message = "cancel: expected a job id, got '" + arg + "'";
        done(format_reply(reply, request_id, protocol));
        return;
      }
      if (queue_.cancel(id)) {
        reply.payload = "job " + arg + " cancelled\n";
        done(format_reply(reply, request_id, protocol));
      } else {
        reply.status = Reply::Status::kError;
        reply.message = "job " + arg + " is not cancellable (not queued)";
        done(format_reply(reply, request_id, protocol));
      }
      return;
    }
    if (answer_from_cache(command, request_id, protocol, done)) return;
    run_command(command, request_id, protocol, done);
  } catch (const std::exception& e) {
    Reply reply;
    reply.status = Reply::Status::kError;
    reply.message = e.what();
    done(format_reply(reply, request_id, protocol));
  }
}

std::string Session::graph_key() const {
  // The registry graph when one is current; otherwise the session itself,
  // so a session's private-graph jobs never interleave.
  std::string key = interp_.current_graph_key();
  return key.empty() ? "session:" + name_ : key;
}

bool Session::answer_from_cache(const std::string& line,
                                const std::string& request_id,
                                Protocol protocol, const Done& done) {
  // Safe beside a job on the same graph, and in session order: see the
  // file comment in session.hpp.
  out_.str("");
  out_.clear();
  JobRecord record;
  Timer timer;
  try {
    ResultCache::HitsOnly scope;
    if (!interp_.run_cached_read(line)) return false;
    record.counters.cache_hits = scope.hits();
  } catch (const std::exception&) {
    // NotCached, or an error the queued run reports in its own words.
    return false;
  }
  record.run_seconds = timer.seconds();
  record.session = name_;
  record.graph_key = graph_key();
  record.command = line;
  record.state = JobState::kDone;
  record.output = out_.str();
  record.threads = 1;  // no OpenMP region ran
  record.id = queue_.record_finished(record);
  if (record.id == 0) return false;  // shutting down: the queue sheds it
  Reply reply;
  reply.payload = std::move(record.output);
  reply.accounting = accounting(record);
  done(format_reply(reply, request_id, protocol));
  return true;
}

void Session::run_command(const std::string& line,
                          const std::string& request_id, Protocol protocol,
                          const Done& done) {
  const auto result = queue_.try_submit(
      name_, graph_key(), line,
      [this, line](JobCounters& counters) -> std::string {
        out_.str("");
        out_.clear();
        Toolkit* before_tk = interp_.current_or_null();
        const ResultCache::Stats before =
            before_tk ? before_tk->cache_stats() : ResultCache::Stats{};
        interp_.run(line);
        // Cache accounting: meaningful when the command ran kernels on the
        // graph that is still current. Commands that switch graphs
        // (read/load/use/...) report zero traffic.
        Toolkit* after_tk = interp_.current_or_null();
        if (after_tk != nullptr && after_tk == before_tk) {
          const ResultCache::Stats after = after_tk->cache_stats();
          counters.cache_hits = after.hits - before.hits;
          counters.cache_misses = after.misses - before.misses;
        }
        return out_.str();
      },
      interp_.requested_threads(),
      [this, request_id, protocol, done](const JobRecord& record) {
        Reply reply;
        if (record.state == JobState::kFailed) {
          reply.status = Reply::Status::kError;
          reply.payload = record.output;
          reply.message = record.error;
        } else if (record.state == JobState::kCancelled) {
          reply.status = Reply::Status::kError;
          reply.message = "job " + std::to_string(record.id) +
                          " cancelled: " + record.error;
        } else {
          reply.payload = record.output;
          reply.accounting = accounting(record);
        }
        done(format_reply(reply, request_id, protocol));
      });

  if (result.admission != Admission::kAdmitted) {
    Reply reply;
    reply.status = Reply::Status::kBusy;
    reply.message = std::string(to_string(result.admission)) +
                    ", retry later (queued=" +
                    std::to_string(queue_.queued()) + ")";
    done(format_reply(reply, request_id, protocol));
  }
}

std::string Session::list_graphs() const {
  const auto graphs = registry_.list();
  if (graphs.empty()) return "no graphs resident (see 'load graph')\n";
  TextTable t({"name", "vertices", "edges", "sessions"});
  for (const auto& g : graphs) {
    t.add_row({g.name, with_commas(g.vertices), with_commas(g.edges),
               std::to_string(g.sessions)});
  }
  return t.render();
}

std::string Session::list_jobs() const {
  const auto listing = queue_.list(kJobsListedFinished);
  if (listing.jobs.empty()) return "no jobs\n";
  TextTable t({"id", "session", "graph", "state", "command", "wall", "cache"});
  for (const auto& j : listing.jobs) {
    t.add_row({std::to_string(j.id), j.session, j.graph_key,
               to_string(j.state), j.command, format_duration(j.run_seconds),
               std::to_string(j.counters.cache_hits) + "/" +
                   std::to_string(j.counters.cache_misses)});
  }
  if (listing.finished_left_out == 0) return t.render();
  return t.render() +
         with_commas(static_cast<long long>(listing.finished_left_out)) +
         " older finished jobs not listed\n";
}

}  // namespace graphct::server
