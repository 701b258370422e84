/// \file server_mixed.cpp
/// server_mixed: graphctd over loopback TCP, closed loop. Four analyst
/// clients, one framed-v1 connection each and no think time, mix cached
/// reads on two shared registry graphs with write cycles that ingest a
/// tweet corpus into a session-private graph. Queue wait and run time per
/// request come from the server's own job table, joined by job id.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/io_binary.hpp"
#include "server/server.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"
#include "twitter/tweet_io.hpp"
#include "util/framing.hpp"
#include "workloads.hpp"

namespace graphct::suite {

namespace {

constexpr int kClients = 4;
constexpr int kServerWorkers = 2;
constexpr int kCorpora = 16;
constexpr int kSetups = 3;
const std::vector<std::string> kReads = {"print components", "print degrees",
                                         "print kcores", "bc 64"};
const std::vector<std::string> kGraphs = {"g0", "g1"};

/// Blocking line client speaking the framed v1 protocol.
class Client {
 public:
  struct Reply {
    bool ok = false;  ///< transport delivered a well-formed reply
    framing::TextReply::Status status = framing::TextReply::Status::kError;
    std::string payload;
    std::uint64_t job = 0;
  };

  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect, read the banner, switch to framed v1 and pin one thread.
  bool open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    std::string line;
    if (!read_line(line) || !send("proto v1")) return false;
    // The proto reply comes in compat framing: lines up to "ok"/"error".
    while (read_line(line)) {
      if (line.rfind("ok", 0) == 0) return request("threads 1").ok;
      if (line.rfind("error", 0) == 0) return false;
    }
    return false;
  }

  /// Send one command and read its framed reply.
  Reply request(const std::string& command) {
    Reply r;
    if (!send(command)) return r;
    std::string header;
    framing::TextHeader h;
    if (!read_line(header) || !framing::parse_text_header(header, h)) return r;
    r.status = h.status;
    const auto job = header.find(" job=");
    if (job != std::string::npos) {
      r.job = std::strtoull(header.c_str() + job + 5, nullptr, 10);
    }
    std::string line;
    for (std::size_t i = 0; i < h.lines; ++i) {
      if (!read_line(line)) return r;
      r.payload += line;
      r.payload += '\n';
    }
    r.ok = true;
    return r;
  }

 private:
  bool send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& out) {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    out = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

/// A server on serve_tcp(0), stopped and joined on destruction.
class LiveServer {
 public:
  LiveServer() : srv_(options()) {
    loop_ = std::thread([this] { srv_.serve_tcp(0); });
    for (int i = 0; i < 10000 && srv_.port() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~LiveServer() {
    srv_.request_stop();
    loop_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  server::Server& server() { return srv_; }
  int port() const { return srv_.port(); }

 private:
  static server::ServerOptions options() {
    server::ServerOptions opts;
    opts.workers = kServerWorkers;
    return opts;
  }

  server::Server srv_;
  std::thread loop_;
};

/// Payloads carry the kernel's wall time ("done in 1.2 ms"); everything
/// else must repeat exactly.
std::string normalized(const std::string& payload) {
  std::string out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) eol = payload.size();
    std::string line = payload.substr(pos, eol - pos);
    const auto at = line.find("done in ");
    if (at != std::string::npos) line.resize(at + 8);
    out += line;
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

std::vector<std::string> cycle_commands(const std::string& corpus,
                                        const std::string& home) {
  return {"read tweets " + corpus, "print components", "extract component 1",
          "bc 32", "use graph " + home};
}

/// One request as the client saw it.
struct Sample {
  std::uint64_t op = 0;
  std::uint64_t job = 0;
  double start = 0.0;
  double end = 0.0;
  bool bc = false;
  bool ingest = false;
  bool traced = false;
  int lane = 0;
  int corpus = -1;  ///< write-cycle corpus, -1 for reads
};

/// Reference payloads keyed by graph or corpus and command.
using References = std::map<std::string, std::string>;

/// Setup: load both graphs over TCP, then warm the cached reads. Records
/// the reference payloads on the first set-up and checks them on later
/// ones. Returns the `load graph` latencies.
std::vector<double> load_and_warm(Client& c, const std::vector<std::string>& bins,
                                  References& refs, Report& report) {
  std::vector<double> load_s;
  for (std::size_t g = 0; g < kGraphs.size(); ++g) {
    const double t0 = now_s();
    const auto r = c.request("load graph " + kGraphs[g] + " " + bins[g]);
    load_s.push_back(now_s() - t0);
    report.check(r.ok && r.status == framing::TextReply::Status::kOk,
                 "load graph " + kGraphs[g]);
  }
  for (const auto& g : kGraphs) {
    c.request("use graph " + g);
    for (const auto& cmd : kReads) {
      const auto key = g + "|" + cmd;
      const auto r = c.request(cmd);
      const std::string got = normalized(r.payload);
      const auto [it, fresh] = refs.emplace(key, got);
      report.check(r.ok && r.status == framing::TextReply::Status::kOk &&
                       (fresh || it->second == got),
                   "warm-up " + key);
    }
  }
  return load_s;
}

}  // namespace

void run_server_mixed(const RunConfig& cfg, Tracer& tracer, Report& report) {
  // Inputs, written in a child before this process starts any thread.
  std::vector<std::string> bins, corpora;
  for (std::size_t g = 0; g < kGraphs.size(); ++g) {
    bins.push_back(cfg.tmp_dir + "/" + kGraphs[g] + ".bin");
  }
  for (int k = 0; k < kCorpora; ++k) {
    corpora.push_back(cfg.tmp_dir + "/corpus" + std::to_string(k) + ".tsv");
  }
  if (!run_in_child([&] {
        for (std::size_t g = 0; g < bins.size(); ++g) {
          write_binary(rmat_lwcc(14, derive_seed(cfg.seed, 20 + g)), bins[g]);
        }
        for (int k = 0; k < kCorpora; ++k) {
          auto preset = twitter::dataset_preset("atlflood");
          preset.corpus.seed = derive_seed(cfg.seed, 40 + k);
          twitter::write_tweets(twitter::generate_corpus(preset.corpus),
                                corpora[static_cast<std::size_t>(k)]);
        }
      })) {
    report.fail("could not generate the server inputs");
    return;
  }

  // Set-up, three times: start the server, load both graphs, warm the
  // cached reads. The last server stays up for the timed phase.
  References refs;
  std::vector<double> setup, load_s;
  std::unique_ptr<LiveServer> live;
  for (int k = 0; k < kSetups; ++k) {
    live.reset();
    const double t0 = now_s();
    live = std::make_unique<LiveServer>();
    Client c;
    if (!c.open(live->port())) {
      report.fail("cannot connect to the server");
      return;
    }
    for (const double s : load_and_warm(c, bins, refs, report)) {
      load_s.push_back(s);
    }
    setup.push_back(now_s() - t0);
  }

  // Reference payloads of every write cycle, recorded before timing.
  {
    Client c;
    if (!c.open(live->port())) {
      report.fail("cannot connect to the server");
      return;
    }
    for (int k = 0; k < kCorpora; ++k) {
      const auto cmds =
          cycle_commands(corpora[static_cast<std::size_t>(k)], kGraphs[0]);
      for (std::size_t i = 0; i < cmds.size(); ++i) {
        const auto r = c.request(cmds[i]);
        report.check(r.ok && r.status == framing::TextReply::Status::kOk,
                     "reference " + cmds[i]);
        refs["corpus" + std::to_string(k) + "|" + std::to_string(i)] =
            normalized(r.payload);
      }
    }
    for (const auto& g : kGraphs) {
      refs["use|" + g] = normalized(c.request("use graph " + g).payload);
    }
  }
  // Edges of each corpus's largest component, for the computed bc rate.
  std::vector<double> lwcc_edges;
  for (int k = 0; k < kCorpora; ++k) {
    long long vertices = 0, edges = 0;
    std::sscanf(refs["corpus" + std::to_string(k) + "|2"].c_str(),
                "extracted component 1: %lld vertices, %lld edges", &vertices,
                &edges);
    lwcc_edges.push_back(static_cast<double>(edges));
  }

  // Timed: closed loop, zero think time.
  std::atomic<std::uint64_t> next_op{1};
  std::atomic<int> ready{0};
  std::atomic<int> dropped{0};
  std::mutex mu;
  std::vector<Sample> samples;
  std::vector<double> cycle_ms;
  std::vector<std::vector<std::uint64_t>> cycle_jobs;
  std::int64_t busy = 0, errors = 0;
  double start = 0.0, deadline = 0.0;

  auto client_main = [&](int id) {
    std::mt19937_64 rng(derive_seed(cfg.seed, 100 + static_cast<unsigned>(id)));
    Client c;
    std::string graph = kGraphs[static_cast<std::size_t>(id) % kGraphs.size()];
    const bool opened = c.open(live->port()) &&
                        c.request("use graph " + graph).ok;
    ready.fetch_add(1);
    while (ready.load() < kClients + 1) std::this_thread::yield();
    if (!opened) {
      dropped.fetch_add(1);
      report.check(false, "client connection");
      return;
    }
    std::vector<Sample> local;
    std::vector<double> local_cycles;
    std::vector<std::vector<std::uint64_t>> local_cycle_jobs;
    std::int64_t local_busy = 0, local_errors = 0;
    bool alive = true;
    // One request: send, wait, check the payload against its reference.
    auto ask = [&](const std::string& cmd, const std::string& ref_key,
                   int corpus) -> Sample {
      Sample s;
      s.op = next_op.fetch_add(1);
      s.corpus = corpus;
      s.bc = cmd.rfind("bc ", 0) == 0;
      s.ingest = cmd.rfind("read tweets", 0) == 0;
      s.traced = cfg.trace && s.op % 2 == 1;
      s.lane = id + 1;
      s.start = now_s();
      std::string line = "@";
      line += std::to_string(s.op);
      line += ' ';
      line += cmd;
      const auto r = c.request(line);
      s.end = now_s();
      s.job = r.job;
      if (!r.ok) {
        alive = false;
        dropped.fetch_add(1);
      } else if (r.status == framing::TextReply::Status::kBusy) {
        ++local_busy;
      } else if (r.status == framing::TextReply::Status::kError) {
        ++local_errors;
      }
      report.check(r.ok && r.status == framing::TextReply::Status::kOk &&
                       normalized(r.payload) == refs.at(ref_key),
                   "reply to '" + cmd + "'");
      local.push_back(s);
      return s;
    };
    // The script: in every block of five operations, four reads and one
    // write cycle at a seeded position; cycles walk the corpora in turn
    // from a seeded start, so every run has the same 80/20 mix.
    int cycles = static_cast<int>(rng() % kCorpora);
    std::uint64_t cycle_slot = 0;
    for (std::uint64_t step = 0; alive && now_s() < deadline; ++step) {
      if (step % 5 == 0) cycle_slot = rng() % 5;
      if (step % 5 != cycle_slot) {
        const auto& cmd = kReads[rng() % kReads.size()];
        ask(cmd, graph + "|" + cmd, -1);
        continue;
      }
      const int k = cycles++ % kCorpora;
      graph = kGraphs[rng() % kGraphs.size()];
      const auto cmds =
          cycle_commands(corpora[static_cast<std::size_t>(k)], graph);
      std::vector<std::uint64_t> jobs;
      double first = 0.0;
      for (std::size_t i = 0; alive && i < cmds.size(); ++i) {
        const std::string key = i + 1 == cmds.size()
                                    ? "use|" + graph
                                    : "corpus" + std::to_string(k) + "|" +
                                          std::to_string(i);
        const Sample s = ask(cmds[i], key, k);
        if (i == 0) first = s.start;
        jobs.push_back(s.job);
        if (i + 1 == cmds.size()) local_cycles.push_back((s.end - first) * 1e3);
      }
      if (jobs.size() == cmds.size()) local_cycle_jobs.push_back(jobs);
    }
    std::lock_guard<std::mutex> lock(mu);
    samples.insert(samples.end(), local.begin(), local.end());
    cycle_ms.insert(cycle_ms.end(), local_cycles.begin(), local_cycles.end());
    cycle_jobs.insert(cycle_jobs.end(), local_cycle_jobs.begin(),
                      local_cycle_jobs.end());
    busy += local_busy;
    errors += local_errors;
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client_main, i);
  while (ready.load() < kClients) std::this_thread::yield();
  start = now_s();
  deadline = start + cfg.seconds;
  ready.fetch_add(1);  // release the clients
  for (auto& t : clients) t.join();
  const double wall = now_s() - start;

  // Join client samples to the server's job table by job id.
  std::map<std::uint64_t, server::JobRecord> jobs;
  for (auto& rec : live->server().jobs().snapshot()) jobs[rec.id] = rec;
  live.reset();

  std::vector<double> read_ms[2], queue_ms, run_ms, transport_ms, ingest_ms,
      bc_mteps;
  double run_total = 0.0;
  std::int64_t hits = 0, misses = 0;
  for (const auto& s : samples) {
    const auto it = jobs.find(s.job);
    if (it == jobs.end()) continue;
    const auto& job = it->second;
    run_total += job.run_seconds;
    hits += job.counters.cache_hits;
    misses += job.counters.cache_misses;
    if (s.ingest) ingest_ms.push_back(job.run_seconds * 1e3);
    if (s.traced && s.bc && s.corpus >= 0 && job.run_seconds > 0.0) {
      // 32 sources x 2 adjacency entries per undirected edge.
      bc_mteps.push_back(32.0 * 2.0 *
                         lwcc_edges[static_cast<std::size_t>(s.corpus)] /
                         job.run_seconds / 1e6);
    }
    if (s.corpus < 0) {
      read_ms[s.traced ? 1 : 0].push_back((s.end - s.start) * 1e3);
      queue_ms.push_back(job.wait_seconds * 1e3);
      run_ms.push_back(job.run_seconds * 1e3);
      transport_ms.push_back(
          (s.end - s.start - job.wait_seconds - job.run_seconds) * 1e3);
    }
    if (!s.traced) continue;
    // Synthesized spans: the client's request, and inside it the server's
    // queue wait and run (durations exact, placement approximate).
    const std::int64_t root = tracer.add({"op", s.start, s.end, -1, s.op, s.lane});
    const std::int64_t req = tracer.add(
        {"server.request", s.start, s.end, root, s.op, s.lane});
    const double q_end = s.start + job.wait_seconds;
    tracer.add({"server.queue", s.start, q_end, req, s.op, s.lane});
    const std::int64_t run = tracer.add(
        {"server.run", q_end, q_end + job.run_seconds, req, s.op, s.lane});
    if (s.bc || s.ingest) {
      tracer.add({s.bc ? "core.bc" : "twitter.ingest", q_end,
                  q_end + job.run_seconds, run, s.op, s.lane});
    }
  }
  std::vector<double> cycle_run_ms;
  for (const auto& cj : cycle_jobs) {
    double total = 0.0;
    for (const auto id : cj) {
      const auto it = jobs.find(id);
      if (it != jobs.end()) total += it->second.run_seconds;
    }
    cycle_run_ms.push_back(total * 1e3);
  }

  // op_ms is the median read (read_p50_ms); ops_per_s counts every request.
  const std::vector<double>& untraced_reads = read_ms[0];
  report.e2e("setup_s", "s", setup);
  report.e2e("op_ms", "ms", untraced_reads);
  report.e2e("ops_per_s", "1/s", {static_cast<double>(samples.size()) / wall});
  report.e2e("peak_rss_mb", "MiB", {peak_rss_mib()});
  report.e2e("read_p99_ms", "ms", {percentile(untraced_reads, 0.99)});
  report.layer("server.read_samples", "samples",
               static_cast<double>(untraced_reads.size()));
  report.e2e("cycle_p50_ms", "ms", {percentile(cycle_ms, 0.50)});

  report.layer("server.load_s", "s", load_s);
  report.layer("server.busy", "count", static_cast<double>(busy));
  report.layer("server.errors", "count", static_cast<double>(errors));
  report.layer("server.dropped", "count", static_cast<double>(dropped.load()));
  report.layer("server.queue_ms_p50", "ms", percentile(queue_ms, 0.50));
  report.layer("server.queue_ms_p99", "ms", percentile(queue_ms, 0.99));
  report.layer("server.run_ms_p50", "ms", percentile(run_ms, 0.50));
  report.layer("server.transport_ms_p50", "ms",
               percentile(transport_ms, 0.50));
  report.layer("server.cache_hit_ratio", "ratio",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0);
  report.layer("server.worker_busy_frac", "ratio",
               run_total / (kServerWorkers * wall));
  report.layer("twitter.ingest_ms_p50", "ms", percentile(ingest_ms, 0.50));
  report.layer("server.cycle_run_ms_p50", "ms", percentile(cycle_run_ms, 0.50));
  if (!cfg.trace) return;
  report.bc_rate(bc_mteps);
  report.add_trace_metrics(read_ms[1], read_ms[0]);
}

}  // namespace graphct::suite
