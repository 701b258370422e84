/// \file server_throughput.cpp
/// graphctd query throughput: cached vs uncached, across session counts —
/// plus a sustained TCP load mode exercising the epoll serving core.
///
/// **Classic mode** (default) measures the server's end-to-end query path
/// (protocol line -> job queue -> kernel -> response) on an R-MAT graph at
/// 1, 4, and 16 concurrent in-process sessions. Each session drives its
/// own registry graph so the per-graph serialization never blocks another
/// session; "cached" sessions are warmed first and every timed query is a
/// cache hit, "uncached" sessions invalidate their kernel cache before
/// every query, so each one pays full recomputation. The gap between the
/// two modes is the value of the shared kernel-result cache.
///
/// **Sustained mode** (--sustained) drives the real TCP transport:
/// hundreds of concurrent client connections (default 200) speak the
/// framed v1 protocol against one epoll event loop, half issuing cached
/// queries and half uncached ones, reporting p50/p99 latency per mode plus
/// dropped-connection counts. Three follow-up phases probe the server's
/// overload behavior: pipelining past the per-session backlog (must shed
/// with `busy`), connecting past the connection cap (must refuse), and
/// querying past the kernel-cache byte budget (resident bytes must stay
/// under budget while entries evict).
///
/// Output is one JSON object per line (machine-readable, as the other
/// bench binaries print paper-style rows):
///
///   {"bench":"server_throughput","scale":18,"sessions":4,"mode":"cached",
///    "queries":24,"seconds":0.0031,"qps":7741.9}
///   {"bench":"server_sustained","scale":12,"sessions":200,...,
///    "p50_ms":0.8,"p99_ms":14.1,"dropped":0}
///
///   ./server_throughput [--scale 18] [--queries 6] [--workers 16]
///                       [--sustained] [--sessions 200] [--requests 8]
///                       [--graphs 8] [--quick]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/rmat.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace graphct;

/// The analyst query mix cycled by every session.
const std::vector<std::string> kQueries = {
    "print components",
    "print degrees",
    "print kcores",
};

struct RunResult {
  double seconds = 0.0;
  std::int64_t queries = 0;
};

std::string graph_name(int i) {
  std::string s = "g";
  s += std::to_string(i);
  return s;
}

/// Drive `num_sessions` sessions for `rounds` passes over the query mix.
/// Each session uses its own registry graph named g<i>; `cached` controls
/// whether the kernel cache survives between queries.
RunResult run_mode(server::Server& srv, int num_sessions, int rounds,
                   bool cached) {
  std::vector<std::shared_ptr<server::Session>> sessions;
  for (int i = 0; i < num_sessions; ++i) {
    auto s = srv.open_session("bench" + std::to_string(i));
    s->handle_line("use graph " + graph_name(i));
    if (cached) {
      for (const auto& q : kQueries) s->handle_line(q);  // warm the cache
    } else {
      s->interpreter().current().invalidate();
    }
    sessions.push_back(std::move(s));
  }

  Timer timer;
  std::vector<std::thread> drivers;
  for (auto& s : sessions) {
    drivers.emplace_back([&s, rounds, cached] {
      for (int r = 0; r < rounds; ++r) {
        for (const auto& q : kQueries) {
          if (!cached) s->interpreter().current().invalidate();
          s->handle_line(q);
        }
      }
    });
  }
  for (auto& d : drivers) d.join();

  RunResult res;
  res.seconds = timer.seconds();
  res.queries = static_cast<std::int64_t>(num_sessions) * rounds *
                static_cast<std::int64_t>(kQueries.size());
  return res;
}

int run_classic(std::int64_t scale, int rounds, int workers) {
  RmatOptions r;
  r.scale = scale;
  r.edge_factor = 16;
  r.seed = 42;
  const CsrGraph graph = rmat_graph(r);

  server::ServerOptions sopts;
  sopts.workers = workers;
  sopts.interpreter.toolkit.estimate_diameter_on_load = false;
  server::Server srv(sopts);

  for (const int sessions : {1, 4, 16}) {
    // One registry graph per session so per-graph serialization does not
    // couple sessions; dropped after the run to bound peak memory.
    for (int i = 0; i < sessions; ++i) {
      srv.registry().add(graph_name(i), graph);
    }
    for (const bool cached : {false, true}) {
      const RunResult res = run_mode(srv, sessions, rounds, cached);
      std::printf(
          "{\"bench\":\"server_throughput\",\"scale\":%lld,"
          "\"sessions\":%d,\"mode\":\"%s\",\"queries\":%lld,"
          "\"seconds\":%.6f,\"qps\":%.1f}\n",
          static_cast<long long>(scale), sessions,
          cached ? "cached" : "uncached",
          static_cast<long long>(res.queries), res.seconds,
          res.seconds > 0 ? static_cast<double>(res.queries) / res.seconds
                          : 0.0);
      std::fflush(stdout);
    }
    for (int i = 0; i < sessions; ++i) {
      srv.registry().drop(graph_name(i));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Sustained TCP mode
// ---------------------------------------------------------------------------

/// Distinct `bc` MiB budgets make distinct cache keys, so "uncached"
/// traffic pays a real kernel run per request even on a shared graph.
std::atomic<std::int64_t> g_bc_budget{1001};

std::string uncached_query() {
  return "bc 2 " + std::to_string(g_bc_budget.fetch_add(1));
}

/// Blocking line client speaking the framed v1 protocol.
struct Client {
  int fd = -1;
  std::string buf;

  ~Client() { disconnect(); }

  void disconnect() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  bool connect_to(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      disconnect();
      return false;
    }
    return true;
  }

  bool send_line(const std::string& line) {
    std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
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
    if (!out.empty() && out.back() == '\r') out.pop_back();
    return true;
  }

  /// Read one compat-framed reply (lines until "ok"/"error" terminator).
  bool read_reply_compat(std::string& terminator) {
    std::string line;
    while (read_line(line)) {
      if (line.rfind("ok", 0) == 0 || line.rfind("error", 0) == 0) {
        terminator = line;
        return true;
      }
    }
    return false;
  }

  /// Read one framed-v1 reply; `status` gets "ok"/"error"/"busy".
  bool read_reply_v1(std::string& status) {
    std::string header;
    if (!read_line(header)) return false;
    if (header.rfind("gct/1 ", 0) != 0) return false;
    std::istringstream is(header.substr(6));
    is >> status;
    int lines = -1;
    std::string tok;
    while (is >> tok) {
      if (tok.rfind("lines=", 0) == 0) lines = std::atoi(tok.c_str() + 6);
    }
    if (lines < 0) return false;
    std::string payload;
    for (int i = 0; i < lines; ++i) {
      if (!read_line(payload)) return false;
    }
    return true;
  }
};

/// serve_tcp() on a background thread; joined (after request_stop) on
/// destruction.
struct TcpServer {
  server::Server srv;
  std::thread loop;

  explicit TcpServer(server::ServerOptions opts) : srv(std::move(opts)) {
    loop = std::thread([this] { srv.serve_tcp(0); });
    while (srv.port() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~TcpServer() {
    srv.request_stop();
    loop.join();
  }
};

double pct_ms(std::vector<double>& seconds, double p) {
  if (seconds.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      static_cast<double>(seconds.size() - 1) * p);
  std::nth_element(seconds.begin(),
                   seconds.begin() + static_cast<std::ptrdiff_t>(idx),
                   seconds.end());
  return seconds[idx] * 1e3;
}

int run_sustained(std::int64_t scale, int workers, int num_sessions,
                  int requests, int num_graphs) {
  RmatOptions r;
  r.scale = scale;
  r.edge_factor = 16;
  r.seed = 42;
  const CsrGraph graph = rmat_graph(r);

  // ---- Phase 1: sustained mixed load over TCP -------------------------
  {
    server::ServerOptions opts;
    opts.workers = workers;
    opts.interpreter.toolkit.estimate_diameter_on_load = false;
    opts.limits.max_connections = num_sessions + 32;
    opts.limits.max_queued_jobs = num_sessions + 64;
    server::Server* psrv = nullptr;
    TcpServer ts(opts);
    psrv = &ts.srv;
    for (int g = 0; g < num_graphs; ++g) {
      psrv->registry().add(graph_name(g), graph);
    }
    // Warm every graph's cache so "cached" sessions measure hits.
    {
      Client warm;
      if (!warm.connect_to(psrv->port())) return 1;
      std::string line;
      warm.read_line(line);  // banner
      for (int g = 0; g < num_graphs; ++g) {
        warm.send_line("use graph " + graph_name(g));
        warm.read_reply_compat(line);
        for (const auto& q : kQueries) {
          warm.send_line(q);
          warm.read_reply_compat(line);
        }
      }
    }

    std::mutex agg_mu;
    std::vector<double> lat_cached, lat_uncached;
    std::atomic<int> dropped{0}, busy{0};

    Timer wall;
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(num_sessions));
    for (int s = 0; s < num_sessions; ++s) {
      drivers.emplace_back([&, s] {
        const bool cached = (s % 2) == 0;
        Client c;
        std::vector<double> local;
        local.reserve(static_cast<std::size_t>(requests));
        if (!c.connect_to(psrv->port())) {
          dropped.fetch_add(1);
          return;
        }
        std::string line, status;
        bool alive = c.read_line(line);  // banner
        alive = alive && c.send_line("proto v1") &&
                c.read_reply_compat(line);  // ack arrives in old framing
        alive = alive &&
                c.send_line("use graph " + graph_name(s % num_graphs)) &&
                c.read_reply_v1(status);
        if (!alive) {
          dropped.fetch_add(1);
          return;
        }
        for (int q = 0; q < requests; ++q) {
          const std::string query =
              cached ? kQueries[static_cast<std::size_t>(q) % kQueries.size()]
                     : uncached_query();
          Timer t;
          if (!c.send_line("@" + std::to_string(q) + " " + query) ||
              !c.read_reply_v1(status)) {
            dropped.fetch_add(1);
            return;
          }
          local.push_back(t.seconds());
          if (status == "busy") busy.fetch_add(1);
        }
        c.send_line("quit");
        std::lock_guard<std::mutex> lock(agg_mu);
        auto& sink = cached ? lat_cached : lat_uncached;
        sink.insert(sink.end(), local.begin(), local.end());
      });
    }
    for (auto& d : drivers) d.join();
    const double seconds = wall.seconds();

    for (const bool cached : {true, false}) {
      auto& lat = cached ? lat_cached : lat_uncached;
      std::printf(
          "{\"bench\":\"server_sustained\",\"scale\":%lld,\"sessions\":%d,"
          "\"graphs\":%d,\"mode\":\"%s\",\"requests\":%zu,"
          "\"seconds\":%.6f,\"qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
          "\"dropped\":%d,\"busy\":%d}\n",
          static_cast<long long>(scale), num_sessions, num_graphs,
          cached ? "cached" : "uncached", lat.size(), seconds,
          seconds > 0 ? static_cast<double>(lat.size()) / seconds : 0.0,
          pct_ms(lat, 0.50), pct_ms(lat, 0.99), dropped.load(), busy.load());
      std::fflush(stdout);
    }

    // ---- Phase 2: pipeline past the per-session backlog ---------------
    {
      const int cap = psrv->limits().max_queued_per_session;
      const int submitted = cap * 4;
      Client c;
      int n_busy = 0, n_ok = 0;
      if (c.connect_to(psrv->port())) {
        std::string line, status;
        c.read_line(line);  // banner
        c.send_line("proto v1");
        c.read_reply_compat(line);
        c.send_line("use graph " + graph_name(0));
        c.read_reply_v1(status);
        for (int i = 0; i < submitted; ++i) {
          c.send_line(uncached_query());  // all pipelined, nothing read yet
        }
        for (int i = 0; i < submitted; ++i) {
          if (!c.read_reply_v1(status)) break;
          if (status == "busy") {
            ++n_busy;
          } else if (status == "ok") {
            ++n_ok;
          }
        }
      }
      std::printf(
          "{\"bench\":\"server_sustained_admission\",\"backlog_cap\":%d,"
          "\"submitted\":%d,\"ok\":%d,\"busy\":%d}\n",
          cap, submitted, n_ok, n_busy);
      std::fflush(stdout);
    }
  }

  // ---- Phase 3: connect past the connection cap -----------------------
  {
    server::ServerOptions opts;
    opts.workers = 2;
    opts.limits.max_connections = 32;
    TcpServer ts(opts);
    const int attempted = opts.limits.max_connections + 8;
    std::vector<std::unique_ptr<Client>> held;
    int accepted = 0, refused = 0;
    for (int i = 0; i < attempted; ++i) {
      auto c = std::make_unique<Client>();
      if (!c->connect_to(ts.srv.port())) continue;
      std::string first;
      if (!c->read_line(first)) continue;
      if (first.rfind("graphctd ready", 0) == 0) {
        ++accepted;
        held.push_back(std::move(c));  // keep it open to hold the slot
      } else if (first.find("connection capacity") != std::string::npos) {
        ++refused;
      }
    }
    std::printf(
        "{\"bench\":\"server_sustained_capacity\",\"cap\":%d,"
        "\"attempted\":%d,\"accepted\":%d,\"refused\":%d}\n",
        opts.limits.max_connections, attempted, accepted, refused);
    std::fflush(stdout);
  }

  // ---- Phase 4: query past the kernel-cache byte budget ---------------
  {
    const std::uint64_t budget = 256 << 10;  // 256 KiB: forces eviction
    server::ServerOptions opts;
    opts.workers = 2;
    opts.interpreter.toolkit.estimate_diameter_on_load = false;
    opts.limits.cache_budget_bytes = budget;
    server::Server srv(opts);
    srv.registry().add("g", graph);

    // The resident-bytes gauge is process-global; all earlier servers are
    // destroyed by now, so growth beyond the baseline is this cache's.
    auto& resident =
        obs::registry().gauge("gct_result_cache_resident_bytes");
    auto& evictions =
        obs::registry().counter("gct_result_cache_evictions_total");
    const double baseline = resident.value();
    const std::int64_t ev0 = evictions.value();

    auto session = srv.open_session("cachebench");
    session->handle_line("use graph g");
    const int queries = 64;
    double resident_max = 0.0;
    for (int i = 0; i < queries; ++i) {
      session->handle_line(uncached_query());
      resident_max = std::max(resident_max, resident.value() - baseline);
    }
    std::printf(
        "{\"bench\":\"server_sustained_cache\",\"budget_bytes\":%llu,"
        "\"queries\":%d,\"resident_max_bytes\":%.0f,\"evictions\":%lld}\n",
        static_cast<unsigned long long>(budget), queries, resident_max,
        static_cast<long long>(evictions.value() - ev0));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(
        argc, argv,
        {{"scale", "R-MAT scale (default 18; 12 sustained)"},
         {"queries", "rounds of the 3-query mix per session (default 6)"},
         {"workers", "job-queue worker threads (default 16)"},
         {"sustained", "drive the TCP transport with --sessions clients!"},
         {"sessions", "sustained mode: concurrent connections (default 200)"},
         {"requests", "sustained mode: requests per connection (default 8)"},
         {"graphs", "sustained mode: distinct registry graphs (default 8)"},
         {"quick", "small scale, few rounds, for CI!"}});
    const auto workers =
        static_cast<int>(cli.get("workers", std::int64_t{16}));

    if (cli.has("sustained")) {
      const auto scale = cli.has("quick")
                             ? std::int64_t{11}
                             : cli.get("scale", std::int64_t{12});
      const auto sessions =
          static_cast<int>(cli.get("sessions", std::int64_t{200}));
      const auto requests = static_cast<int>(
          cli.has("quick") ? 4 : cli.get("requests", std::int64_t{8}));
      const auto graphs =
          static_cast<int>(cli.get("graphs", std::int64_t{8}));
      return run_sustained(scale, workers, sessions, requests, graphs);
    }

    const auto scale = cli.has("quick") ? std::int64_t{12}
                                        : cli.get("scale", std::int64_t{18});
    const auto rounds = static_cast<int>(
        cli.has("quick") ? 2 : cli.get("queries", std::int64_t{6}));
    return run_classic(scale, rounds, workers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server_throughput: %s\n", e.what());
    return 1;
  }
}
