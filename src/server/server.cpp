#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace graphct::server {

namespace {

constexpr const char* kBanner = "graphctd ready\n";

/// Refuse to buffer a single line beyond this (a sane protocol line is a
/// few hundred bytes; a megabyte without '\n' is a confused client).
constexpr std::size_t kMaxLineBytes = 1 << 20;

bool is_quit(const std::string& line) {
  return line == "quit" || line == "exit";
}

/// Strip a trailing '\r' (telnet/CRLF clients).
std::string strip_cr(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

ServerOptions resolve(ServerOptions o) {
  if (o.workers < 1) o.workers = 1;
  // One flag governs every graph's kernel cache: the server limit wins
  // over whatever the interpreter options carried.
  if (o.limits.cache_budget_bytes != 0) {
    o.interpreter.toolkit.cache_budget_bytes = o.limits.cache_budget_bytes;
  }
  return o;
}

obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::registry().gauge("gct_server_connections");
  return g;
}

obs::Counter& refused_counter() {
  static obs::Counter& c =
      obs::registry().counter("gct_server_connections_refused_total");
  return c;
}

obs::Counter& pipeline_shed_counter() {
  static obs::Counter& c =
      obs::registry().counter("gct_server_pipeline_shed_total");
  return c;
}

/// One TCP connection's state, owned by the event loop. `gen` is the
/// connection's identity for completions: fds are recycled by the kernel,
/// generations never are, so a job finishing after its connection died
/// cannot write into an unrelated one.
struct Conn {
  int fd = -1;
  std::uint64_t gen = 0;
  std::shared_ptr<Session> session;
  std::string in;                  ///< bytes read, not yet line-split
  std::deque<std::string> lines;   ///< complete lines awaiting dispatch
  std::string out;                 ///< bytes to write
  bool dispatching = false;        ///< one command in flight at a time
  bool want_write = false;         ///< EPOLLOUT currently registered
  bool quit_after_flush = false;   ///< close once `out` drains
  std::chrono::steady_clock::time_point last_activity;
};

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(resolve(std::move(opts))),
      registry_(opts_.interpreter.toolkit),
      queue_(opts_.workers, QueueLimits{opts_.limits.max_queued_jobs,
                                        opts_.limits.max_queued_per_session}) {}

Server::~Server() {
  request_stop();
  queue_.shutdown();
}

std::shared_ptr<Session> Server::open_session(std::string name) {
  if (name.empty()) {
    name = "s" + std::to_string(next_session_.fetch_add(1));
  }
  return std::make_shared<Session>(std::move(name), registry_, queue_,
                                   opts_.interpreter);
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  auto session = open_session();
  out << kBanner << std::flush;
  std::string line;
  while (std::getline(in, line)) {
    line = strip_cr(line);
    if (is_quit(line)) break;
    out << session->handle_line(line) << std::flush;
  }
}

void Server::post_completion(std::uint64_t conn_gen, std::string text) {
  std::lock_guard<std::mutex> lock(comp_mu_);
  completions_.push_back(Completion{conn_gen, std::move(text)});
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

int Server::serve_tcp(int port, const std::function<void()>& on_listening) {
  using Clock = std::chrono::steady_clock;
  const ServerLimits& limits = opts_.limits;

  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  GCT_CHECK(lfd >= 0, "serve: cannot create socket");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(lfd, 128) != 0) {
    ::close(lfd);
    throw Error("serve: cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_port_.store(ntohs(bound.sin_port));
    }
  }

  const int epfd = ::epoll_create1(0);
  const int efd = ::eventfd(0, EFD_NONBLOCK);
  if (epfd < 0 || efd < 0) {
    if (epfd >= 0) ::close(epfd);
    if (efd >= 0) ::close(efd);
    ::close(lfd);
    throw Error("serve: cannot create epoll/eventfd");
  }
  auto add_fd = [&](int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  };
  add_fd(lfd, EPOLLIN);
  add_fd(efd, EPOLLIN);
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    wake_fd_ = efd;
  }

  std::map<std::uint64_t, Conn> conns;
  std::unordered_map<int, std::uint64_t> fd_gen;
  std::uint64_t next_gen = 1;

  auto set_writable = [&](Conn& c, bool on) {
    if (c.want_write == on) return;
    c.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
  };

  auto close_conn = [&](std::uint64_t gen) {
    auto it = conns.find(gen);
    if (it == conns.end()) return;
    fd_gen.erase(it->second.fd);
    ::close(it->second.fd);  // also removes the fd from the epoll set
    conns.erase(it);
    connections_gauge().add(-1.0);
  };

  /// Write what we can; returns false when the socket is dead.
  auto flush = [&](Conn& c) -> bool {
    while (!c.out.empty()) {
      const ssize_t n =
          ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    set_writable(c, !c.out.empty());
    return true;
  };

  /// Split buffered input into lines (shedding overflow), start the next
  /// dispatch if the connection is free, flush, and close when finished.
  auto pump = [&](std::uint64_t gen) {
    auto it = conns.find(gen);
    if (it == conns.end()) return;
    Conn& c = it->second;

    std::size_t nl;
    while ((nl = c.in.find('\n')) != std::string::npos) {
      std::string line = strip_cr(c.in.substr(0, nl));
      c.in.erase(0, nl + 1);
      const int cap = limits.max_queued_per_session;
      if (cap > 0 && static_cast<int>(c.lines.size()) >= cap) {
        // Pipelining backlog full: shed before the job queue ever sees
        // the line, so one firehosing client costs O(cap) memory.
        pipeline_shed_counter().add();
        c.out += c.session->shed_reply(line, "connection backlog full");
        continue;
      }
      c.lines.push_back(std::move(line));
    }
    if (c.in.size() > kMaxLineBytes) {
      c.out += "error protocol line exceeds " +
               std::to_string(kMaxLineBytes) + " bytes\n";
      c.quit_after_flush = true;
      c.lines.clear();
    }

    if (!c.dispatching && !c.quit_after_flush && !c.lines.empty() &&
        !stopping_.load()) {
      std::string line = std::move(c.lines.front());
      c.lines.pop_front();
      if (is_quit(line)) {
        c.quit_after_flush = true;
      } else {
        c.dispatching = true;
        c.last_activity = Clock::now();
        // The Done closure owns the session: a connection may die while
        // its job runs, and the worker still needs the interpreter alive.
        auto session = c.session;
        session->dispatch(line, [this, gen, session](std::string text) {
          post_completion(gen, std::move(text));
        });
      }
    }

    if (!flush(c)) {
      close_conn(gen);
      return;
    }
    if (c.quit_after_flush && c.out.empty() && !c.dispatching) {
      close_conn(gen);
    }
  };

  auto do_accept = [&]() {
    for (;;) {
      const int cfd = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);
      if (cfd < 0) break;
      if (stopping_.load()) {
        ::close(cfd);
        continue;
      }
      if (limits.max_connections > 0 &&
          static_cast<int>(conns.size()) >= limits.max_connections) {
        refused_counter().add();
        static const std::string refusal =
            "error server at connection capacity, retry later\n";
        [[maybe_unused]] const ssize_t n =
            ::send(cfd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
        ::close(cfd);
        continue;
      }
      const std::uint64_t gen = next_gen++;
      Conn c;
      c.fd = cfd;
      c.gen = gen;
      c.session = open_session();
      c.out = kBanner;
      c.last_activity = Clock::now();
      fd_gen.emplace(cfd, gen);
      auto [it, inserted] = conns.emplace(gen, std::move(c));
      add_fd(cfd, EPOLLIN);
      connections_gauge().add(1.0);
      if (!flush(it->second)) close_conn(gen);
    }
  };

  auto do_read = [&](std::uint64_t gen) {
    auto it = conns.find(gen);
    if (it == conns.end()) return;
    Conn& c = it->second;
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.in.append(chunk, static_cast<std::size_t>(n));
        c.last_activity = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(gen);  // EOF or error; in-flight jobs are gen-guarded
      return;
    }
    pump(gen);
  };

  auto drain_completions = [&]() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(comp_mu_);
      batch.swap(completions_);
    }
    for (auto& comp : batch) {
      auto it = conns.find(comp.conn_gen);
      if (it == conns.end()) continue;  // connection died first
      Conn& c = it->second;
      c.out += comp.text;
      c.dispatching = false;
      c.last_activity = Clock::now();
      pump(comp.conn_gen);
    }
  };

  const bool have_timeouts =
      limits.read_timeout_seconds > 0 || limits.idle_timeout_seconds > 0;
  auto scan_timeouts = [&]() {
    const auto t = Clock::now();
    std::vector<std::uint64_t> victims;
    for (auto& [gen, c] : conns) {
      const double idle =
          std::chrono::duration<double>(t - c.last_activity).count();
      const bool quiescent =
          !c.dispatching && c.lines.empty() && c.out.empty();
      if (limits.read_timeout_seconds > 0 && !c.in.empty() &&
          idle > limits.read_timeout_seconds) {
        victims.push_back(gen);
      } else if (limits.idle_timeout_seconds > 0 && quiescent &&
                 c.in.empty() && idle > limits.idle_timeout_seconds) {
        victims.push_back(gen);
      }
    }
    for (const auto gen : victims) close_conn(gen);
  };

  if (on_listening) on_listening();

  epoll_event events[64];
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epfd, events, 64, have_timeouts ? 500 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == lfd) {
        do_accept();
        continue;
      }
      if (fd == efd) {
        std::uint64_t drained;
        while (::read(efd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto g = fd_gen.find(fd);
      if (g == fd_gen.end()) continue;  // closed earlier this batch
      const std::uint64_t gen = g->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(gen);
        continue;
      }
      if (events[i].events & EPOLLOUT) pump(gen);
      if (events[i].events & EPOLLIN) do_read(gen);
    }
    drain_completions();
    if (have_timeouts) scan_timeouts();
  }

  // Deterministic stop: stop accepting, cancel jobs that never started
  // (their completions deliver "cancelled" responses), then keep the loop
  // alive just long enough to flush responses for jobs that were already
  // running. Connections are closed at the deadline regardless; the gen
  // guard drops any response that finishes later.
  ::close(lfd);
  bound_port_.store(0);
  queue_.cancel_pending();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             limits.drain_timeout_seconds));
  auto in_flight = [&]() {
    for (const auto& [gen, c] : conns) {
      if (c.dispatching || !c.out.empty()) return true;
    }
    return false;
  };
  while (in_flight() && Clock::now() < deadline) {
    const int n = ::epoll_wait(epfd, events, 64, 50);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == efd) {
        std::uint64_t drained;
        while (::read(efd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == lfd) continue;
      auto g = fd_gen.find(fd);
      if (g == fd_gen.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(g->second);
      } else if (events[i].events & EPOLLOUT) {
        pump(g->second);
      }
    }
    drain_completions();
  }
  while (!conns.empty()) close_conn(conns.begin()->first);
  {
    std::lock_guard<std::mutex> lock(comp_mu_);
    wake_fd_ = -1;
    ::close(efd);
  }
  ::close(epfd);
  return 0;
}

void Server::request_stop() {
  stopping_.store(true);
  std::lock_guard<std::mutex> lock(comp_mu_);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

}  // namespace graphct::server
