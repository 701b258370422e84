#include "dist/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "graph/transforms.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace graphct::dist {

namespace {

obs::Counter& steps_counter(const char* kernel) {
  return obs::registry().counter(
      std::string("gct_dist_steps_total{kernel=\"") +
      obs::prom_label_value(kernel) + "\"}");
}

obs::Histogram& step_seconds() {
  static obs::Histogram& h =
      obs::registry().histogram("gct_dist_step_seconds");
  return h;
}

obs::Counter& failures_counter() {
  static obs::Counter& c =
      obs::registry().counter("gct_dist_worker_failures_total");
  return c;
}

}  // namespace

Coordinator::~Coordinator() { shutdown(); }

void Coordinator::require_ready() const {
  if (degraded_) {
    throw Error("dist: substrate is degraded (" + degraded_reason_ +
                "); restart the workers and reconnect");
  }
  GCT_CHECK(!conns_.empty(), "dist: no workers connected");
}

void Coordinator::fail(int worker, const std::string& what,
                       const std::string& detail) {
  degraded_ = true;
  degraded_reason_ = "worker " + std::to_string(worker) + " failed during " +
                     what + ": " + detail;
  failures_counter().add(1);
  // A dead worker poisons every in-flight exchange: close all sockets so
  // nothing ever blocks on a reply that cannot arrive.
  for (auto& c : conns_) c.close();
  throw Error("dist: " + degraded_reason_ +
              " — job cancelled; the graph remains serviceable through "
              "single-process kernels");
}

void Coordinator::send_to(int w, Msg type, std::string payload,
                          const char* what) {
  try {
    conns_[static_cast<std::size_t>(w)].send(type, payload);
  } catch (const Error& e) {
    fail(w, what, e.what());
  }
}

std::string Coordinator::recv_from(int w, Msg expect, const char* what) {
  Msg type;
  std::string payload;
  try {
    if (!conns_[static_cast<std::size_t>(w)].recv(type, payload)) {
      fail(w, what, "connection closed (worker died)");
    }
  } catch (const Error& e) {
    fail(w, what, e.what());
  }
  if (type == Msg::kError) {
    WireReader r(payload);
    fail(w, what, "worker reported: " + r.str());
  }
  if (type != expect) {
    fail(w, what,
         std::string("unexpected reply ") + msg_name(type) + " (wanted " +
             msg_name(expect) + ")");
  }
  return payload;
}

void Coordinator::exchange(
    Msg type, const std::vector<std::string>& payloads, Msg expect,
    const char* what,
    const std::function<void(int, std::string&)>& on_reply) {
  const int nw = num_workers();
  const bool broadcast = payloads.size() == 1;
  GCT_CHECK(broadcast || static_cast<int>(payloads.size()) == nw,
            "dist: exchange payload count mismatch");

  // Queue every request into the per-connection outbox (never blocks),
  // then poll() all sockets at once — flushing sends and merging
  // each reply the moment it completes, so a fast worker's reply is
  // consumed while a slow worker is still computing or receiving.
  for (int w = 0; w < nw; ++w) {
    auto& c = conns_[static_cast<std::size_t>(w)];
    try {
      c.queue_send(type,
                   payloads[broadcast ? 0 : static_cast<std::size_t>(w)]);
    } catch (const Error& e) {
      fail(w, what, e.what());
    }
  }

  std::vector<pollfd> fds(static_cast<std::size_t>(nw));
  std::vector<char> done(static_cast<std::size_t>(nw), 0);
  int remaining = nw;
  Msg rtype{};
  std::string rpayload;
  while (remaining > 0) {
    for (int w = 0; w < nw; ++w) {
      auto& p = fds[static_cast<std::size_t>(w)];
      if (done[static_cast<std::size_t>(w)]) {
        p.fd = -1;  // negative fds are ignored by poll()
        p.events = 0;
      } else {
        const auto& c = conns_[static_cast<std::size_t>(w)];
        p.fd = c.fd();
        p.events = POLLIN;
        if (c.send_pending()) p.events |= POLLOUT;
      }
      p.revents = 0;
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(nw), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(0, what, std::string("poll: ") + std::strerror(errno));
    }
    for (int w = 0; w < nw; ++w) {
      if (done[static_cast<std::size_t>(w)]) continue;
      const short re = fds[static_cast<std::size_t>(w)].revents;
      if (re == 0) continue;
      auto& c = conns_[static_cast<std::size_t>(w)];
      try {
        // On POLLERR/POLLHUP the I/O calls themselves produce the precise
        // error (or drain the final bytes a closing peer already sent).
        if (c.send_pending() && (re & (POLLOUT | POLLERR | POLLHUP)) != 0) {
          c.flush_some();
        }
        if ((re & (POLLIN | POLLERR | POLLHUP)) != 0 &&
            c.recv_some(rtype, rpayload)) {
          if (rtype == Msg::kError) {
            WireReader r(rpayload);
            fail(w, what, "worker reported: " + r.str());
          }
          if (rtype != expect) {
            fail(w, what,
                 std::string("unexpected reply ") + msg_name(rtype) +
                     " (wanted " + msg_name(expect) + ")");
          }
          done[static_cast<std::size_t>(w)] = 1;
          --remaining;
          on_reply(w, rpayload);
        }
      } catch (const Error& e) {
        fail(w, what, e.what());
      }
    }
  }
}

std::pair<std::int64_t, std::int64_t> Coordinator::owned_span(
    const std::vector<vid>& sorted, int w) const {
  const BlockInfo& b = partition_.blocks[static_cast<std::size_t>(w)];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), b.begin);
  const auto hi = std::lower_bound(lo, sorted.end(), b.end);
  return {lo - sorted.begin(), hi - lo};
}

std::vector<vid> Coordinator::expand_level(
    Msg type, const std::vector<std::string>& payloads, Msg expect,
    const char* what, std::vector<vid>& dist, vid d) {
  std::vector<vid> next;
  std::vector<std::int64_t> candidates;
  // First assignment wins: a vertex joins the level the first time any
  // worker proposes it, so reply order and the duplicates that threaded
  // workers race into their candidate lists never matter.
  exchange(type, payloads, expect, what, [&](int, std::string& reply) {
    WireReader r(reply);
    r.i64_vec(candidates);
    for (const std::int64_t c : candidates) {
      auto& dc = dist[static_cast<std::size_t>(c)];
      if (dc == kNoVertex) {
        dc = d;
        next.push_back(static_cast<vid>(c));
      }
    }
  });
  // Canonical order is ascending ids. The level is exactly the vertices at
  // depth d, so a dense level is read off `dist` in one pass; a sparse one
  // is sorted, which keeps a long path at O(s log s) per level, not O(n).
  if (static_cast<vid>(next.size()) * 64 >= global_n_) {
    std::size_t k = 0;
    for (vid v = 0; v < global_n_; ++v) {
      if (dist[static_cast<std::size_t>(v)] == d) next[k++] = v;
    }
  } else {
    std::sort(next.begin(), next.end());
  }
  return next;
}

void Coordinator::connect(const std::vector<int>& ports) {
  GCT_CHECK(!ports.empty(), "dist: need at least one worker port");
  shutdown();
  degraded_ = false;
  degraded_reason_.clear();
  loaded_ = false;
  conns_.clear();
  conns_.reserve(ports.size());
  for (const int port : ports) conns_.push_back(connect_local(port));
  for (int w = 0; w < num_workers(); ++w) {
    WireWriter hello;
    hello.u64(1);  // protocol version
    send_to(w, Msg::kHello, hello.take(), "handshake");
  }
  for (int w = 0; w < num_workers(); ++w) {
    const std::string ack = recv_from(w, Msg::kHelloAck, "handshake");
    WireReader r(ack);
    const std::uint64_t version = r.u64();
    if (version != 1) {
      fail(w, "handshake",
           "worker speaks protocol version " + std::to_string(version));
    }
  }
}

void Coordinator::ship_blocks(const CsrGraph& g, std::uint8_t slot) {
  const auto offsets = g.offsets();
  const auto adj = g.adjacency();
  for (int w = 0; w < num_workers(); ++w) {
    const BlockInfo& b = partition_.blocks[static_cast<std::size_t>(w)];
    const eid lo = offsets[static_cast<std::size_t>(b.begin)];
    const eid hi = offsets[static_cast<std::size_t>(b.end)];
    WireWriter msg;
    msg.u8(slot);
    msg.u8(g.directed() ? 1 : 0);
    msg.i64(g.num_vertices());
    msg.i64(b.begin);
    msg.i64(b.end);
    msg.i64_span(offsets.subspan(static_cast<std::size_t>(b.begin),
                                 static_cast<std::size_t>(b.end - b.begin) +
                                     1));
    msg.i64_span(adj.subspan(static_cast<std::size_t>(lo),
                             static_cast<std::size_t>(hi - lo)));
    send_to(w, Msg::kLoadBlock, msg.take(), "load");
  }
  for (int w = 0; w < num_workers(); ++w) {
    const std::string ack = recv_from(w, Msg::kLoadAck, "load");
    WireReader r(ack);
    const std::uint8_t acked_slot = r.u8();
    const std::int64_t entries = r.i64();
    const BlockInfo& b = partition_.blocks[static_cast<std::size_t>(w)];
    if (acked_slot != slot ||
        (slot == kSlotPrimary && entries != b.entries)) {
      fail(w, "load", "load-ack does not match the shipped block");
    }
  }
}

void Coordinator::load_graph(const CsrGraph& g) {
  require_ready();
  GCT_SPAN("dist.load");
  partition_ = partition_graph(g, num_workers());
  global_n_ = g.num_vertices();
  directed_ = g.directed();
  out_degree_.resize(static_cast<std::size_t>(global_n_));
  for (vid v = 0; v < global_n_; ++v) {
    out_degree_[static_cast<std::size_t>(v)] = g.degree(v);
  }
  ship_blocks(g, kSlotPrimary);
  if (directed_) {
    // Directed PageRank pulls over in-edges; ship the partitioned reverse
    // graph (same owner ranges) as the aux slot.
    ship_blocks(reverse(g), kSlotReverse);
  }
  loaded_ = true;
}

DistStats Coordinator::snapshot_traffic() const {
  DistStats s;
  for (const auto& c : conns_) {
    const Traffic& t = c.traffic();
    s.messages_sent += t.messages_sent;
    s.messages_received += t.messages_received;
    s.bytes_sent += t.bytes_sent;
    s.bytes_received += t.bytes_received;
  }
  s.steps = total_steps_;
  return s;
}

DistStats Coordinator::stats() const { return snapshot_traffic(); }

void Coordinator::begin_kernel() {
  require_ready();
  GCT_CHECK(loaded_, "dist: no graph loaded (call load_graph first)");
  kernel_base_ = snapshot_traffic();
}

void Coordinator::end_kernel(const char* kernel, std::int64_t steps) {
  total_steps_ += steps;
  const DistStats now = snapshot_traffic();
  last_kernel_.messages_sent = now.messages_sent - kernel_base_.messages_sent;
  last_kernel_.messages_received =
      now.messages_received - kernel_base_.messages_received;
  last_kernel_.bytes_sent = now.bytes_sent - kernel_base_.bytes_sent;
  last_kernel_.bytes_received =
      now.bytes_received - kernel_base_.bytes_received;
  last_kernel_.steps = steps;
  steps_counter(kernel).add(steps);
}

std::vector<vid> Coordinator::bfs_distances(vid source, vid max_depth) {
  begin_kernel();
  GCT_CHECK(source >= 0 && source < global_n_,
            "dist bfs: source out of range");
  obs::KernelScope scope("dist.bfs");
  std::vector<vid> dist(static_cast<std::size_t>(global_n_), kNoVertex);
  dist[static_cast<std::size_t>(source)] = 0;

  exchange(Msg::kBfsStart, {std::string()}, Msg::kAck, "bfs",
           [](int, std::string&) {});

  std::vector<vid> frontier{source};
  std::vector<std::string> payloads(
      static_cast<std::size_t>(num_workers()));
  vid level = 0;
  std::int64_t steps = 0;
  while (!frontier.empty() &&
         (max_depth == kNoVertex || level < max_depth)) {
    GCT_SPAN("dist.bfs.step");
    Timer step_timer;
    // The frontier is sorted ascending, so each worker's owned slice is
    // one contiguous range: [lower_bound(begin), lower_bound(end)).
    for (int w = 0; w < num_workers(); ++w) {
      const auto [off, len] = owned_span(frontier, w);
      WireWriter msg;
      msg.i64_span(std::span<const std::int64_t>(
          frontier.data() + off, static_cast<std::size_t>(len)));
      payloads[static_cast<std::size_t>(w)] = msg.take();
    }
    frontier = expand_level(Msg::kBfsStep, payloads, Msg::kBfsFrontier,
                            "bfs", dist, level + 1);
    ++level;
    ++steps;
    step_seconds().observe(step_timer.seconds());
    obs::add_work(static_cast<std::int64_t>(frontier.size()), 0);
  }
  end_kernel("bfs", steps);
  return dist;
}

std::vector<vid> Coordinator::components() {
  begin_kernel();
  obs::KernelScope scope("dist.components");
  std::vector<vid> labels(static_cast<std::size_t>(global_n_));
  for (vid v = 0; v < global_n_; ++v) {
    labels[static_cast<std::size_t>(v)] = v;
  }

  exchange(Msg::kCcStart, {std::string()}, Msg::kAck, "components",
           [](int, std::string&) {});

  // Delta exchange: broadcast the vertices whose master label changed last
  // round, collect proposals, repeat until a round changes nothing.
  std::vector<std::int64_t> delta_v;
  std::vector<std::int64_t> delta_l;
  std::vector<std::int64_t> prop_v;
  std::vector<std::int64_t> prop_l;
  std::vector<vid> changed;
  std::int64_t steps = 0;
  for (;;) {
    GCT_SPAN("dist.components.step");
    Timer step_timer;
    WireWriter msg;
    msg.i64_span(delta_v);
    msg.i64_span(delta_l);
    changed.clear();
    // Monotone min-merge: applying workers' proposals in any order
    // reaches the same labels, so completion-order delivery is safe.
    exchange(Msg::kCcStep, {msg.take()}, Msg::kCcDelta, "components",
             [&](int w, std::string& reply) {
               WireReader r(reply);
               r.i64_vec(prop_v);
               r.i64_vec(prop_l);
               if (prop_v.size() != prop_l.size()) {
                 fail(w, "components", "mismatched delta arrays");
               }
               for (std::size_t i = 0; i < prop_v.size(); ++i) {
                 auto& cur = labels[static_cast<std::size_t>(prop_v[i])];
                 if (prop_l[i] < cur) {
                   cur = static_cast<vid>(prop_l[i]);
                   changed.push_back(static_cast<vid>(prop_v[i]));
                 }
               }
             });
    ++steps;
    step_seconds().observe(step_timer.seconds());
    if (changed.empty()) break;
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    delta_v.assign(changed.begin(), changed.end());
    delta_l.resize(changed.size());
    for (std::size_t i = 0; i < changed.size(); ++i) {
      delta_l[i] = labels[static_cast<std::size_t>(changed[i])];
    }
  }
  end_kernel("components", steps);
  return labels;
}

PageRankResult Coordinator::pagerank(const PageRankOptions& opts) {
  begin_kernel();
  GCT_CHECK(opts.damping > 0.0 && opts.damping < 1.0,
            "pagerank: damping must be in (0,1)");
  GCT_CHECK(opts.max_iterations >= 1, "pagerank: need >= 1 iteration");
  obs::KernelScope scope("dist.pagerank");
  PageRankResult result;
  if (global_n_ == 0) return result;

  {
    WireWriter msg;
    msg.u8(directed_ ? kSlotReverse : kSlotPrimary);
    exchange(Msg::kPrStart, {msg.take()}, Msg::kAck, "pagerank",
             [](int, std::string&) {});
  }

  const double inv_n = 1.0 / static_cast<double>(global_n_);
  std::vector<double> rank(static_cast<std::size_t>(global_n_), inv_n);
  std::vector<double> next(static_cast<std::size_t>(global_n_), 0.0);
  std::vector<double> contrib(static_cast<std::size_t>(global_n_), 0.0);
  std::vector<double> block;
  std::int64_t steps = 0;

  for (std::int64_t it = 0; it < opts.max_iterations; ++it) {
    GCT_SPAN("dist.pagerank.step");
    Timer step_timer;
    double dangling = 0.0;
    for (vid v = 0; v < global_n_; ++v) {
      const vid d = out_degree_[static_cast<std::size_t>(v)];
      if (d == 0) {
        dangling += rank[static_cast<std::size_t>(v)];
        contrib[static_cast<std::size_t>(v)] = 0.0;
      } else {
        contrib[static_cast<std::size_t>(v)] =
            rank[static_cast<std::size_t>(v)] / static_cast<double>(d);
      }
    }
    const double base =
        (1.0 - opts.damping) * inv_n + opts.damping * dangling * inv_n;

    WireWriter msg;
    msg.f64(base);
    msg.f64(opts.damping);
    msg.f64_span(contrib);
    // Disjoint block copies: any completion order lands the same ranks.
    exchange(Msg::kPrStep, {msg.take()}, Msg::kPrRanks, "pagerank",
             [&](int w, std::string& reply) {
               WireReader r(reply);
               r.f64_vec(block);
               const BlockInfo& b =
                   partition_.blocks[static_cast<std::size_t>(w)];
               if (static_cast<vid>(block.size()) != b.num_vertices()) {
                 fail(w, "pagerank", "rank block length mismatch");
               }
               std::copy(block.begin(), block.end(),
                         next.begin() +
                             static_cast<std::ptrdiff_t>(b.begin));
             });

    double delta = 0.0;
    for (vid v = 0; v < global_n_; ++v) {
      delta += std::abs(next[static_cast<std::size_t>(v)] -
                        rank[static_cast<std::size_t>(v)]);
    }
    rank.swap(next);
    result.iterations = it + 1;
    result.residual = delta;
    ++steps;
    step_seconds().observe(step_timer.seconds());
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.score = std::move(rank);
  end_kernel("pagerank", steps);
  return result;
}

std::vector<double> Coordinator::betweenness(std::span<const vid> sources) {
  begin_kernel();
  GCT_CHECK(!directed_,
            "dist bc: distributed betweenness requires an undirected graph");
  GCT_CHECK(!sources.empty(), "dist bc: need at least one source");
  for (const vid s : sources) {
    GCT_CHECK(s >= 0 && s < global_n_, "dist bc: source out of range");
  }
  obs::KernelScope scope("dist.bc");
  std::vector<double> score(static_cast<std::size_t>(global_n_), 0.0);
  std::int64_t steps = 0;

  const auto noop = [](int, std::string&) {};
  exchange(Msg::kBcStart, {std::string()}, Msg::kAck, "bc", noop);
  ++steps;

  // Coordinator-side per-source state. `dist` dedups candidate proposals
  // (workers propose across block boundaries); `levels` keeps every
  // frontier because the backward sweep re-slices them per worker.
  std::vector<vid> dist(static_cast<std::size_t>(global_n_));
  std::vector<std::vector<vid>> levels;
  std::vector<double> sigma_prev;
  std::vector<double> values;
  std::vector<double> block;

  // Copy one worker's reply values into its owned slice of a buffer
  // aligned to the sorted frontier `f`.
  const auto place_slice = [&](const std::vector<vid>& f,
                               std::vector<double>& out, int w,
                               const char* what, std::string& reply) {
    WireReader r(reply);
    r.f64_vec(block);
    const auto [off, len] = owned_span(f, w);
    if (static_cast<std::int64_t>(block.size()) != len) {
      fail(w, what, "value slice length mismatch");
    }
    std::copy(block.begin(), block.end(),
              out.begin() + static_cast<std::ptrdiff_t>(off));
  };

  for (const vid source : sources) {
    std::fill(dist.begin(), dist.end(), kNoVertex);
    dist[static_cast<std::size_t>(source)] = 0;
    levels.clear();
    levels.push_back({source});
    sigma_prev.assign(1, 1.0);
    {
      WireWriter msg;
      msg.i64(source);
      exchange(Msg::kBcSource, {msg.take()}, Msg::kAck, "bc", noop);
      ++steps;
    }

    // Forward: per level, (A) broadcast sigma of the settled frontier and
    // collect next-level candidates, (B) broadcast the merged frontier and
    // collect its sigma slices. The loop's final kBcForward (empty
    // candidates) has already scattered the deepest sigma, so the backward
    // sweep needs no extra priming round.
    {
      GCT_SPAN("dist.bc.forward");
      for (std::int64_t d = 1;; ++d) {
        Timer step_timer;
        std::vector<vid> next;
        {
          GCT_SPAN("dist.bc.exchange");
          WireWriter msg;
          msg.u64(static_cast<std::uint64_t>(d));
          msg.f64_span(sigma_prev);
          next = expand_level(Msg::kBcForward, {msg.take()},
                              Msg::kBcCandidates, "bc.forward", dist, d);
          ++steps;
        }
        if (next.empty()) {
          step_seconds().observe(step_timer.seconds());
          break;
        }
        values.resize(next.size());
        {
          GCT_SPAN("dist.bc.exchange");
          WireWriter msg;
          msg.u64(static_cast<std::uint64_t>(d));
          msg.i64_span(next);
          exchange(Msg::kBcSigma, {msg.take()}, Msg::kBcSigmaBlock,
                   "bc.forward", [&](int w, std::string& reply) {
                     place_slice(next, values, w, "bc.forward", reply);
                   });
          ++steps;
        }
        obs::add_work(static_cast<std::int64_t>(next.size()), 0);
        sigma_prev.swap(values);
        levels.push_back(std::move(next));
        step_seconds().observe(step_timer.seconds());
      }
    }

    // Backward, deepest level first: broadcast the coefficients one level
    // deeper (empty at the deepest level) and collect this level's
    // coefficient slices. Workers fold dependency deltas into their owned
    // score blocks as they go. The sweep stops at level 1: level 0 is the
    // source alone, whose score is skipped and whose coefficient nothing
    // reads.
    {
      GCT_SPAN("dist.bc.backward");
      std::vector<double> coef_below;
      for (std::int64_t d = static_cast<std::int64_t>(levels.size()) - 1;
           d >= 1; --d) {
        Timer step_timer;
        const std::vector<vid>& f = levels[static_cast<std::size_t>(d)];
        values.resize(f.size());
        {
          GCT_SPAN("dist.bc.exchange");
          WireWriter msg;
          msg.u64(static_cast<std::uint64_t>(d));
          msg.f64_span(coef_below);
          exchange(Msg::kBcBackward, {msg.take()}, Msg::kBcCoefBlock,
                   "bc.backward", [&](int w, std::string& reply) {
                     place_slice(f, values, w, "bc.backward", reply);
                   });
          ++steps;
        }
        coef_below.swap(values);
        step_seconds().observe(step_timer.seconds());
      }
    }
  }

  // Gather the owned score blocks, each accumulated over every source.
  {
    GCT_SPAN("dist.bc.gather");
    exchange(Msg::kBcScores, {std::string()}, Msg::kBcScoreBlock, "bc.gather",
             [&](int w, std::string& reply) {
               WireReader r(reply);
               r.f64_vec(block);
               const BlockInfo& bi =
                   partition_.blocks[static_cast<std::size_t>(w)];
               if (static_cast<vid>(block.size()) != bi.num_vertices()) {
                 fail(w, "bc.gather", "score block length mismatch");
               }
               std::copy(block.begin(), block.end(),
                         score.begin() + static_cast<std::ptrdiff_t>(bi.begin));
             });
    ++steps;
  }

  end_kernel("bc", steps);
  return score;
}

void Coordinator::shutdown() {
  for (std::size_t w = 0; w < conns_.size(); ++w) {
    auto& c = conns_[w];
    if (!c.valid()) continue;
    try {
      c.send(Msg::kShutdown, "");
      Msg type;
      std::string payload;
      // Best-effort ack: the worker is told to stop either way, so neither
      // the reply nor its absence changes what happens next.
      (void)c.recv(type, payload);
    } catch (const std::exception&) {
      // Teardown is best-effort by design; a dead worker is already gone.
    }
    c.close();
  }
}

}  // namespace graphct::dist
