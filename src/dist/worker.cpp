#include "dist/worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <omp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct::dist {

namespace {

/// Owned contiguous slice of a sorted global vertex list: blocks are
/// contiguous id ranges, so ownership is two binary searches.
std::span<const std::int64_t> owned_slice(const std::vector<vid>& sorted,
                                          vid begin, vid end) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), begin);
  const auto hi = std::lower_bound(lo, sorted.end(), end);
  return {sorted.data() + (lo - sorted.begin()),
          static_cast<std::size_t>(hi - lo)};
}

}  // namespace

WorkerServer::WorkerServer(const WorkerOptions& opts) : opts_(opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GCT_CHECK(fd >= 0, "dist worker: cannot create listen socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: concurrent worker sets never collide
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 1) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error(std::string("dist worker: cannot bind 127.0.0.1: ") +
                std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  GCT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "dist worker: getsockname failed");
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
}

WorkerServer::~WorkerServer() { stop(); }

void WorkerServer::stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a racing accept(); close() alone may not.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void WorkerServer::release() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

void WorkerServer::serve() {
  // Library regions reached from a handler without an explicit num_threads
  // clause (Bitmap::clear(), ...) size their team from this per-thread
  // setting; without it a 1-thread worker would fork nproc threads.
  omp_set_num_threads(opts_.threads);
  int cfd = -1;
  for (;;) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;  // stopped before a coordinator arrived
    cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd >= 0) break;
    if (errno == EINTR) continue;
    return;  // listen socket closed under us (stop()) or fatal error
  }
  stop();  // one coordinator per worker; no further accepts
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  FrameConn conn(cfd);

  std::int64_t received = 0;
  Msg type;
  std::string payload;
  for (;;) {
    try {
      if (!conn.recv(type, payload)) return;  // coordinator hung up
    } catch (const std::exception&) {
      return;  // transport corrupt/dead; nothing to report it on
    }
    ++received;
    if (opts_.fail_after >= 0 && received > opts_.fail_after) {
      // Injected death: drop the connection without replying, exactly as
      // a crashed worker would.
      conn.close();
      return;
    }
    if (type == Msg::kShutdown) {
      try {
        conn.send(Msg::kAck, "");
      } catch (const std::exception&) {
      }
      return;
    }
    try {
      handle(type, payload, conn);
    } catch (const std::exception& e) {
      // Handler failure is a protocol-level error: report it in the reply
      // slot and keep serving. Only a failing send ends the loop.
      try {
        WireWriter w;
        w.str(e.what());
        conn.send(Msg::kError, w.take());
      } catch (const std::exception&) {
        return;
      }
    }
  }
}

void WorkerServer::handle(Msg type, const std::string& payload,
                          FrameConn& conn) {
  WireReader r(payload);
  WireWriter reply;
  Msg reply_type = Msg::kAck;
  switch (type) {
    case Msg::kHello: {
      const std::uint64_t version = r.u64();
      GCT_CHECK(version == 1,
                "dist worker: unsupported protocol version " +
                    std::to_string(version));
      reply.u64(1);
      reply.u64(static_cast<std::uint64_t>(::getpid()));
      reply.u64(static_cast<std::uint64_t>(omp_get_max_threads()));
      reply_type = Msg::kHelloAck;
      break;
    }
    case Msg::kLoadBlock:
      handle_load(r, reply);
      reply_type = Msg::kLoadAck;
      break;
    case Msg::kBfsStart: {
      const auto& s = slots_[kSlotPrimary];
      GCT_CHECK(s.present, "dist worker: bfs-start before load-block");
      proposed_.resize(s.global_n);
      proposed_.clear();
      break;
    }
    case Msg::kBfsStep:
      handle_bfs_step(r, reply);
      reply_type = Msg::kBfsFrontier;
      break;
    case Msg::kCcStart: {
      const auto& s = slots_[kSlotPrimary];
      GCT_CHECK(s.present, "dist worker: cc-start before load-block");
      labels_.resize(static_cast<std::size_t>(s.global_n));
      for (vid v = 0; v < s.global_n; ++v) {
        labels_[static_cast<std::size_t>(v)] = v;
      }
      break;
    }
    case Msg::kCcStep:
      handle_cc_step(r, reply);
      reply_type = Msg::kCcDelta;
      break;
    case Msg::kPrStart: {
      pr_slot_ = r.u8();
      GCT_CHECK(pr_slot_ < kNumSlots && slots_[pr_slot_].present,
                "dist worker: pr-start references an unloaded graph slot");
      break;
    }
    case Msg::kPrStep:
      handle_pr_step(r, reply);
      reply_type = Msg::kPrRanks;
      break;
    case Msg::kBcStart: {
      const auto& s = slots_[kSlotPrimary];
      GCT_CHECK(s.present, "dist worker: bc-start before load-block");
      GCT_CHECK(!s.directed,
                "dist worker: distributed betweenness is undirected-only");
      bc_score_.assign(static_cast<std::size_t>(s.end - s.begin), 0.0);
      bc_dc_.assign(static_cast<std::size_t>(s.global_n),
                    DistCoef{0.0, kNoVertex});
      bc_sigma_.assign(static_cast<std::size_t>(s.global_n), 0.0);
      bc_levels_.clear();
      bc_source_ = kNoVertex;
      break;
    }
    case Msg::kBcSource:
      handle_bc_source(r);
      break;
    case Msg::kBcForward:
      handle_bc_forward(r, reply);
      reply_type = Msg::kBcCandidates;
      break;
    case Msg::kBcSigma:
      handle_bc_sigma(r, reply);
      reply_type = Msg::kBcSigmaBlock;
      break;
    case Msg::kBcBackward:
      handle_bc_backward(r, reply);
      reply_type = Msg::kBcCoefBlock;
      break;
    case Msg::kBcScores: {
      const auto& s = slots_[kSlotPrimary];
      GCT_CHECK(s.present && static_cast<vid>(bc_score_.size()) ==
                                 s.end - s.begin,
                "dist worker: bc-scores before bc-start");
      reply.f64_span(bc_score_);
      reply_type = Msg::kBcScoreBlock;
      break;
    }
    default:
      throw Error(std::string("dist worker: unexpected message ") +
                  msg_name(type));
  }
  conn.send(reply_type, reply.take());
}

void WorkerServer::handle_load(WireReader& r, WireWriter& reply) {
  const std::uint8_t slot_id = r.u8();
  GCT_CHECK(slot_id < kNumSlots, "dist worker: bad graph slot");
  Slot& s = slots_[slot_id];
  s.directed = r.u8() != 0;
  s.global_n = r.i64();
  s.begin = r.i64();
  s.end = r.i64();
  GCT_CHECK(s.begin >= 0 && s.begin <= s.end && s.end <= s.global_n,
            "dist worker: bad block range");
  r.i64_vec(s.offsets);
  r.i64_vec(s.adjacency);
  GCT_CHECK(static_cast<vid>(s.offsets.size()) == s.end - s.begin + 1,
            "dist worker: offsets length does not match block range");
  // Rebase to zero so neighbors() indexes the local adjacency slice.
  const eid base = s.offsets.empty() ? 0 : s.offsets.front();
  for (auto& o : s.offsets) o -= base;
  GCT_CHECK(s.offsets.empty() ||
                s.offsets.back() == static_cast<eid>(s.adjacency.size()),
            "dist worker: adjacency length does not match offsets");
  s.present = true;
  reply.u8(slot_id);
  reply.i64(static_cast<std::int64_t>(s.adjacency.size()));
}

void WorkerServer::expand_owned_rows(const Slot& s,
                                     std::span<const std::int64_t> owned,
                                     std::vector<vid>& candidates) {
  candidates.clear();
  const auto count = static_cast<std::int64_t>(owned.size());
  if (opts_.threads <= 1 || count < kLevelSerialBelow) {
    for (const std::int64_t u : owned) {
      GCT_CHECK(u >= s.begin && u < s.end,
                "dist worker: frontier vertex not owned by this block");
      // The frontier vertex itself is visited; never propose it again.
      proposed_.set(static_cast<vid>(u));
      for (const vid v : s.neighbors(static_cast<vid>(u))) {
        if (!proposed_.test(v)) {
          proposed_.set(v);
          candidates.push_back(v);
        }
      }
    }
    return;
  }
  // Parallel expansion: per-thread candidate lists, bitmap dedup with
  // set_atomic. Two threads racing on the same neighbor may both emit it
  // (test-then-set is not atomic as a pair) — benign, the coordinator
  // dedups against its global distance array and puts the merged frontier
  // in ascending order, so the levels are identical to the serial path's.
  std::vector<std::vector<vid>> per_thread(
      static_cast<std::size_t>(opts_.threads));
#pragma omp parallel num_threads(opts_.threads)
  {
    auto& mine = per_thread[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64)
    for (std::int64_t i = 0; i < count; ++i) {
      const auto u = static_cast<vid>(owned[static_cast<std::size_t>(i)]);
      if (u < s.begin || u >= s.end) continue;  // checked below
      proposed_.set_atomic(u);
      for (const vid v : s.neighbors(u)) {
        if (!proposed_.test(v)) {
          proposed_.set_atomic(v);
          mine.push_back(v);
        }
      }
    }
  }
  for (const std::int64_t u : owned) {
    GCT_CHECK(u >= s.begin && u < s.end,
              "dist worker: frontier vertex not owned by this block");
  }
  for (auto& pt : per_thread) {
    candidates.insert(candidates.end(), pt.begin(), pt.end());
  }
}

void WorkerServer::handle_bfs_step(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && proposed_.size() == s.global_n,
            "dist worker: bfs-step before bfs-start");
  r.i64_vec(scratch_i64_);
  std::vector<vid> candidates;
  expand_owned_rows(s, scratch_i64_, candidates);
  reply.i64_span(candidates);
}

void WorkerServer::handle_cc_step(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && !labels_.empty(),
            "dist worker: cc-step before cc-start");
  // Apply the coordinator's merged delta first (monotone min, idempotent).
  r.i64_vec(scratch_i64_);
  std::vector<std::int64_t> delta_labels;
  r.i64_vec(delta_labels);
  GCT_CHECK(scratch_i64_.size() == delta_labels.size(),
            "dist worker: cc delta arrays disagree");
  for (std::size_t i = 0; i < scratch_i64_.size(); ++i) {
    const auto v = static_cast<std::size_t>(scratch_i64_[i]);
    GCT_CHECK(v < labels_.size(), "dist worker: cc delta vertex out of range");
    if (delta_labels[i] < labels_[v]) labels_[v] = delta_labels[i];
  }

  // Scan owned rows, absorbing labels across each arc in both directions
  // (weak components: a directed arc still merges its endpoints). Updates
  // apply locally as they are found — monotone minima converge to the same
  // fixed point in any order — and every locally lowered vertex is
  // proposed to the coordinator.
  std::vector<vid> changed;
  if (opts_.threads <= 1 || s.end - s.begin < kLevelSerialBelow) {
    auto lower = [&](vid v, vid label) {
      auto& cur = labels_[static_cast<std::size_t>(v)];
      if (label < cur) {
        cur = label;
        changed.push_back(v);  // may repeat across arcs; deduped below
      }
    };
    for (vid u = s.begin; u < s.end; ++u) {
      for (const vid v : s.neighbors(u)) {
        const vid lu = labels_[static_cast<std::size_t>(u)];
        const vid lv = labels_[static_cast<std::size_t>(v)];
        if (lu < lv) {
          lower(v, lu);
        } else if (lv < lu) {
          lower(u, lv);
        }
      }
    }
  } else {
    // Parallel absorption: atomic_min keeps every lowering monotone, and
    // per-thread changed lists merge below. A round may propose slightly
    // different intermediates than the serial scan (absorption chains
    // cascade differently across threads), but the fixed point — the
    // canonical min-vertex-id labeling — is identical, which is what the
    // kernel-level parity gates assert.
    std::vector<std::vector<vid>> per_thread(
        static_cast<std::size_t>(opts_.threads));
#pragma omp parallel num_threads(opts_.threads)
    {
      auto& mine = per_thread[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 256)
      for (vid u = s.begin; u < s.end; ++u) {
        for (const vid v : s.neighbors(u)) {
          const vid lu = labels_[static_cast<std::size_t>(u)];
          const vid lv = labels_[static_cast<std::size_t>(v)];
          if (lu < lv) {
            if (atomic_min(labels_[static_cast<std::size_t>(v)], lu)) {
              mine.push_back(v);
            }
          } else if (lv < lu) {
            if (atomic_min(labels_[static_cast<std::size_t>(u)], lv)) {
              mine.push_back(u);
            }
          }
        }
      }
    }
    for (auto& pt : per_thread) {
      changed.insert(changed.end(), pt.begin(), pt.end());
    }
  }
  // Dedup: a vertex lowered several times reports its final label once.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::vector<std::int64_t> out_labels(changed.size());
  for (std::size_t i = 0; i < changed.size(); ++i) {
    out_labels[i] = labels_[static_cast<std::size_t>(changed[i])];
  }
  reply.i64_span(changed);
  reply.i64_span(out_labels);
}

void WorkerServer::handle_pr_step(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[pr_slot_];
  GCT_CHECK(s.present, "dist worker: pr-step before pr-start");
  const double base = r.f64();
  const double damping = r.f64();
  r.f64_vec(contrib_);
  GCT_CHECK(static_cast<vid>(contrib_.size()) == s.global_n,
            "dist worker: contrib vector length mismatch");
  next_.resize(static_cast<std::size_t>(s.end - s.begin));
  // Per-vertex accumulation in adjacency order: floating-point addition is
  // order-dependent, and this order is exactly the single-process
  // kernel's, which is what makes per-vertex sums match it bitwise given
  // identical inputs. Rows parallelize freely — each sum is per-vertex
  // exclusive and internally sequential, so the result is bit-identical at
  // any thread count (stealing_for runs inline at threads=1).
  stealing_for(wq_, s.begin, s.end, kLevelChunk, kLevelSerialBelow,
               opts_.threads, [&](std::int64_t b, std::int64_t e) {
                 for (vid v = b; v < e; ++v) {
                   double acc = 0.0;
                   for (const vid u : s.neighbors(v)) {
                     acc += contrib_[static_cast<std::size_t>(u)];
                   }
                   next_[static_cast<std::size_t>(v - s.begin)] =
                       base + damping * acc;
                 }
               });
  reply.f64_span(next_);
}

// ---------------------------------------------------------------------------
// Distributed betweenness handlers. Protocol per source (docs/DISTRIBUTED.md
// "Distributed betweenness"):
//
//   kBcSource               per-source reset; F_0 = {source}
//   per level d = 1, 2, ...:
//     kBcForward {d, sigma(F_{d-1})}   -> kBcCandidates {proposals}
//     kBcSigma   {d, F_d}              -> kBcSigmaBlock {sigma, owned slice}
//   per level d = D, ..., 1:
//     kBcBackward {d, coef(F_{d+1})}   -> kBcCoefBlock  {coef, owned slice}
//
// There is no level-0 backward step: F_0 is the source alone, whose score
// is skipped and whose coefficient nothing reads.
//
// Every sum runs through the canonical 4-lane rows of algs/bc_accum.hpp
// over each vertex's FULL adjacency row (targets are global ids), with the
// same predicates as the single-process engine — which is why the scores
// are bit-identical to fine-mode betweenness_centrality, per worker count
// and per worker thread count.

void WorkerServer::handle_bc_source(WireReader& r) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && !bc_dc_.empty(),
            "dist worker: bc-source before bc-start");
  const vid source = r.i64();
  GCT_CHECK(source >= 0 && source < s.global_n,
            "dist worker: bc source out of range");
  // Per-source O(n) distance reset, the mirror of the single-process
  // engine's per-source distance load. Stale coef halves are harmless:
  // coef is only ever read one level up, after being rewritten.
  const vid n = s.global_n;
  DistCoef* dc = bc_dc_.data();
#pragma omp parallel for schedule(static) num_threads(opts_.threads) \
    if (opts_.threads > 1)
  for (vid v = 0; v < n; ++v) dc[v].dist = kNoVertex;
  proposed_.resize(n);
  proposed_.clear();
  bc_levels_.clear();
  bc_levels_.push_back({source});
  bc_source_ = source;
  dc[source].dist = 0;
  bc_sigma_[static_cast<std::size_t>(source)] = 1.0;
  proposed_.set(source);
}

void WorkerServer::handle_bc_forward(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && bc_source_ != kNoVertex,
            "dist worker: bc-forward before bc-source");
  const auto level = static_cast<std::int64_t>(r.u64());
  r.f64_vec(scratch_f64_);
  GCT_CHECK(level >= 1 &&
                level == static_cast<std::int64_t>(bc_levels_.size()),
            "dist worker: bc-forward level out of sequence");
  const auto& prev = bc_levels_.back();  // F_{level-1}, sorted
  GCT_CHECK(scratch_f64_.size() == prev.size(),
            "dist worker: bc sigma span does not match the frontier");
  // Scatter sigma of the previous frontier into the mirror: any owned
  // vertex of the NEXT level may pull across the block boundary.
  for (std::size_t i = 0; i < prev.size(); ++i) {
    bc_sigma_[static_cast<std::size_t>(prev[i])] = scratch_f64_[i];
  }
  std::vector<vid> candidates;
  expand_owned_rows(s, owned_slice(prev, s.begin, s.end), candidates);
  reply.i64_span(candidates);
}

void WorkerServer::handle_bc_sigma(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && bc_source_ != kNoVertex,
            "dist worker: bc-sigma before bc-source");
  const auto level = static_cast<std::int64_t>(r.u64());
  r.i64_vec(scratch_i64_);
  GCT_CHECK(level == static_cast<std::int64_t>(bc_levels_.size()),
            "dist worker: bc-sigma level out of sequence");
  bc_levels_.emplace_back(scratch_i64_.begin(), scratch_i64_.end());
  const auto& f = bc_levels_.back();
  // Mark the confirmed frontier proposed everywhere (so no worker proposes
  // it again next level) and scatter its depth into the mirror.
  DistCoef* dc = bc_dc_.data();
  for (const vid v : f) {
    proposed_.set(v);
    dc[v].dist = level;
  }
  // Pull sigma for the owned slice: each vertex sums sigma over its FULL
  // row's depth-minus-one neighbors — the same 4-lane row and predicate as
  // pull_sigma_level / expand_bottom_up_sigma, hence bitwise-equal sums.
  const auto slice = owned_slice(f, s.begin, s.end);
  const auto count = static_cast<std::int64_t>(slice.size());
  bc_out_.resize(slice.size());
  const double* sg = bc_sigma_.data();
  const std::int64_t prev_level = level - 1;
  stealing_for(wq_, 0, count, kLevelChunk, kLevelSerialBelow, opts_.threads,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   const auto v =
                       static_cast<vid>(slice[static_cast<std::size_t>(i)]);
                   const auto nbrs = s.neighbors(v);
                   const double sv = bc_pull_sigma_row(
                       nbrs.data(), static_cast<std::int64_t>(nbrs.size()),
                       sg, [dc, prev_level](vid u) {
                         return dc[u].dist == prev_level;
                       });
                   bc_out_[static_cast<std::size_t>(i)] = sv;
                   bc_sigma_[static_cast<std::size_t>(v)] = sv;
                 }
               });
  reply.f64_span(bc_out_);
}

void WorkerServer::handle_bc_backward(WireReader& r, WireWriter& reply) {
  const Slot& s = slots_[kSlotPrimary];
  GCT_CHECK(s.present && bc_source_ != kNoVertex,
            "dist worker: bc-backward before bc-source");
  const auto d = static_cast<std::int64_t>(r.u64());
  r.f64_vec(scratch_f64_);
  const auto num_levels = static_cast<std::int64_t>(bc_levels_.size());
  GCT_CHECK(d >= 1 && d < num_levels,
            "dist worker: bc-backward level out of range");
  const bool deepest = d + 1 == num_levels;
  DistCoef* dc = bc_dc_.data();
  if (deepest) {
    GCT_CHECK(scratch_f64_.empty(),
              "dist worker: deepest bc-backward carries no coefficients");
  } else {
    const auto& below = bc_levels_[static_cast<std::size_t>(d + 1)];
    GCT_CHECK(scratch_f64_.size() == below.size(),
              "dist worker: bc coef span does not match the level");
    // Scatter the deeper level's coefficients into the mirror; the owned
    // sweep below reads them across block boundaries.
    for (std::size_t i = 0; i < below.size(); ++i) {
      dc[below[i]].coef = scratch_f64_[i];
    }
  }
  const auto& f = bc_levels_[static_cast<std::size_t>(d)];
  const auto slice = owned_slice(f, s.begin, s.end);
  const auto count = static_cast<std::int64_t>(slice.size());
  bc_out_.resize(slice.size());
  const double* sg = bc_sigma_.data();
  const std::int64_t deeper = d + 1;
  stealing_for(
      wq_, 0, count, kLevelChunk, kLevelSerialBelow, opts_.threads,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const auto v = static_cast<vid>(slice[static_cast<std::size_t>(i)]);
          double coef;
          if (deepest) {
            // No deeper neighbors: the dependency sum is exactly zero, so
            // the scan collapses to coef = 1/sigma (no score contribution)
            // — the same closed form as the single-process deepest level.
            coef = 1.0 / sg[static_cast<std::size_t>(v)];
          } else {
            const auto nbrs = s.neighbors(v);
            const double acc = bc_pull_coef_row(
                nbrs.data(), static_cast<std::int64_t>(nbrs.size()), dc,
                deeper);
            const double sv = sg[static_cast<std::size_t>(v)];
            const double dv = sv * acc;
            coef = (1.0 + dv) / sv;
            // Accumulated across sources in coordinator order — the same
            // per-vertex add order as fine mode's serial source loop. No
            // vertex at depth d >= 1 is the source.
            bc_score_[static_cast<std::size_t>(v - s.begin)] += dv;
          }
          dc[v].coef = coef;
          bc_out_[static_cast<std::size_t>(i)] = coef;
        }
      });
  reply.f64_span(bc_out_);
}

}  // namespace graphct::dist
