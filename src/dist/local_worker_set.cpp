#include "dist/local_worker_set.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>

#include "util/error.hpp"

namespace graphct::dist {

LocalWorkerSet::LocalWorkerSet(const LocalWorkerSetOptions& opts)
    : fork_mode_(opts.fork_mode) {
  GCT_CHECK(opts.num_workers >= 1,
            "dist: a worker set needs at least one worker");
  for (int i = 0; i < opts.num_workers; ++i) {
    WorkerOptions wo;
    wo.threads = opts.threads;
    if (i == opts.fail_worker) wo.fail_after = opts.fail_after;
    auto server = std::make_unique<WorkerServer>(wo);
    ports_.push_back(server->port());
    if (!fork_mode_) {
      ThreadWorker tw;
      tw.server = std::move(server);
      WorkerServer* raw = tw.server.get();
      tw.thread = std::thread([raw] { raw->serve(); });
      threads_.push_back(std::move(tw));
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      stop();
      throw Error("dist: fork failed spawning worker " + std::to_string(i));
    }
    if (pid == 0) {
      // Child: serve one coordinator, then vanish. _exit (not exit) so the
      // child never runs parent-owned atexit handlers or flushes shared
      // stdio buffers.
      server->serve();
      ::_exit(0);
    }
    // Parent: drop its copy of the listen fd; the child's copy keeps the
    // socket open and accepting.
    server->release();
    server.reset();
    pids_.push_back(pid);
  }
}

LocalWorkerSet::~LocalWorkerSet() { stop(); }

void LocalWorkerSet::stop() {
  for (auto& tw : threads_) {
    if (tw.server) tw.server->stop();
    if (tw.thread.joinable()) tw.thread.join();
    tw.server.reset();
  }
  threads_.clear();

  // Reap forked workers: a cleanly shut-down worker exits on its own
  // almost immediately; give stragglers a short grace period, then KILL.
  // Teardown must never hang on a wedged or fault-injected worker.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno != EINTR)) {
        pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  pids_.clear();
}

}  // namespace graphct::dist
