// `ftsynth serve`: the fault-tolerant analysis daemon.
//
// A long-lived server on a local (AF_UNIX) stream socket that holds warm
// state -- parsed models and memoised results -- in a warm-mode
// ServiceRunner and answers line-delimited JSON requests
// (service/protocol.h). The paper's workflow is interactive: an engineer
// edits the Simulink model and re-checks the fault trees, so throwing the
// warm state away per process (the CLI shape) re-pays the whole analysis
// on every keystroke.
//
// The robustness layer is the point:
//
//   * ADMISSION CONTROL -- a bounded request queue. Every request carries
//     a mandatory Budget (deadline_ms; the protocol rejects requests
//     without one) armed AT ADMISSION, so time spent queued counts
//     against the client's deadline. A full queue sheds load with a
//     distinct `overloaded` error immediately -- bounded latency, never
//     an unbounded backlog; `max_deadline_ms` caps how long any one
//     request may hold a worker.
//   * REQUEST ISOLATION -- execution is ServiceRunner::execute, which
//     never throws: a malformed model, budget blow-up or engine error
//     degrades that one response (diagnostics, `und:` leaves, exit
//     codes) and cannot take the daemon down. The response memo stays
//     clean because it stores only runs whose deadline never fired.
//   * TIMEOUT / CANCELLATION -- each connection watches its socket while
//     a request executes; a client disconnect force_expires the request's
//     budget latch, so every pool worker on that request unwinds at its
//     next poll and the workers are released. stop() force_expires all
//     in-flight budgets the same way.
//
// Nothing is persisted: a restarted daemon starts cold and re-parses and
// recomputes on demand. Byte-identity: a request's `output` is
// byte-identical to the serial CLI run with the same flags, for every
// command x engine x order x cold/warm state (enforced by
// tests/test_service.cpp and the CI soak).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/runner.h"

namespace ftsynth::service {

/// Test-only fault-injection points. Production leaves them empty.
struct ServiceHooks {
  /// Runs on the executor just before ServiceRunner::execute, with the
  /// admission-armed budget. Tests use it to hold a worker busy (until
  /// the budget expires) to provoke overload and cancellation paths.
  std::function<void(const ServiceRequest&, Budget&)> before_execute;
};

struct ServerOptions {
  /// Path of the AF_UNIX socket (required; a stale file is replaced).
  std::string socket_path;
  /// Workers in the shared analysis pool (0 = hardware concurrency).
  int jobs = 0;
  /// Concurrent request executors: how many requests make progress at
  /// once. Each one drives the shared pool for its intra-request
  /// parallelism, so a small number keeps the machine busy without
  /// thrashing.
  int executors = 2;
  /// Admission bound: requests queued (not yet executing) beyond this
  /// are shed with `overloaded`.
  std::size_t queue_limit = 16;
  /// Clamp on any client deadline_ms (0 = uncapped): admission control
  /// over how long one request may hold an executor.
  long max_deadline_ms = 0;
  /// Resident model cap for the runner.
  std::size_t max_models = 32;
  ServiceHooks hooks;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;           ///< well-formed executing requests
  std::uint64_t admitted = 0;           ///< passed admission control
  std::uint64_t executed = 0;           ///< ran to a response
  std::uint64_t shed_overloaded = 0;    ///< rejected: queue full
  std::uint64_t shed_deadline = 0;      ///< expired before an executor ran it
  std::uint64_t bad_requests = 0;       ///< protocol-level rejections
  std::uint64_t disconnect_cancels = 0; ///< budgets expired by disconnect
};

class ServiceServer {
 public:
  explicit ServiceServer(ServerOptions options);
  ~ServiceServer();  ///< stops the server if still running

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds the socket and spawns the accept and executor threads.
  /// Returns false (with a message in `error`) when the socket cannot be
  /// created; the server then never started.
  bool start(std::string* error);

  /// Blocks until stop() is called or a `shutdown` request arrives.
  void wait();

  /// True once a `shutdown` request has been accepted.
  bool shutdown_requested() const noexcept;

  /// Orderly stop, idempotent: stops admitting, force_expires every
  /// in-flight budget, unblocks and joins all threads. Safe to call from
  /// any thread except a connection handler.
  void stop();

  ServerStats stats() const;

  /// The warm runner (for tests and the serve command's verbose exit
  /// stats). Valid between construction and destruction.
  ServiceRunner& runner() noexcept { return runner_; }

 private:
  struct Pending;

  void accept_loop();
  void executor_loop();
  void serve_connection(int fd);
  /// One request line -> one response line (empty = nothing to send).
  std::string handle_line(const std::string& line, int fd);

  ServerOptions options_;
  ServiceRunner runner_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Pending>> queue_;

  /// Budgets of requests currently queued or executing -- what stop()
  /// force_expires so no worker outlives the daemon's shutdown.
  std::mutex inflight_mutex_;
  std::vector<std::shared_ptr<Budget>> inflight_;

  /// Live connection fds. Handlers run detached; each deregisters itself
  /// as its last act, and stop() waits on the cv for the list to drain.
  std::mutex connections_mutex_;
  std::condition_variable connections_cv_;
  std::vector<int> connection_fds_;

  std::thread accept_thread_;
  std::vector<std::thread> executor_threads_;

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace ftsynth::service
