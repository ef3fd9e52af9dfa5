#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

namespace ftsynth::service {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE instead of SIGPIPE
#else
constexpr int kSendFlags = 0;
#endif

/// A request line larger than this is rejected: requests are small, and a
/// daemon must bound what an arbitrary client can make it buffer.
constexpr std::size_t kMaxLineBytes = 1u << 20;

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), kSendFlags);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

/// Buffered newline-delimited reads off a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  enum class Status { kLine, kEof, kOverflow };

  Status read_line(std::string* line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return Status::kLine;
      }
      if (buffer_.size() > kMaxLineBytes) return Status::kOverflow;
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got == 0) return Status::kEof;
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::kEof;  // reset/shutdown: treat as gone
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace

/// One admitted request travelling from a connection to an executor. The
/// shared Budget is the cancellation handle: armed at admission, shared
/// (via its latch) with every engine-side copy, force_expired by
/// disconnect or shutdown.
struct ServiceServer::Pending {
  Json id;
  ServiceRequest request;
  std::shared_ptr<Budget> budget;
  std::promise<std::string> promise;  ///< the rendered response line
};

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)),
      runner_([&] {
        ServiceRunner::Options runner_options;
        runner_options.jobs = options_.jobs;
        runner_options.warm = true;
        runner_options.max_models = options_.max_models;
        return runner_options;
      }()) {
  if (options_.executors < 1) options_.executors = 1;
  if (options_.queue_limit == 0) options_.queue_limit = 1;
}

ServiceServer::~ServiceServer() { stop(); }

bool ServiceServer::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (options_.socket_path.empty()) return fail("no socket path given");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof address.sun_path)
    return fail("socket path too long for AF_UNIX");
  std::memcpy(address.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail(std::strerror(errno));
  // A previous daemon killed with the socket file in place would make
  // bind fail forever; the path is ours by contract, so replace it.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0)
    return fail("bind '" + options_.socket_path + "': " + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0) return fail(std::strerror(errno));

  running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (int i = 0; i < options_.executors; ++i)
    executor_threads_.emplace_back([this] { executor_loop(); });
  return true;
}

void ServiceServer::wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  wait_cv_.wait(lock, [&] {
    return stopping_.load() || shutdown_requested_.load();
  });
}

bool ServiceServer::shutdown_requested() const noexcept {
  return shutdown_requested_.load();
}

void ServiceServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_ = true;
  // Release every worker promptly: queued and executing requests share
  // their budget latch with the engines, so one force_expire per request
  // unwinds synthesis, cut sets and probability at their next poll.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (const std::shared_ptr<Budget>& budget : inflight_)
      budget->force_expire();
  }
  queue_cv_.notify_all();
  // Unblock connection readers stuck in recv().
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& executor : executor_threads_)
    if (executor.joinable()) executor.join();
  executor_threads_.clear();
  // Connections run detached; wait until the last one deregistered.
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    connections_cv_.wait(lock, [&] { return connection_fds_.empty(); });
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  wait_cv_.notify_all();
}

ServerStats ServiceServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ServiceServer::accept_loop() {
  while (!stopping_) {
    pollfd poller{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&poller, 1, 200);
    if (stopping_) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (stopping_) {
      ::close(fd);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections;
    }
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connection_fds_.push_back(fd);
    }
    // Detached: lifetime is managed by the fd registry -- the thread's
    // last touch of server state is deregistering itself (under the
    // connections mutex, which stop() waits on).
    std::thread([this, fd] { serve_connection(fd); }).detach();
  }
}

void ServiceServer::serve_connection(int fd) {
  LineReader reader(fd);
  while (!stopping_) {
    std::string line;
    const LineReader::Status status = reader.read_line(&line);
    if (status == LineReader::Status::kEof) break;
    if (status == LineReader::Status::kOverflow) {
      send_all(fd, render_error_response(Json(), WireErrorCode::kBadRequest,
                                         "request line too long") +
                       "\n");
      break;  // framing is lost; drop the connection
    }
    if (line.empty()) continue;
    const std::string response = handle_line(line, fd);
    if (response.empty()) break;  // client vanished mid-request
    if (!send_all(fd, response + "\n")) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection_fds_.erase(
      std::find(connection_fds_.begin(), connection_fds_.end(), fd));
  connections_cv_.notify_all();
}

std::string ServiceServer::handle_line(const std::string& line, int fd) {
  std::variant<WireRequest, WireError> parsed = parse_wire_request(line);
  if (const WireError* error = std::get_if<WireError>(&parsed)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.bad_requests;
    return render_error_response(error->id, error->code, error->message);
  }
  WireRequest& wire = std::get<WireRequest>(parsed);

  switch (wire.control) {
    case ControlCommand::kPing:
      return render_control_response(wire.id, "pong");
    case ControlCommand::kStats: {
      ServerStats s = stats();
      std::string text = runner_.stats_text();
      text += "requests: " + std::to_string(s.requests) + " (" +
              std::to_string(s.executed) + " executed, " +
              std::to_string(s.shed_overloaded) + " overloaded, " +
              std::to_string(s.shed_deadline) + " deadline-shed, " +
              std::to_string(s.disconnect_cancels) + " disconnect-cancelled)\n";
      return render_control_response(wire.id, text);
    }
    case ControlCommand::kShutdown:
      shutdown_requested_ = true;
      wait_cv_.notify_all();
      return render_control_response(wire.id, "shutting down");
    case ControlCommand::kNone:
      break;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  if (stopping_ || shutdown_requested_) {
    return render_error_response(wire.id, WireErrorCode::kShuttingDown,
                                 "server is shutting down");
  }

  auto pending = std::make_shared<Pending>();
  pending->id = wire.id;
  pending->request = std::move(wire.request);
  pending->budget = std::make_shared<Budget>();
  // Arm the mandatory budget AT ADMISSION: queue wait counts against the
  // client's deadline, and the latch exists before anything can race to
  // force_expire it. max_deadline_ms is the operator's cap on how long
  // any request may hold an executor.
  long deadline_ms = pending->request.deadline_ms;
  if (options_.max_deadline_ms > 0 && deadline_ms > options_.max_deadline_ms)
    deadline_ms = options_.max_deadline_ms;
  pending->budget->set_deadline_ms(deadline_ms);
  std::future<std::string> response = pending->promise.get_future();

  // Admission control: a full queue sheds immediately with `overloaded`
  // (bounded latency) instead of queueing unboundedly.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= options_.queue_limit) {
      lock.unlock();
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.shed_overloaded;
      return render_error_response(
          wire.id, WireErrorCode::kOverloaded,
          "request queue is full (" + std::to_string(options_.queue_limit) +
              " waiting); retry later");
    }
    queue_.push_back(pending);
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.push_back(pending->budget);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.admitted;
  }
  queue_cv_.notify_one();

  // Wait for the executor while watching the socket: a client that hangs
  // up mid-request has its budget force_expired so the pool workers are
  // released instead of finishing work nobody will read.
  bool disconnected = false;
  bool watch_socket = true;
  while (true) {
    if (response.wait_for(std::chrono::milliseconds(50)) ==
        std::future_status::ready)
      break;
    if (!watch_socket || disconnected) continue;
    pollfd poller{fd, POLLIN, 0};
    if (::poll(&poller, 1, 0) <= 0) continue;
    if ((poller.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char peek = 0;
    const ssize_t got = ::recv(fd, &peek, 1, MSG_PEEK | MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
      disconnected = true;
      pending->budget->force_expire();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.disconnect_cancels;
    } else if (got > 0) {
      // Pipelined bytes of the NEXT request, not a hangup: stop peeking
      // (we would spin on them) and simply wait for completion.
      watch_socket = false;
    }
  }
  const std::string rendered = response.get();
  return disconnected ? std::string() : rendered;
}

void ServiceServer::executor_loop() {
  while (true) {
    std::shared_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [&] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }

    std::string response;
    if (stopping_) {
      response = render_error_response(pending->id,
                                       WireErrorCode::kShuttingDown,
                                       "server is shutting down");
    } else if (pending->budget->expired()) {
      // Expired while queued: deadline passed under load, or the client
      // already hung up. Shedding here is the degradation ladder's middle
      // rung -- the request never reaches an engine.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.shed_deadline;
      }
      response = render_error_response(
          pending->id, WireErrorCode::kDeadline,
          "deadline expired before execution started");
    } else {
      if (options_.hooks.before_execute)
        options_.hooks.before_execute(pending->request, *pending->budget);
      ServiceRequest request = pending->request;
      request.budget = *pending->budget;
      const ServiceResult result = runner_.execute(request);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.executed;
      }
      response = render_ok_response(pending->id, result);
    }

    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(
          std::find(inflight_.begin(), inflight_.end(), pending->budget));
    }
    pending->promise.set_value(std::move(response));
  }
}

}  // namespace ftsynth::service
