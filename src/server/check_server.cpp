#include "server/check_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "server/protocol.hpp"
#include "stg/astg_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace stgcheck::server {

using json::Value;

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error("stg_checkd: " + what + ": " + std::strerror(errno));
}

constexpr std::size_t kMaxSchedulerThreads = 64;  // sanity cap on --threads

/// Bucket upper bounds (seconds) of the daemon latency histograms: an
/// interactive check is milliseconds, a default-config muller64 minutes.
std::vector<double> latency_edges() {
  return {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100, 300};
}

/// Decodes a kPass record's named metrics into the registry's gauge
/// struct (started_at is the registry's own, preserved by note_pass).
SessionProgress progress_from_pass(const core::EventRecord& record) {
  SessionProgress p;
  p.at = record.at;
  for (const auto& [name, value] : record.metrics) {
    const std::size_t n = value < 0 ? 0 : static_cast<std::size_t>(value);
    if (name == "pass") {
      p.passes = n;
    } else if (name == "image_computations") {
      p.image_computations = n;
    } else if (name == "live_nodes") {
      p.live_nodes = n;
    } else if (name == "peak_live_nodes") {
      p.peak_live_nodes = n;
    } else if (name == "reached_nodes") {
      p.reached_nodes = n;
    } else if (name == "frontier_nodes") {
      p.frontier_nodes = n;
    }
  }
  return p;
}

}  // namespace

/// One client connection: the fd plus the write-side mutex that
/// serializes control replies (connection thread) against streamed event
/// lines (scheduler threads). The fd is closed by the destructor only, so
/// a scheduler job holding a shared_ptr can never write to a recycled fd;
/// shutdown_io() is the non-destructive "hang up" both ends observe.
struct CheckServer::Connection {
  int fd = -1;
  std::mutex write_mu;

  explicit Connection(int fd_) : fd(fd_) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void shutdown_io() { ::shutdown(fd, SHUT_RDWR); }

  /// Writes `line` + '\n' atomically w.r.t. other writers. Errors (client
  /// went away) are swallowed: a dead client must not kill its sessions.
  void write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mu);
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }
};

CheckServer::CheckServer(ServerOptions options)
    : options_(std::move(options)),
      queue_wait_seconds_(
          metrics_.histogram("server_queue_wait_seconds", latency_edges())),
      session_run_seconds_(
          metrics_.histogram("server_session_run_seconds", latency_edges())),
      scheduler_(options_.threads < 1 ? 1
                 : options_.threads > kMaxSchedulerThreads
                     ? kMaxSchedulerThreads
                     : options_.threads) {}

CheckServer::~CheckServer() {
  stop();
  wait();
}

void CheckServer::start() {
  if (listen_fd_ >= 0) throw Error("stg_checkd: start() called twice");
  if (options_.socket_path.empty()) throw Error("stg_checkd: empty socket path");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("stg_checkd: socket path too long: " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  if (::pipe(stop_pipe_) != 0) sys_fail("pipe");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    sys_fail("bind " + options_.socket_path);
  }
  if (::listen(listen_fd_, 16) != 0) sys_fail("listen");

  accept_thread_ = std::thread([this] { accept_loop(); });
}

void CheckServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
  const std::lock_guard<std::mutex> lock(conn_mu_);
  for (const std::weak_ptr<Connection>& weak : conns_) {
    if (const std::shared_ptr<Connection> conn = weak.lock()) {
      conn->shutdown_io();
    }
  }
}

void CheckServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (;;) {
    std::thread t;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      if (conn_threads_.empty()) break;
      t = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    if (t.joinable()) t.join();
  }
  scheduler_.stop();  // finishes every accepted session first
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void CheckServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() fired
    if (fds[0].revents == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto conn = std::make_shared<Connection>(fd);
    const std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      conn->shutdown_io();
      break;
    }
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { serve_connection(std::move(conn)); });
  }
}

void CheckServer::serve_connection(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    pollfd fds[2] = {{conn->fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() fired
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error: client hung up
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
      if (stopping_.load(std::memory_order_acquire)) break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  conn->shutdown_io();
}

void CheckServer::handle_line(const std::shared_ptr<Connection>& conn,
                              const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    conn->write_line(error_line(e.code(), e.what()));
    return;
  } catch (const std::exception& e) {
    conn->write_line(error_line(ErrorCode::kBadRequest, e.what()));
    return;
  }

  switch (request.op) {
    case Request::Op::kPing: {
      Value reply = Value::object();
      reply.set("reply", Value("pong"));
      reply.set("version", Value(kProtocolVersion));
      conn->write_line(reply.dump());
      return;
    }
    case Request::Op::kStatus: {
      if (!request.session_id.empty()) {
        handle_session_status(conn, request.session_id);
        return;
      }
      const RegistryCounts counts = registry_.counts();
      Value sessions = Value::object();
      sessions.set("queued", Value(counts.queued));
      sessions.set("running", Value(counts.running));
      sessions.set("done", Value(counts.done));
      sessions.set("failed", Value(counts.failed));
      sessions.set("cancelled", Value(counts.cancelled));
      sessions.set("exhausted", Value(counts.exhausted));
      Value reply = Value::object();
      reply.set("reply", Value("status"));
      reply.set("version", Value(kProtocolVersion));
      reply.set("threads", Value(scheduler_.thread_count()));
      reply.set("uptime", Value(clock_.seconds()));
      reply.set("sessions", std::move(sessions));
      conn->write_line(reply.dump());
      return;
    }
    case Request::Op::kCancel: {
      switch (registry_.cancel(request.session_id)) {
        case CancelResult::kSignalled: {
          Value reply = Value::object();
          reply.set("reply", Value("cancelled"));
          reply.set("session", Value(request.session_id));
          conn->write_line(reply.dump());
          return;
        }
        case CancelResult::kFinished:
          conn->write_line(error_line(
              ErrorCode::kSessionFinished,
              "session '" + request.session_id + "' already finished",
              request.session_id));
          return;
        case CancelResult::kUnknown:
          conn->write_line(
              error_line(ErrorCode::kUnknownSession,
                         "no session '" + request.session_id + "'",
                         request.session_id));
          return;
      }
      return;
    }
    case Request::Op::kShutdown: {
      Value reply = Value::object();
      reply.set("reply", Value("bye"));
      conn->write_line(reply.dump());
      stop();
      return;
    }
    case Request::Op::kMetrics:
      handle_metrics(conn, request.session_id);
      return;
    case Request::Op::kCheck:
      submit_checks(conn, std::move(request.checks), /*is_batch=*/false, {});
      return;
    case Request::Op::kBatch: {
      std::string batch_id = std::move(request.batch_id);
      if (batch_id.empty()) {
        const std::lock_guard<std::mutex> lock(conn_mu_);
        batch_id = "b" + std::to_string(++next_batch_);
      }
      submit_checks(conn, std::move(request.checks), /*is_batch=*/true,
                    std::move(batch_id));
      return;
    }
  }
}

void CheckServer::handle_session_status(
    const std::shared_ptr<Connection>& conn, const std::string& session_id) {
  const std::optional<SessionInfo> info = registry_.info(session_id);
  if (!info.has_value()) {
    conn->write_line(error_line(ErrorCode::kUnknownSession,
                                "no session '" + session_id + "'",
                                session_id));
    return;
  }
  Value reply = Value::object();
  reply.set("reply", Value("status"));
  reply.set("version", Value(kProtocolVersion));
  reply.set("session", Value(session_id));
  reply.set("state", Value(std::string(to_string(info->state))));
  reply.set("finished", Value(info->finished));
  if (!info->error.empty()) reply.set("error", Value(info->error));
  const std::optional<SessionProgress> progress = registry_.progress(session_id);
  if (progress.has_value() && info->state == SessionState::kRunning) {
    Value p = Value::object();
    p.set("passes", Value(progress->passes));
    p.set("image_computations", Value(progress->image_computations));
    p.set("live_nodes", Value(progress->live_nodes));
    p.set("peak_live_nodes", Value(progress->peak_live_nodes));
    p.set("reached_nodes", Value(progress->reached_nodes));
    p.set("frontier_nodes", Value(progress->frontier_nodes));
    p.set("at", Value(progress->at));
    p.set("elapsed", Value(clock_.seconds() - progress->started_at));
    reply.set("progress", std::move(p));
  }
  conn->write_line(reply.dump());
}

void CheckServer::handle_metrics(const std::shared_ptr<Connection>& conn,
                                 const std::string& session_id) {
  Value reply = Value::object();
  reply.set("reply", Value("metrics"));
  reply.set("version", Value(kProtocolVersion));
  if (session_id.empty()) {
    // Server-cumulative view: every finished session folded together.
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    reply.set("sessions", Value(metrics_sessions_));
    reply.set("uptime", Value(clock_.seconds()));
    reply.set("metrics", metrics_.snapshot().to_json());
    conn->write_line(reply.dump());
    return;
  }
  if (const auto text = registry_.finished_metrics(session_id)) {
    reply.set("session", Value(session_id));
    reply.set("metrics", Value::parse(*text));
    conn->write_line(reply.dump());
    return;
  }
  conn->write_line(error_line(
      ErrorCode::kUnknownSession,
      "no metrics for session '" + session_id +
          "' (unknown, unfinished, or evicted from the finished-session ring)",
      session_id));
}

void CheckServer::record_session_metrics(const metrics::MetricsSnapshot& snap,
                                         double queue_wait_s, double run_s) {
  const std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.merge(snap);
  queue_wait_seconds_.observe(queue_wait_s);
  session_run_seconds_.observe(run_s);
  ++metrics_sessions_;
}

void CheckServer::submit_checks(const std::shared_ptr<Connection>& conn,
                                std::vector<CheckRequest> checks,
                                bool is_batch, std::string batch_id) {
  // Two-phase so a batch's "remaining" counter is exact before any job
  // can finish: register and ack everything first, then submit.
  struct Accepted {
    std::string id;
    core::CheckSession* session;
    double accepted_at;
  };
  std::vector<Accepted> accepted;

  for (CheckRequest& check : checks) {
    std::string id =
        check.id.empty() ? registry_.unique_id() : std::move(check.id);

    stg::Stg stg;
    try {
      stg = stg::parse_astg_string(check.net_text);
    } catch (const std::exception& e) {
      conn->write_line(error_line(ErrorCode::kBadNet, e.what(), id));
      continue;
    }

    // Every in-daemon session gets a cancel token, whatever its other
    // limits: the "cancel" op reaches the session through it.
    auto token = std::make_shared<CancelToken>();
    check.options.limits.token = token;

    auto session = std::make_unique<core::CheckSession>(
        std::move(stg), std::move(check.options), &clock_,
        [this, conn, id](const core::EventRecord& record) {
          if (record.kind == core::EventKind::kPass) {
            registry_.note_pass(id, progress_from_pass(record));
          }
          conn->write_line(event_line(id, record));
        });
    core::CheckSession* raw =
        registry_.add(id, std::move(session), std::move(token));
    if (raw == nullptr) {
      conn->write_line(
          error_line(ErrorCode::kDuplicateSession, "session id already in use", id));
      continue;
    }

    Value ack = Value::object();
    ack.set("reply", Value("accepted"));
    ack.set("session", Value(id));
    if (is_batch) ack.set("batch", Value(batch_id));
    conn->write_line(ack.dump());
    accepted.push_back({std::move(id), raw, clock_.seconds()});
  }

  const auto remaining =
      std::make_shared<std::atomic<std::size_t>>(accepted.size());
  const std::size_t total = accepted.size();

  const auto batch_done_if_last = [this, conn, is_batch, batch_id, remaining,
                                   total] {
    if (!is_batch) return;
    if (remaining->fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    Value done = Value::object();
    done.set("reply", Value("batch_done"));
    done.set("batch", Value(batch_id));
    done.set("sessions", Value(total));
    done.set("at", Value(clock_.seconds()));
    conn->write_line(done.dump());
  };

  if (is_batch && accepted.empty()) {
    Value done = Value::object();
    done.set("reply", Value("batch_done"));
    done.set("batch", Value(batch_id));
    done.set("sessions", Value(std::size_t{0}));
    done.set("at", Value(clock_.seconds()));
    conn->write_line(done.dump());
    return;
  }

  for (Accepted& entry : accepted) {
    scheduler_.submit([this, conn, id = entry.id, session = entry.session,
                       accepted_at = entry.accepted_at, batch_done_if_last] {
      const double picked_at = clock_.seconds();
      registry_.mark_running(id, picked_at);
      Value result = Value::object();
      result.set("reply", Value("result"));
      result.set("session", Value(id));
      SessionState state = SessionState::kDone;
      std::string error;
      try {
        const core::ImplementabilityReport& report = session->run();
        if (session->outcome() == core::SessionOutcome::kCompleted) {
          result.set("report", report_to_json(session->stg(), report));
        } else {
          // A governed stop: the session already streamed the typed
          // record; the result carries the outcome + trip gauges instead
          // of a report, the slot frees, and the server keeps serving.
          result.set("outcome",
                     Value(std::string(core::to_string(session->outcome()))));
          result.set("trip", trip_to_json(*session->trip()));
          state = session->outcome() == core::SessionOutcome::kCancelled
                      ? SessionState::kCancelled
                      : SessionState::kExhausted;
        }
      } catch (const std::exception& e) {
        // The session already streamed a kError record from inside run().
        result.set("code",
                   Value(std::string(to_string(ErrorCode::kSessionFailed))));
        result.set("error", Value(std::string(e.what())));
        state = SessionState::kFailed;
        error = e.what();
      }
      // Render first, fold and finish second, write last: once a client
      // reads a result line, the metrics op has seen the session, the slot
      // is already freed and the status counters already reflect the
      // ending. (finish() destroys the session, so everything read from
      // it comes before.)
      const metrics::MetricsSnapshot snap = session->metrics_snapshot();
      record_session_metrics(snap, picked_at - accepted_at,
                             clock_.seconds() - picked_at);
      registry_.finish(id, state, snap, std::move(error));
      conn->write_line(result.dump());
      batch_done_if_last();
    });
  }
}

}  // namespace stgcheck::server
