// stg_checkd's engine room: a resident check server on a local stream
// socket.
//
// One CheckServer owns
//   * the AF_UNIX listening socket and an accept-loop thread,
//   * one reader thread per client connection,
//   * the SessionRegistry (id -> session lifecycle),
//   * the SessionScheduler (a FIFO queue served by N worker threads),
//   * one SteadyClock shared by every session, so all streamed timestamps
//     are seconds since server start on a single axis.
//
// Data flow of one check: the connection thread parses the request and
// the net, registers a CheckSession whose event sink serializes each
// record as one JSON line through the connection's write mutex, answers
// "accepted", and submits a job. The first free scheduler worker runs the
// session start to finish -- events stream as they happen -- then writes
// the "result" line and releases the session from the registry. The
// session itself never leaves that one worker; the only shared
// touchpoints are the registry, the connection (mutexed), the metrics
// fold (mutexed), and the scheduler queue.
//
// The BDD kernel is sequential: concurrency comes from workers running
// whole sessions side by side, each on its own manager.
//
// Shutdown: stop() only signals (a self-pipe every poll() watches plus a
// listener close) so it is safe from any thread -- including a connection
// thread handling the "shutdown" op. wait() joins the accept loop and
// every connection thread, then stops the scheduler; sessions already
// accepted complete and their result lines are written (to sockets that
// may be gone -- writes to dead connections are dropped, not errors).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/events.hpp"
#include "server/protocol.hpp"
#include "server/registry.hpp"
#include "server/scheduler.hpp"
#include "util/metrics.hpp"

namespace stgcheck::server {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; at most ~100 chars (sun_path).
  /// An existing socket file at the path is replaced.
  std::string socket_path;
  /// Max concurrently running sessions; clamped to [1, 64].
  std::size_t threads = 4;
};

class CheckServer {
 public:
  explicit CheckServer(ServerOptions options);
  ~CheckServer();

  CheckServer(const CheckServer&) = delete;
  CheckServer& operator=(const CheckServer&) = delete;

  /// Binds, listens, and starts the accept loop. Throws Error on any
  /// socket failure. Call once.
  void start();

  /// Signals every loop to wind down. Safe from any thread; idempotent.
  void stop();

  /// Joins the accept loop and all connection threads, then stops the
  /// scheduler (every accepted session still runs). Returns once the
  /// server is fully quiescent. Call from the owning thread (not from a
  /// connection).
  void wait();

  /// True once a client issued the "shutdown" op (or stop() was called).
  bool shutdown_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  const ServerOptions& options() const { return options_; }
  std::size_t thread_count() const { return scheduler_.thread_count(); }

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void handle_session_status(const std::shared_ptr<Connection>& conn,
                             const std::string& session_id);
  void handle_metrics(const std::shared_ptr<Connection>& conn,
                      const std::string& session_id);
  void submit_checks(const std::shared_ptr<Connection>& conn,
                     std::vector<CheckRequest> checks, bool is_batch,
                     std::string batch_id);
  /// Folds a finished session's snapshot into the server-cumulative
  /// registry, and observes its queue wait (accepted -> picked up by a
  /// worker) and run time (picked up -> result ready). Called by
  /// scheduler jobs just before registry_.finish() stores the snapshot
  /// on the finished ring and destroys the session.
  void record_session_metrics(const metrics::MetricsSnapshot& snap,
                              double queue_wait_s, double run_s);

  ServerOptions options_;
  core::SteadyClock clock_;  // one time axis for every session
  SessionRegistry registry_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  // [0] polled by every loop, [1] written by stop()
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::weak_ptr<Connection>> conns_;  // for shutdown_io on stop
  std::size_t next_batch_ = 0;

  /// Guards the server-cumulative fold. Per-session snapshots live on
  /// the registry's finished ring.
  std::mutex metrics_mu_;
  metrics::MetricsRegistry metrics_;  ///< server-cumulative fold
  std::size_t metrics_sessions_ = 0;  ///< sessions folded in
  metrics::Histogram& queue_wait_seconds_;   ///< in metrics_
  metrics::Histogram& session_run_seconds_;  ///< in metrics_

  /// Declared last: its workers start after, and are joined before, every
  /// member a job touches.
  SessionScheduler scheduler_;
};

}  // namespace stgcheck::server
