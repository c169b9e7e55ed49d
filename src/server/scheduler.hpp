// The daemon's session scheduler: a plain FIFO work queue served by N
// long-lived worker threads. Each worker pops the next job as soon as it
// is free, so a short check submitted behind a long one starts as soon
// as any worker frees up -- it never waits for unrelated jobs to finish.
//
// Jobs are whole check sessions. Each session owns its single-threaded
// bdd::Manager and its metrics registry exclusively, so workers share no
// mutable kernel state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stgcheck::server {

class SessionScheduler {
 public:
  /// A job must not throw -- it reports its own failures (the server's
  /// jobs write error records/lines). Escaped exceptions are swallowed
  /// here as a last resort.
  using Job = std::function<void()>;

  /// Starts `threads` workers (clamped to >= 1); at most that many jobs
  /// run at once.
  explicit SessionScheduler(std::size_t threads);
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Appends a job to the queue. Jobs submitted after stop() are
  /// silently dropped (the server only stops once connections are down).
  void submit(Job job);

  /// Stops accepting jobs, runs everything already queued, and joins the
  /// workers. Idempotent; also called by the destructor.
  void stop();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;  // jobs queued or stopping
  std::deque<Job> queue_;
  bool stopping_ = false;
  bool join_claimed_ = false;  // exactly one stop() call joins the workers
  std::vector<std::thread> workers_;  // last member: started in the ctor body
};

}  // namespace stgcheck::server
