#include "server/scheduler.hpp"

#include <utility>

namespace stgcheck::server {

SessionScheduler::SessionScheduler(std::size_t threads) {
  const std::size_t n = threads < 1 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SessionScheduler::~SessionScheduler() { stop(); }

void SessionScheduler::submit(Job job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void SessionScheduler::stop() {
  bool join_here = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    join_here = !join_claimed_;
    join_claimed_ = true;
  }
  cv_.notify_all();
  if (!join_here) return;
  for (std::thread& worker : workers_) worker.join();
}

void SessionScheduler::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      // Jobs are contractually non-throwing (scheduler.hpp); swallowing
      // here keeps a violation from killing the worker.
    }
  }
}

}  // namespace stgcheck::server
