// Concurrent-session stress: many CheckSessions racing on separate threads
// produce bit-identical results to one-at-a-time serial runs. This is the
// isolation guarantee the daemon rests on -- no mutable state is shared
// between sessions -- exercised both with raw threads and through the
// server's SessionScheduler, whose work-queue contract (no head-of-line
// blocking, FIFO order, stop() finishes the queue) is pinned here too.
// Runs under TSan in CI (unit label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "example_nets.hpp"
#include "server/scheduler.hpp"

namespace stgcheck::core {
namespace {

/// Everything we compare bit-for-bit between a serial and a racing run.
struct Fingerprint {
  std::string level;
  bool ok = false;
  std::size_t states = 0;
  std::size_t markings = 0;
  std::size_t passes = 0;
  std::size_t image_computations = 0;
  std::size_t final_reached_nodes = 0;
  std::size_t pass_records = 0;
  std::size_t record_count = 0;

  bool operator==(const Fingerprint& o) const {
    return level == o.level && ok == o.ok && states == o.states &&
           markings == o.markings && passes == o.passes &&
           image_computations == o.image_computations &&
           final_reached_nodes == o.final_reached_nodes &&
           pass_records == o.pass_records && record_count == o.record_count;
  }
};

Fingerprint run_one(int net_index) {
  CheckSession session(testutil::example_net(net_index));
  const ImplementabilityReport& report = session.run();
  Fingerprint fp;
  fp.level = to_string(report.level);
  fp.ok = report.level != ImplementabilityLevel::kNotImplementable;
  fp.states = report.traversal.stats.states;
  fp.markings = report.traversal.stats.markings;
  fp.passes = report.traversal.stats.passes;
  fp.image_computations = report.traversal.stats.image_computations;
  fp.final_reached_nodes = report.traversal.stats.final_reached_nodes;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kPass) ++fp.pass_records;
  }
  fp.record_count = session.events().records().size();
  return fp;
}

std::vector<Fingerprint> serial_baseline() {
  std::vector<Fingerprint> out(testutil::kExampleNetCount);
  for (int i = 0; i < testutil::kExampleNetCount; ++i) out[i] = run_one(i);
  return out;
}

void expect_identical(const std::vector<Fingerprint>& racing,
                      const std::vector<Fingerprint>& serial) {
  ASSERT_EQ(racing.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(racing[i] == serial[i])
        << "net " << i << ": " << racing[i].level << "/" << racing[i].states
        << " states vs serial " << serial[i].level << "/" << serial[i].states;
  }
}

TEST(SessionStress, RacingThreadsMatchSerialBitForBit) {
  const std::vector<Fingerprint> serial = serial_baseline();

  constexpr std::size_t kThreads = 4;
  std::vector<Fingerprint> racing(serial.size());
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= testutil::kExampleNetCount) return;
        racing[static_cast<std::size_t>(i)] = run_one(i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  expect_identical(racing, serial);
}

TEST(SessionStress, WorkQueueMatchesSerialBitForBit) {
  const std::vector<Fingerprint> serial = serial_baseline();

  // The daemon's path: sessions as fire-and-forget jobs on the work
  // queue, submitted from outside while workers run.
  server::SessionScheduler scheduler(4);
  std::vector<Fingerprint> racing(serial.size());
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    scheduler.submit(
        [&racing, i] { racing[static_cast<std::size_t>(i)] = run_one(i); });
  }
  scheduler.stop();

  expect_identical(racing, serial);
}

TEST(SessionStress, SingleWorkerQueueRunsEveryJob) {
  server::SessionScheduler scheduler(1);
  EXPECT_EQ(scheduler.thread_count(), 1u);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    scheduler.submit([&done] { done.fetch_add(1); });
  }
  scheduler.stop();
  EXPECT_EQ(done.load(), 3);
  scheduler.stop();  // idempotent
  scheduler.submit([&done] { done.fetch_add(1); });  // dropped after stop
  EXPECT_EQ(done.load(), 3);
}

TEST(SessionStress, FreeWorkerRunsJobQueuedBehindABlockedOne) {
  // Head-of-line regression: with two workers, a job submitted while
  // another job is blocked must run on the free worker at once, not wait
  // for the blocked job to finish.
  server::SessionScheduler scheduler(2);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> a_gate = release_a.get_future().share();
  std::promise<void> b_done;
  std::atomic<bool> a_finished{false};

  scheduler.submit([&, a_gate] {
    a_started.set_value();
    a_gate.wait();
    a_finished.store(true);
  });
  a_started.get_future().wait();
  scheduler.submit([&b_done] { b_done.set_value(); });

  // Bounded: a scheduler that holds B behind A fails here instead of
  // hanging, because A is released below either way.
  const bool b_ran = b_done.get_future().wait_for(std::chrono::seconds(10)) ==
                     std::future_status::ready;
  EXPECT_TRUE(b_ran) << "job B waited behind the blocked job A";
  EXPECT_FALSE(a_finished.load());
  release_a.set_value();
  scheduler.stop();
  EXPECT_TRUE(a_finished.load());
}

TEST(SessionStress, SingleWorkerRunsJobsInSubmissionOrder) {
  server::SessionScheduler scheduler(1);
  std::vector<int> order;  // touched by the one worker only until stop()
  constexpr int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) {
    scheduler.submit([&order, i] { order.push_back(i); });
  }
  scheduler.stop();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i);
}

TEST(SessionStress, StopRunsEveryQueuedJob) {
  // Both workers start on a slow job, so the rest are still queued when
  // stop() is called; stop() must run them all before it returns.
  server::SessionScheduler scheduler(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 2; ++i) {
    scheduler.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      done.fetch_add(1);
    });
  }
  constexpr int kQueued = 100;
  for (int i = 0; i < kQueued; ++i) {
    scheduler.submit([&done] { done.fetch_add(1); });
  }
  scheduler.stop();
  EXPECT_EQ(done.load(), 2 + kQueued);
}

TEST(SessionStress, RepeatedSessionsOnOneNetAreDeterministic) {
  // Same net, many concurrent sessions: every run must agree with itself.
  const Fingerprint one = run_one(16);  // vme_read: CSC conflicts
  constexpr std::size_t kRuns = 6;
  std::vector<Fingerprint> runs(kRuns);
  std::vector<std::thread> workers;
  workers.reserve(kRuns);
  for (std::size_t r = 0; r < kRuns; ++r) {
    workers.emplace_back([&runs, r] { runs[r] = run_one(16); });
  }
  for (std::thread& w : workers) w.join();
  for (const Fingerprint& fp : runs) EXPECT_TRUE(fp == one);
}

}  // namespace
}  // namespace stgcheck::core
