// Chrome trace_event exporter: scoped spans collected into a JSON
// document chrome://tracing (or Perfetto) loads directly.
//
// The kernel and the traversal loop open a TraceSpan around each unit of
// interesting work -- a traversal pass, an engine image call, a GC, a
// sift, a REACH rule firing -- and the recorder turns each span into one
// complete ("ph":"X") trace event: microsecond timestamp + duration,
// pid 0, tid 0 (a session runs on one thread), optional numeric args.
// The recorder serializes appends behind one mutex, which is cheap
// because a span is recorded once at close, not per sample.
//
// Cost model: a null recorder makes TraceSpan a no-op (two pointer
// checks), so tracing is pay-only-when-armed -- the kernel keeps its
// TraceRecorder* null unless a session armed `--trace`. The recorder caps
// the event list (kMaxEvents) so a runaway saturation cannot OOM the
// process through its own instrumentation; the drop count is reported in
// the document's metadata.
//
// The clock is injected (util/clock.hpp) so tests replay spans against a
// ManualClock and sessions stamp trace events from the same epoch as
// their event records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.hpp"
#include "util/json.hpp"

namespace stgcheck {

/// One recorded complete event (public for tests; to_json() is the
/// intended consumer).
struct TraceEvent {
  std::string name;
  std::string cat;
  double start_us = 0;
  double dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

class TraceRecorder {
 public:
  /// Events past this many are counted but dropped (see file comment).
  static constexpr std::size_t kMaxEvents = 1u << 20;

  /// `clock` is borrowed; null = own SteadyClock starting now.
  explicit TraceRecorder(const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : &own_clock_) {}

  double now() const { return clock_->seconds(); }

  /// Records one complete event spanning [start_s, end_s] (seconds on the
  /// recorder's clock).
  void complete(std::string name, std::string cat, double start_s,
                double end_s,
                std::vector<std::pair<std::string, double>> args = {});

  /// {"traceEvents":[...],"displayTimeUnit":"ms", dropped count if any}.
  json::Value to_json() const;
  /// to_json().dump() -- the file payload chrome://tracing loads.
  std::string dump() const;
  /// Writes dump() to `path`; throws stgcheck::Error on I/O failure.
  void write_file(const std::string& path) const;

  std::size_t event_count() const;
  std::size_t dropped_count() const;

 private:
  SteadyClock own_clock_;
  const Clock* clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
};

/// RAII span: opens at construction, records one complete event at
/// destruction. A null recorder makes every member a no-op, so call sites
/// stay unconditional.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* rec, const char* name, const char* cat)
      : rec_(rec), name_(name), cat_(cat),
        start_(rec != nullptr ? rec->now() : 0) {}
  ~TraceSpan() {
    if (rec_ != nullptr) {
      rec_->complete(name_, cat_, start_, rec_->now(), std::move(args_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument shown in the trace viewer's detail pane.
  void arg(const char* key, double value) {
    if (rec_ != nullptr) args_.emplace_back(key, value);
  }

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  double start_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace stgcheck
