// A lock-light metrics registry: named counters, gauges and histograms
// the session layer and the daemon populate and scrape. Every metric is
// one cell of relaxed atomics updated with fetch_add, so concurrent
// writers (the daemon's scheduler and connection threads) never lose an
// update; a concurrent read may miss in-flight updates but never tears.
//
//   * Counter   -- monotone u64.
//   * Gauge     -- a single atomic double, last-write-wins (set/add).
//   * Histogram -- fixed bucket upper bounds chosen at registration
//     (inclusive, Prometheus "le" semantics, implicit +inf last), one
//     count per bucket plus a total count and sum, so snapshots carry
//     count/sum/mean.
//   * ScopedTimer -- RAII: measures its own lifetime on a Stopwatch and,
//     at destruction, observes the elapsed seconds into a Histogram
//     and/or adds elapsed nanoseconds to a Counter.
//
// Registration (name -> metric) takes the registry mutex once; the
// returned references stay valid for the registry's lifetime (deque
// storage), so hot paths hold a pointer and never lock. snapshot()
// produces a plain-data MetricsSnapshot with JSON and Prometheus text
// renderings -- the daemon's "metrics" op ships the JSON, the client
// renders the text. merge() folds a snapshot back into a registry, which
// is how the server accumulates per-session snapshots into its
// per-server cumulative view.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace stgcheck::metrics {

/// Monotone counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram; bucket i counts observations v <= edge[i]
/// (inclusive upper bounds, Prometheus "le"), with an implicit +inf
/// bucket after the last edge.
class Histogram {
 public:
  /// `edges` must be strictly increasing (checked by the registry).
  explicit Histogram(std::vector<double> edges);

  void observe(double v);
  /// Adds a pre-aggregated sample (a snapshot of another histogram with
  /// identical edges); the registry's merge() path.
  void merge_sample(const std::vector<std::uint64_t>& buckets,
                    std::uint64_t count, double sum);
  /// Bucket counts, edges.size() + 1 entries (last = +inf bucket).
  std::vector<std::uint64_t> buckets() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& edges() const { return edges_; }

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // edges_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Plain-data snapshot of a registry; the wire/report form.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;  // edges.size() + 1 (last = +inf)
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<CounterSample> counters;  // registration order
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// {"counters":{name:value,...},"gauges":{...},
  ///  "histograms":{name:{"edges":[...],"buckets":[...],"count":n,"sum":s}}}
  json::Value to_json() const;
  /// Inverse of to_json(); throws ModelError on a malformed document.
  static MetricsSnapshot from_json(const json::Value& obj);
  /// Prometheus text exposition: one "# TYPE" line per metric, histogram
  /// buckets as name_bucket{le="..."} cumulative counts.
  std::string to_prometheus() const;
};

/// Name -> metric table. Registration locks; the returned references are
/// stable (deque storage) so readers and writers never lock again.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use. Throws
  /// ModelError if `name` is already a metric of another kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creating call fixes the bucket edges (strictly increasing, nonempty,
  /// or ModelError); later calls ignore `edges` and return the existing
  /// histogram.
  Histogram& histogram(const std::string& name, std::vector<double> edges);

  /// Point-in-time view, each kind in registration order.
  MetricsSnapshot snapshot() const;

  /// Folds `snap` in: counters and histogram buckets/sums add, gauges take
  /// the snapshot's value. Metrics absent here are created (histograms
  /// with the snapshot's edges); a kind or edge mismatch throws
  /// ModelError. This is the server's per-session -> cumulative fold.
  void merge(const MetricsSnapshot& snap);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  Entry& entry_locked(const std::string& name, Kind kind,
                      std::vector<double>* edges);

  mutable std::mutex mu_;
  std::deque<Counter> counters_;  // deque: stable addresses across growth
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;  // registration order, linear lookup
};

/// RAII timer: at destruction observes elapsed seconds into `seconds`
/// (when set) and adds elapsed nanoseconds to `nanos` (when set).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* seconds, Counter* nanos = nullptr)
      : seconds_(seconds), nanos_(nanos) {}
  ~ScopedTimer() {
    const double s = watch_.seconds();
    if (seconds_ != nullptr) seconds_->observe(s);
    if (nanos_ != nullptr) nanos_->add(static_cast<std::uint64_t>(s * 1e9));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* seconds_;
  Counter* nanos_;
  Stopwatch watch_;
};

}  // namespace stgcheck::metrics
