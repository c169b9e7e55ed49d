// The metrics registry (util/metrics.hpp): exact counts under concurrent
// writer threads, histogram bucket-edge semantics (inclusive "le" upper
// bounds, implicit +inf), registry kind checking, the JSON and Prometheus
// renderings, and the per-session -> cumulative merge() fold. Runs under
// the unit label so TSan sees the concurrent increments.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace stgcheck::metrics {
namespace {

TEST(Counter, SingleThreadAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsMergeExactly) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10'000;
  Counter c;
  Histogram h({1.0});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.buckets()[0], kThreads * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(-1);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, InclusiveUpperBoundEdges) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == edge 0   -> bucket 0 (inclusive, Prometheus "le")
  h.observe(1.5);  // <= 2        -> bucket 1
  h.observe(2.0);  // == edge 1   -> bucket 1
  h.observe(3.0);  //  > last     -> +inf bucket
  const std::vector<std::uint64_t> buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);  // edges + implicit +inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("reused");
  EXPECT_THROW(reg.gauge("reused"), ModelError);
  EXPECT_THROW(reg.histogram("reused", {1.0}), ModelError);
  // Same kind re-registration returns the same metric.
  Counter& a = reg.counter("reused");
  Counter& b = reg.counter("reused");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, BadHistogramEdgesThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("empty", {}), ModelError);
  EXPECT_THROW(reg.histogram("unsorted", {2.0, 1.0}), ModelError);
  EXPECT_THROW(reg.histogram("dupes", {1.0, 1.0}), ModelError);
}

MetricsSnapshot populated_snapshot() {
  MetricsRegistry reg;  // not movable (mutex); snapshot carries the state out
  reg.counter("ops").add(7);
  reg.gauge("rate").set(0.25);
  Histogram& h = reg.histogram("lat", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  return reg.snapshot();
}

TEST(Snapshot, JsonRoundTrips) {
  const MetricsSnapshot snap = populated_snapshot();
  const MetricsSnapshot back = MetricsSnapshot::from_json(
      json::Value::parse(snap.to_json().dump()));
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "ops");
  EXPECT_EQ(back.counters[0].value, 7u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].value, 0.25);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].edges, (std::vector<double>{0.1, 1.0}));
  EXPECT_EQ(back.histograms[0].buckets,
            (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(back.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(back.histograms[0].sum, 0.05 + 0.5 + 5.0);
}

TEST(Snapshot, PrometheusRendering) {
  const std::string text = populated_snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE ops counter"), std::string::npos);
  EXPECT_NE(text.find("ops 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rate gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  // Cumulative buckets: le="1" covers the le="0.1" observations too.
  EXPECT_NE(text.find("lat_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3"), std::string::npos);
}

TEST(Registry, MergeFoldsCountersAndHistograms) {
  const MetricsSnapshot snap = populated_snapshot();
  MetricsRegistry cumulative;
  cumulative.merge(snap);
  cumulative.merge(snap);
  const MetricsSnapshot merged = cumulative.snapshot();
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, 14u);  // counters add
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 0.25);  // gauges take the value
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 6u);  // buckets/sums add
  EXPECT_EQ(merged.histograms[0].buckets,
            (std::vector<std::uint64_t>{2, 2, 2}));
}

TEST(Registry, MergeEdgeMismatchThrows) {
  MetricsRegistry a;
  a.histogram("lat", {0.5});
  MetricsRegistry b;
  b.histogram("lat", {0.1, 1.0});
  EXPECT_THROW(a.merge(b.snapshot()), ModelError);
}

}  // namespace
}  // namespace stgcheck::metrics
