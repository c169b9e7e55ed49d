#include "util/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace stgcheck::metrics {

// ---------------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), buckets_(edges_.size() + 1) {}

void Histogram::observe(double v) {
  // First edge >= v (inclusive upper bounds); past-the-end = +inf bucket.
  const std::size_t b = static_cast<std::size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), v) - edges_.begin());
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::merge_sample(const std::vector<std::uint64_t>& buckets,
                             std::uint64_t count, double sum) {
  const std::size_t n = std::min(buckets.size(), buckets_.size());
  for (std::size_t b = 0; b < n; ++b) {
    buckets_[b].fetch_add(buckets[b], std::memory_order_relaxed);
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const std::atomic<std::uint64_t>& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::entry_locked(
    const std::string& name, Kind kind, std::vector<double>* edges) {
  for (Entry& e : entries_) {
    if (e.name != name) continue;
    if (e.kind != kind) {
      throw ModelError("metric '" + name + "' already registered as another kind");
    }
    return e;
  }
  Entry e;
  e.name = name;
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      e.counter = &counters_.emplace_back();
      break;
    case Kind::kGauge:
      e.gauge = &gauges_.emplace_back();
      break;
    case Kind::kHistogram: {
      if (edges == nullptr || edges->empty()) {
        throw ModelError("histogram '" + name + "' needs bucket edges");
      }
      for (std::size_t i = 1; i < edges->size(); ++i) {
        if (!((*edges)[i - 1] < (*edges)[i])) {
          throw ModelError("histogram '" + name +
                           "' edges must be strictly increasing");
        }
      }
      e.histogram = &histograms_.emplace_back(std::move(*edges));
      break;
    }
  }
  entries_.push_back(std::move(e));
  return entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry_locked(name, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry_locked(name, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mu_);
  return *entry_locked(name, Kind::kHistogram, &edges).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.push_back({e.name, e.counter->value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({e.name, e.gauge->value()});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back({e.name, e.histogram->edges(),
                                   e.histogram->buckets(),
                                   e.histogram->count(), e.histogram->sum()});
        break;
    }
  }
  return snap;
}

void MetricsRegistry::merge(const MetricsSnapshot& snap) {
  for (const MetricsSnapshot::CounterSample& c : snap.counters) {
    counter(c.name).add(c.value);
  }
  for (const MetricsSnapshot::GaugeSample& g : snap.gauges) {
    gauge(g.name).set(g.value);
  }
  for (const MetricsSnapshot::HistogramSample& h : snap.histograms) {
    Histogram& dst = histogram(h.name, std::vector<double>(h.edges));
    if (dst.edges() != h.edges) {
      throw ModelError("histogram '" + h.name +
                       "' merge with different bucket edges");
    }
    dst.merge_sample(h.buckets, h.count, h.sum);
  }
}

// ---------------------------------------------------------------------------
// Snapshot renderings
// ---------------------------------------------------------------------------

json::Value MetricsSnapshot::to_json() const {
  json::Value counters_obj = json::Value::object();
  for (const CounterSample& c : counters) {
    counters_obj.set(c.name, json::Value(static_cast<double>(c.value)));
  }
  json::Value gauges_obj = json::Value::object();
  for (const GaugeSample& g : gauges) gauges_obj.set(g.name, json::Value(g.value));
  json::Value hists_obj = json::Value::object();
  for (const HistogramSample& h : histograms) {
    json::Value edges = json::Value::array();
    for (double e : h.edges) edges.push_back(json::Value(e));
    json::Value buckets = json::Value::array();
    for (std::uint64_t b : h.buckets) {
      buckets.push_back(json::Value(static_cast<double>(b)));
    }
    json::Value hist = json::Value::object();
    hist.set("edges", std::move(edges));
    hist.set("buckets", std::move(buckets));
    hist.set("count", json::Value(static_cast<double>(h.count)));
    hist.set("sum", json::Value(h.sum));
    hists_obj.set(h.name, std::move(hist));
  }
  json::Value doc = json::Value::object();
  doc.set("counters", std::move(counters_obj));
  doc.set("gauges", std::move(gauges_obj));
  doc.set("histograms", std::move(hists_obj));
  return doc;
}

MetricsSnapshot MetricsSnapshot::from_json(const json::Value& obj) {
  MetricsSnapshot snap;
  if (const json::Value* counters = obj.find("counters")) {
    for (const auto& [name, v] : counters->as_object()) {
      snap.counters.push_back(
          {name, static_cast<std::uint64_t>(v.as_number())});
    }
  }
  if (const json::Value* gauges = obj.find("gauges")) {
    for (const auto& [name, v] : gauges->as_object()) {
      snap.gauges.push_back({name, v.as_number()});
    }
  }
  if (const json::Value* hists = obj.find("histograms")) {
    for (const auto& [name, v] : hists->as_object()) {
      HistogramSample h;
      h.name = name;
      for (const json::Value& e : v.at("edges").as_array()) {
        h.edges.push_back(e.as_number());
      }
      for (const json::Value& b : v.at("buckets").as_array()) {
        h.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
      }
      h.count = static_cast<std::uint64_t>(v.at("count").as_number());
      h.sum = v.at("sum").as_number();
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
/// names already fit; this guards merged snapshots from the wire.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');  // char overload: gcc 12 -Wrestrict FP on the C-string one
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    // Shortest representation that round-trips: bucket edges like 0.1
    // must render as "0.1", not "0.10000000000000001" -- the "le" label
    // is schema (scrapers match it textually across snapshots).
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const CounterSample& c : counters) {
    const std::string name = prom_name(c.name);
    out += "# TYPE " + name + " counter\n" + name + " ";
    append_number(out, static_cast<double>(c.value));
    out += "\n";
  }
  for (const GaugeSample& g : gauges) {
    const std::string name = prom_name(g.name);
    out += "# TYPE " + name + " gauge\n" + name + " ";
    append_number(out, g.value);
    out += "\n";
  }
  for (const HistogramSample& h : histograms) {
    const std::string name = prom_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += name + "_bucket{le=\"";
      if (b < h.edges.size()) {
        append_number(out, h.edges[b]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_number(out, static_cast<double>(cumulative));
      out += "\n";
    }
    out += name + "_sum ";
    append_number(out, h.sum);
    out += "\n" + name + "_count ";
    append_number(out, static_cast<double>(h.count));
    out += "\n";
  }
  return out;
}

}  // namespace stgcheck::metrics
