#include "util/trace.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace stgcheck {

void TraceRecorder::complete(std::string name, std::string cat,
                             double start_s, double end_s,
                             std::vector<std::pair<std::string, double>> args) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.start_us = start_s * 1e6;
  ev.dur_us = (end_s - start_s) * 1e6;
  ev.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

json::Value TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value events = json::Value::array();
  for (const TraceEvent& ev : events_) {
    json::Value e = json::Value::object();
    e.set("name", json::Value(ev.name));
    e.set("cat", json::Value(ev.cat));
    e.set("ph", json::Value("X"));
    e.set("ts", json::Value(ev.start_us));
    e.set("dur", json::Value(ev.dur_us));
    e.set("pid", json::Value(0));
    e.set("tid", json::Value(0));
    if (!ev.args.empty()) {
      json::Value args = json::Value::object();
      for (const auto& [key, value] : ev.args) args.set(key, json::Value(value));
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value("ms"));
  if (dropped_ > 0) {
    doc.set("droppedEvents", json::Value(static_cast<double>(dropped_)));
  }
  return doc;
}

std::string TraceRecorder::dump() const { return to_json().dump(); }

void TraceRecorder::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot write trace file " + path);
  const std::string payload = dump();
  const bool ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
                      payload.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) throw Error("short write to trace file " + path);
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceRecorder::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace stgcheck
