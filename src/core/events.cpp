#include "core/events.hpp"

namespace stgcheck::core {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSessionStart: return "session_start";
    case EventKind::kPass: return "pass";
    case EventKind::kTraversalDone: return "traversal_done";
    case EventKind::kPhaseDone: return "phase_done";
    case EventKind::kVerdict: return "verdict";
    case EventKind::kSessionDone: return "session_done";
    case EventKind::kResourceExhausted: return "resource_exhausted";
    case EventKind::kCancelled: return "cancelled";
    case EventKind::kError: return "error";
  }
  return "?";
}

EventLog::EventLog(const Clock* clock, Sink sink)
    : clock_(clock != nullptr ? clock : &own_clock_), sink_(std::move(sink)) {}

void EventLog::emit(EventRecord record) {
  record.at = clock_->seconds();
  records_.push_back(std::move(record));
  if (sink_) sink_(records_.back());
}

void EventLog::session_start(
    std::string label, std::vector<std::pair<std::string, double>> metrics) {
  EventRecord r;
  r.kind = EventKind::kSessionStart;
  r.label = std::move(label);
  r.metrics = std::move(metrics);
  emit(std::move(r));
}

void EventLog::pass(std::size_t pass, std::size_t image_computations,
                    std::size_t live_nodes, std::size_t peak_live_nodes,
                    std::size_t reached_nodes, std::size_t frontier_nodes) {
  EventRecord r;
  r.kind = EventKind::kPass;
  r.metrics = {{"pass", static_cast<double>(pass)},
               {"image_computations", static_cast<double>(image_computations)},
               {"live_nodes", static_cast<double>(live_nodes)},
               {"peak_live_nodes", static_cast<double>(peak_live_nodes)},
               {"reached_nodes", static_cast<double>(reached_nodes)},
               {"frontier_nodes", static_cast<double>(frontier_nodes)}};
  emit(std::move(r));
}

void EventLog::traversal_done(
    std::vector<std::pair<std::string, double>> metrics) {
  EventRecord r;
  r.kind = EventKind::kTraversalDone;
  r.metrics = std::move(metrics);
  emit(std::move(r));
}

void EventLog::phase_done(std::string phase, double seconds) {
  EventRecord r;
  r.kind = EventKind::kPhaseDone;
  r.label = std::move(phase);
  r.metrics = {{"seconds", seconds}};
  emit(std::move(r));
}

void EventLog::verdict(std::string check, bool ok, std::string detail) {
  EventRecord r;
  r.kind = EventKind::kVerdict;
  r.label = std::move(check);
  r.has_ok = true;
  r.ok = ok;
  r.detail = std::move(detail);
  emit(std::move(r));
}

void EventLog::session_done(
    bool ok, std::string level,
    std::vector<std::pair<std::string, double>> metrics) {
  EventRecord r;
  r.kind = EventKind::kSessionDone;
  r.has_ok = true;
  r.ok = ok;
  r.detail = std::move(level);
  r.metrics = std::move(metrics);
  emit(std::move(r));
}

void EventLog::budget_trip(const BudgetTrip& trip, const std::string& message) {
  EventRecord r;
  r.kind = trip.kind == LimitKind::kCancelled ? EventKind::kCancelled
                                              : EventKind::kResourceExhausted;
  r.label = to_string(trip.kind);
  r.detail = message;
  r.metrics = {{"live_nodes", static_cast<double>(trip.live_nodes)},
               {"elapsed_seconds", trip.elapsed_seconds},
               {"steps", static_cast<double>(trip.steps)}};
  emit(std::move(r));
}

void EventLog::error(std::string what) {
  EventRecord r;
  r.kind = EventKind::kError;
  r.detail = std::move(what);
  emit(std::move(r));
}

const EventRecord* EventLog::find_verdict(std::string_view check) const {
  for (const EventRecord& r : records_) {
    if (r.kind == EventKind::kVerdict && r.label == check) return &r;
  }
  return nullptr;
}

}  // namespace stgcheck::core
