#include "server/protocol.hpp"

#include <cmath>
#include <utility>

#include "core/config.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace stgcheck::server {

using core::EventRecord;
using core::ImplementabilityReport;
using json::Value;

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ProtocolError(ErrorCode::kBadRequest, what);
}

std::string string_member(const Value& obj, std::string_view key,
                          bool required) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad("missing required member '" + std::string(key) + "'");
    return {};
  }
  return v->as_string();
}

CheckRequest parse_check_entry(const Value& obj,
                               const core::SessionOptions& defaults) {
  CheckRequest check;
  check.id = string_member(obj, "id", false);
  check.net_text = string_member(obj, "net", true);
  const Value* options = obj.find("options");
  check.options =
      options != nullptr ? parse_session_options(*options) : defaults;
  return check;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kBadNet: return "bad_net";
    case ErrorCode::kDuplicateSession: return "duplicate_session";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kSessionFinished: return "session_finished";
    case ErrorCode::kSessionFailed: return "session_failed";
  }
  return "?";
}

std::optional<ErrorCode> parse_error_code(std::string_view name) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnsupportedVersion,
        ErrorCode::kBadNet, ErrorCode::kDuplicateSession,
        ErrorCode::kUnknownSession, ErrorCode::kSessionFinished,
        ErrorCode::kSessionFailed}) {
    if (names_equal_dashed(name, to_string(code))) return code;
  }
  return std::nullopt;
}

core::SessionOptions parse_session_options(const json::Value& obj) {
  return core::CheckConfig::from_json(obj);
}

Request parse_request(const std::string& line) {
  const Value doc = Value::parse(line);
  if (const Value* version = doc.find("version")) {
    const double v = version->as_number();
    if (v < 1 || v != std::floor(v)) bad("version must be a positive integer");
    if (v > kProtocolVersion) {
      throw ProtocolError(
          ErrorCode::kUnsupportedVersion,
          "request version " + std::to_string(static_cast<int>(v)) +
              " is newer than this server's version " +
              std::to_string(kProtocolVersion));
    }
  }
  const std::string op = doc.at("op").as_string();
  Request request;
  if (op == "ping") {
    request.op = Request::Op::kPing;
  } else if (op == "status") {
    request.op = Request::Op::kStatus;
    request.session_id = string_member(doc, "session", false);
  } else if (op == "cancel") {
    request.op = Request::Op::kCancel;
    request.session_id = string_member(doc, "session", true);
  } else if (op == "shutdown") {
    request.op = Request::Op::kShutdown;
  } else if (op == "metrics") {
    request.op = Request::Op::kMetrics;
    request.session_id = string_member(doc, "session", false);
  } else if (op == "check") {
    request.op = Request::Op::kCheck;
    request.checks.push_back(parse_check_entry(doc, core::SessionOptions{}));
  } else if (op == "batch") {
    request.op = Request::Op::kBatch;
    request.batch_id = string_member(doc, "id", false);
    const Value* options = doc.find("options");
    const core::SessionOptions defaults = options != nullptr
                                              ? parse_session_options(*options)
                                              : core::SessionOptions{};
    const Value* nets = doc.find("nets");
    if (nets == nullptr) bad("batch needs a 'nets' array");
    for (const Value& entry : nets->as_array()) {
      request.checks.push_back(parse_check_entry(entry, defaults));
    }
  } else {
    bad("unknown op '" + op + "'");
  }
  return request;
}

json::Value event_to_json(const EventRecord& record) {
  Value obj = Value::object();
  obj.set("event", Value(std::string(core::to_string(record.kind))));
  obj.set("at", Value(record.at));
  if (!record.label.empty()) obj.set("label", Value(record.label));
  if (record.has_ok) obj.set("ok", Value(record.ok));
  if (!record.detail.empty()) obj.set("detail", Value(record.detail));
  if (!record.metrics.empty()) {
    Value metrics = Value::object();
    for (const auto& [name, value] : record.metrics) {
      metrics.set(name, Value(value));
    }
    obj.set("metrics", std::move(metrics));
  }
  return obj;
}

std::string event_line(const std::string& session_id,
                       const EventRecord& record) {
  Value obj = Value::object();
  obj.set("session", Value(session_id));
  Value event = event_to_json(record);  // named: the loop borrows its members
  for (auto& [key, value] : event.as_object()) {
    obj.set(key, std::move(value));
  }
  return obj.dump();
}

json::Value report_to_json(const stg::Stg& stg,
                           const ImplementabilityReport& report) {
  Value obj = Value::object();
  obj.set("name", Value(stg.name()));
  obj.set("level", Value(core::to_string(report.level)));

  Value config = Value::object();
  config.set("engine", Value(std::string(core::to_string(report.engine))));
  config.set("ordering", Value(std::string(core::to_string(report.ordering))));
  config.set("sift_runs", Value(report.sift_runs));
  obj.set("config", std::move(config));

  Value verdicts = Value::object();
  verdicts.set("safe", Value(report.safe));
  verdicts.set("consistent", Value(report.consistent));
  verdicts.set("deadlock_free", Value(report.deadlock_free));
  verdicts.set("persistent", Value(report.signal_persistent));
  verdicts.set("deterministic", Value(report.deterministic));
  verdicts.set("fake_free", Value(report.fake_free));
  verdicts.set("usc", Value(report.usc));
  verdicts.set("csc", Value(report.csc));
  verdicts.set("csc_reducible", Value(report.csc_reducible));
  obj.set("verdicts", std::move(verdicts));

  const core::TraversalStats& stats = report.traversal.stats;
  Value traversal = Value::object();
  traversal.set("states", Value(stats.states));
  traversal.set("markings", Value(stats.markings));
  traversal.set("passes", Value(stats.passes));
  traversal.set("image_computations", Value(stats.image_computations));
  traversal.set("peak_reached_nodes", Value(stats.peak_reached_nodes));
  traversal.set("final_reached_nodes", Value(stats.final_reached_nodes));
  obj.set("traversal", std::move(traversal));

  obj.set("deadlock_states", Value(report.deadlock_states_count));

  Value violations = Value::object();
  if (!report.traversal.safeness_detail.empty()) {
    violations.set("safeness", Value(report.traversal.safeness_detail));
  }
  for (const core::ViolationList kind : core::kViolationLists) {
    const std::vector<std::string> entries = report.violation_list(stg, kind);
    if (entries.empty()) continue;
    Value list = Value::array();
    for (const std::string& v : entries) list.push_back(Value(v));
    violations.set(core::to_string(kind), std::move(list));
  }
  obj.set("violations", std::move(violations));

  Value times = Value::object();
  times.set("traversal_consistency", Value(report.times.traversal_consistency));
  times.set("deadlock", Value(report.times.deadlock));
  times.set("persistency", Value(report.times.persistency));
  times.set("commutativity", Value(report.times.commutativity));
  times.set("csc", Value(report.times.csc));
  times.set("total", Value(report.times.total));
  obj.set("times", std::move(times));

  return obj;
}

json::Value trip_to_json(const BudgetTrip& trip) {
  Value obj = Value::object();
  obj.set("limit", Value(std::string(to_string(trip.kind))));
  obj.set("live_nodes", Value(trip.live_nodes));
  obj.set("elapsed_seconds", Value(trip.elapsed_seconds));
  obj.set("steps", Value(trip.steps));
  return obj;
}

std::string error_line(ErrorCode code, const std::string& message,
                       const std::string& session_id) {
  Value obj = Value::object();
  obj.set("reply", Value(std::string("error")));
  obj.set("code", Value(std::string(to_string(code))));
  if (!session_id.empty()) obj.set("session", Value(session_id));
  obj.set("message", Value(message));
  return obj.dump();
}

}  // namespace stgcheck::server
