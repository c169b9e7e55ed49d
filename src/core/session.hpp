// One check session: everything one implementability check needs, owned
// together, shared with nothing.
//
// The paper's tool was one-shot -- build an encoding, traverse, print,
// exit -- so PRs 1-6 could keep options, engines and gauges wherever was
// convenient. A resident server multiplexing many nets cannot: two checks
// running concurrently must not see each other's BDD manager, image
// engine, peak gauges or event log. CheckSession is that ownership
// boundary. It holds
//
//   * the parsed STG (by value -- the session outlives its source text),
//   * the SymbolicStg encoding, which owns the session's private
//     bdd::Manager (created in run(), so a queued session costs nothing
//     until a scheduler thread picks it up),
//   * the resolved SessionOptions,
//   * the EventLog (core/events.hpp) every stage reports into, stamped by
//     an injected clock and optionally streamed record-by-record.
//
// Isolation rule: a session never shares mutable state with another
// session. The manager, engines, caches and gauges are all per-session;
// the only cross-session objects are immutable (the source STG text) or
// explicitly synchronized by their owner (a streaming sink shared by a
// server connection). One thread runs one session start to finish --
// nothing here locks.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/events.hpp"
#include "core/implementability.hpp"
#include "stg/stg.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace stgcheck::core {

/// Historical name: the session consumes the unified CheckConfig
/// (core/config.hpp) directly -- check pipeline options, manager sizing
/// and the resource budget the session arms on its manager.
using SessionOptions = CheckConfig;

/// How run() ended. kCompleted is the only outcome with a full report;
/// the governed outcomes carry the BudgetTrip gauges instead (trip()).
enum class SessionOutcome {
  kCompleted,          ///< the whole pipeline ran to its verdict
  kCancelled,          ///< an explicit cancel landed mid-check
  kResourceExhausted,  ///< a resource limit tripped mid-check
};

const char* to_string(SessionOutcome outcome);

/// Owns one check end to end. Construct (cheap), then run() on whichever
/// thread the scheduler assigns; read the report and the event records
/// afterwards. Not copyable or movable: the encoding's Bdd handles point
/// into the session's manager.
class CheckSession {
 public:
  /// `clock` is borrowed and may be shared across sessions (it is only
  /// read); null means "own steady clock starting now". `sink`, when set,
  /// receives every event record at emission on the session's thread.
  explicit CheckSession(stg::Stg stg, SessionOptions options = {},
                        const Clock* clock = nullptr,
                        EventLog::Sink sink = nullptr);

  CheckSession(const CheckSession&) = delete;
  CheckSession& operator=(const CheckSession&) = delete;

  const stg::Stg& stg() const { return stg_; }
  const SessionOptions& options() const { return options_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Runs the full check pipeline: emits kSessionStart, builds the
  /// encoding (primed variables iff the selected engine needs them),
  /// re-arms the manager's peak gauges so they measure the check rather
  /// than encoding construction, arms the resource budget (if any), runs
  /// check_implementability with the session's event log wired through,
  /// and emits kSessionDone. A budget trip or cancel is a governed
  /// outcome, not a failure: run() returns normally with outcome() set,
  /// the typed record emitted, and the manager invariant-clean. On any
  /// other exception a kError record is emitted and the exception
  /// rethrown. Call at most once.
  const ImplementabilityReport& run();

  bool has_run() const { return ran_; }
  /// How run() ended; kCompleted until run() returns.
  SessionOutcome outcome() const { return outcome_; }
  /// The trip gauges when outcome() != kCompleted; nullopt otherwise.
  const std::optional<BudgetTrip>& trip() const { return trip_; }
  /// Valid after run() returned.
  const ImplementabilityReport& report() const { return report_; }
  /// Valid after run() started building the encoding; null before.
  SymbolicStg* encoding() { return sym_.get(); }

  /// The session's trace recorder; non-null iff options.trace_path is set.
  /// run() writes its document to trace_path before returning (completed
  /// and governed outcomes alike).
  TraceRecorder* trace() { return trace_.get(); }

  /// Post-run observability fold: the manager's per-op profile and cache
  /// counters and GC/sift phase gauges as one flat metrics snapshot
  /// (util/metrics.hpp). Counter names are `op_calls_<kind>` /
  /// `op_cache_lookups_<kind>` / `op_cache_hits_<kind>` per OpKind plus
  /// gc/sift counters; wall-clock gauges are present
  /// but zero unless options.profile armed the kernel clock. Empty before
  /// run() built the encoding.
  metrics::MetricsSnapshot metrics_snapshot() const;

 private:
  stg::Stg stg_;
  SessionOptions options_;
  EventLog events_;
  std::unique_ptr<TraceRecorder> trace_;
  std::shared_ptr<SymbolicStg> sym_;
  ImplementabilityReport report_;
  SessionOutcome outcome_ = SessionOutcome::kCompleted;
  std::optional<BudgetTrip> trip_;
  bool ran_ = false;
};

}  // namespace stgcheck::core
