#include "core/session.hpp"

#include <exception>
#include <utility>

#include "util/error.hpp"

namespace stgcheck::core {

const char* to_string(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::kCompleted: return "completed";
    case SessionOutcome::kCancelled: return "cancelled";
    case SessionOutcome::kResourceExhausted: return "resource_exhausted";
  }
  return "?";
}

CheckSession::CheckSession(stg::Stg stg, SessionOptions options,
                           const Clock* clock, EventLog::Sink sink)
    : stg_(std::move(stg)),
      options_(std::move(options)),
      events_(clock, std::move(sink)) {
  if (!options_.trace_path.empty()) {
    // Share the event log's clock so trace spans and event records agree
    // on one epoch.
    trace_ = std::make_unique<TraceRecorder>(events_.clock());
  }
}

const ImplementabilityReport& CheckSession::run() {
  if (ran_) throw ModelError("CheckSession::run called twice");
  ran_ = true;
  try {
    events_.session_start(
        stg_.name(),
        {{"places", static_cast<double>(stg_.net().place_count())},
         {"transitions", static_cast<double>(stg_.net().transition_count())},
         {"signals", static_cast<double>(stg_.signal_count())}});

    const bool needs_primed = options_.check.engine != EngineKind::kCofactor;
    sym_ = std::make_shared<SymbolicStg>(stg_, options_.check.ordering,
                                         options_.initial_nodes, needs_primed);
    sym_->manager().set_trace(trace_.get());
    sym_->manager().set_profiling(options_.profile);
    // Encoding construction churns through intermediate conjunctions the
    // check never revisits; re-arm the gauges so every peak the event
    // stream reports is a peak of the check itself. The budget is armed
    // only now, for the same reason: limits govern the check, not the
    // encoding build.
    sym_->manager().reset_peak_stats();
    if (!options_.limits.unlimited()) {
      sym_->manager().set_budget(options_.limits);
    }

    CheckOptions check_options = options_.check;
    check_options.events = &events_;
    check_options.trace = trace_.get();
    report_ = check_implementability(*sym_, check_options);
    sym_->manager().clear_budget();
    report_.encoding = sym_;  // the report's Bdd handles point into it

    events_.session_done(
        report_.level != ImplementabilityLevel::kNotImplementable,
        to_string(report_.level),
        {{"states", report_.traversal.stats.states},
         {"markings", report_.traversal.stats.markings},
         {"passes", static_cast<double>(report_.traversal.stats.passes)},
         {"peak_live_nodes",
          static_cast<double>(sym_->manager().peak_live_nodes())},
         {"seconds", report_.times.total}});
    if (trace_ != nullptr) trace_->write_file(options_.trace_path);
    return report_;
  } catch (const CancelledError& e) {
    // A governed stop, not a failure: the trip already disarmed the
    // budget and unwound between kernel operations, so the manager is
    // consistent (nodes born before the trip are garbage until the next
    // collection). Freeze the gauges, emit the typed record, and return
    // the partial report instead of rethrowing.
    sym_->manager().clear_budget();
    outcome_ = e.trip().kind == LimitKind::kCancelled
                   ? SessionOutcome::kCancelled
                   : SessionOutcome::kResourceExhausted;
    trip_ = e.trip();
    report_.encoding = sym_;
    events_.budget_trip(e.trip(), e.what());
    if (trace_ != nullptr) trace_->write_file(options_.trace_path);
    return report_;
  } catch (const std::exception& e) {
    events_.error(e.what());
    throw;
  }
}

metrics::MetricsSnapshot CheckSession::metrics_snapshot() const {
  metrics::MetricsSnapshot snap;
  if (sym_ == nullptr) return snap;
  const bdd::Manager& manager = sym_->manager();
  const auto counter = [&](std::string name, std::uint64_t v) {
    snap.counters.push_back({std::move(name), v});
  };
  const auto gauge = [&](std::string name, double v) {
    snap.gauges.push_back({std::move(name), v});
  };

  const bdd::ManagerProfile prof = manager.profile();
  for (std::size_t k = 0; k < bdd::kOpKindCount; ++k) {
    const bdd::OpProfile& op = prof.ops[k];
    const std::string suffix = bdd::to_string(static_cast<bdd::OpKind>(k));
    counter("op_calls_" + suffix, op.calls);
    counter("op_cache_lookups_" + suffix, op.cache_lookups);
    counter("op_cache_hits_" + suffix, op.cache_hits);
    gauge("op_seconds_" + suffix, op.seconds);
  }
  counter("gc_runs", prof.gc_runs);
  gauge("gc_seconds", prof.gc_seconds);
  counter("sift_runs", prof.sift_runs);
  gauge("sift_seconds", prof.sift_seconds);

  const bdd::ManagerStats stats = manager.stats();
  counter("unique_hits", stats.unique_hits);
  gauge("live_nodes", static_cast<double>(stats.live_count));
  gauge("peak_live_nodes", static_cast<double>(stats.peak_live));
  gauge("cache_hit_rate", stats.cache_hit_rate());

  if (trace_ != nullptr) {
    counter("trace_events", trace_->event_count());
    counter("trace_dropped", trace_->dropped_count());
  }
  return snap;
}

}  // namespace stgcheck::core
