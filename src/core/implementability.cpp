#include "core/implementability.hpp"

#include <sstream>

#include "petri/structural.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace stgcheck::core {

std::string to_string(ImplementabilityLevel level) {
  switch (level) {
    case ImplementabilityLevel::kGateImplementable:
      return "gate-implementable";
    case ImplementabilityLevel::kIoImplementable:
      return "I/O-implementable";
    case ImplementabilityLevel::kSiImplementable:
      return "SI-implementable (necessary conditions)";
    case ImplementabilityLevel::kNotImplementable:
      return "not implementable";
  }
  return "?";
}

ImplementabilityReport check_implementability(SymbolicStg& sym,
                                              const CheckOptions& options) {
  ImplementabilityReport report;
  report.engine = options.engine;
  report.ordering = options.ordering;
  const stg::Stg& stg = sym.stg();
  // Only the traversal reorders (its auto-sift); the checks never do.
  const std::size_t sift_runs_before = sym.manager().profile().sift_runs;
  Stopwatch total;
  Stopwatch phase;

  // The engine only traverses; every check after it runs on the encoding.
  // It still lives to the end of the check: freeing its relations before
  // the checks would move the session peaks (ROADMAP item 2).
  const std::unique_ptr<ImageEngine> engine =
      make_engine(options.engine, sym, options.engine_options);

  EventLog* events = options.events;
  const auto verdict = [&](const char* check, bool ok, std::string detail = {}) {
    if (events != nullptr) events->verdict(check, ok, std::move(detail));
  };
  // Phase boundaries double as trace spans: the phases are contiguous, so
  // each span runs from the previous boundary to this one on the
  // recorder's own clock.
  double trace_mark = options.trace != nullptr ? options.trace->now() : 0;
  const auto phase_done = [&](const char* name, double seconds) {
    if (events != nullptr) events->phase_done(name, seconds);
    if (options.trace != nullptr) {
      const double now = options.trace->now();
      options.trace->complete(name, "phase", trace_mark, now);
      trace_mark = now;
    }
  };

  // ---- Phase 1: traversal + consistency (+ safeness) ----------------------
  TraversalOptions traversal_options;
  traversal_options.engine = options.engine;
  traversal_options.engine_options = options.engine_options;
  traversal_options.events = events;
  traversal_options.trace = options.trace;
  report.traversal = traverse(*engine, traversal_options);
  report.safe = report.traversal.safe;
  report.consistent = report.traversal.consistent;
  report.times.traversal_consistency = phase.restart();
  report.sift_runs = sym.manager().profile().sift_runs - sift_runs_before;
  phase_done("traversal", report.times.traversal_consistency);
  verdict("safe", report.safe, report.traversal.safeness_detail);
  {
    std::string detail;
    for (const std::string& v : report.traversal.consistency_violations) {
      if (!detail.empty()) detail += "; ";
      detail += v;
    }
    verdict("consistent", report.consistent, std::move(detail));
  }

  if (!report.traversal.ok()) {
    // Unsafe or inconsistent: the encoding of further checks would be
    // meaningless; classify and stop (the paper rejects these outright).
    report.level = ImplementabilityLevel::kNotImplementable;
    report.times.total = total.seconds();
    return report;
  }
  const bdd::Bdd& reached = report.traversal.reached;

  // ---- Deadlock-freedom -----------------------------------------------------
  {
    // The verdict is the BDD test; the count is only for the report.
    const bdd::Bdd dead = deadlock_states(sym, reached);
    report.deadlock_free = dead.is_false();
    report.deadlock_states_count = sym.count_states(dead);
  }
  report.times.deadlock = phase.restart();
  phase_done("deadlock", report.times.deadlock);
  verdict("deadlock_free", report.deadlock_free,
          report.deadlock_free
              ? std::string()
              : format_count(report.deadlock_states_count) + " deadlock states");

  // ---- Phase 2: persistency (Fig. 6) --------------------------------------
  const bool skip_persistency =
      options.exploit_marked_graphs && pn::conflict_places(stg.net()).empty();
  if (!skip_persistency) {
    SymPersistencyOptions popts;
    for (const auto& [n1, n2] : options.arbitration_pairs) {
      const stg::SignalId s1 = stg.find_signal(n1);
      const stg::SignalId s2 = stg.find_signal(n2);
      if (s1 != stg::kNoSignal && s2 != stg::kNoSignal) {
        popts.arbitration_pairs.push_back({s1, s2});
      }
    }
    report.persistency_violations = signal_persistency(sym, reached, popts);
    report.transition_conflicts = transition_persistency(sym, reached);
  }
  report.signal_persistent = report.persistency_violations.empty();
  report.times.persistency = phase.restart();
  phase_done("persistency", report.times.persistency);
  {
    std::string detail;
    for (const auto& v : report.persistency_violations) {
      if (!detail.empty()) detail += "; ";
      detail += stg.signal_name(v.victim) + " disabled by " +
                stg.format_label(v.disabler);
    }
    verdict("persistent", report.signal_persistent, std::move(detail));
  }

  // ---- Phase 3: determinism + commutativity via fake conflicts ------------
  report.deterministic = determinism_violations(sym, reached).is_false();
  report.fake_freedom = check_fake_freedom(sym, reached);
  report.fake_free = report.fake_freedom.fake_free;
  report.times.commutativity = phase.restart();
  phase_done("commutativity", report.times.commutativity);
  verdict("deterministic", report.deterministic);
  {
    std::string detail;
    for (const auto& f : report.fake_freedom.offending) {
      if (!detail.empty()) detail += "; ";
      detail += stg.format_label(f.t1) + " vs " + stg.format_label(f.t2) +
                (f.symmetric_fake() ? " (symmetric)" : " (asymmetric)");
    }
    verdict("fake_free", report.fake_free, std::move(detail));
  }

  // ---- Phase 4: CSC + reducibility ----------------------------------------
  report.csc_result = check_csc(sym, reached);
  report.usc = report.csc_result.unique_state_coding;
  report.csc = report.csc_result.complete_state_coding;
  if (report.csc) {
    report.csc_reducible = true;
  } else {
    report.reducibility =
        check_csc_reducibility(sym, reached, report.csc_result);
    report.csc_reducible = report.reducibility.reducible;
  }
  report.times.csc = phase.restart();
  report.times.total = total.seconds();
  phase_done("csc", report.times.csc);
  verdict("usc", report.usc);
  {
    std::string detail;
    for (const auto& c : report.csc_result.conflicts) {
      if (!detail.empty()) detail += "; ";
      detail += stg.signal_name(c.signal);
    }
    verdict("csc", report.csc, std::move(detail));
  }
  if (!report.csc) {
    std::string detail;
    for (stg::SignalId s : report.reducibility.irreducible_signals) {
      if (!detail.empty()) detail += "; ";
      detail += stg.signal_name(s);
    }
    verdict("csc_reducible", report.csc_reducible, std::move(detail));
  }

  // ---- Verdict -------------------------------------------------------------
  const bool core_ok = report.safe && report.consistent &&
                       report.signal_persistent && report.deterministic &&
                       report.fake_free;
  if (core_ok && report.csc) {
    report.level = ImplementabilityLevel::kGateImplementable;
  } else if (core_ok && report.csc_reducible) {
    report.level = ImplementabilityLevel::kIoImplementable;
  } else if (report.safe && report.consistent && report.signal_persistent) {
    report.level = ImplementabilityLevel::kSiImplementable;
  } else {
    report.level = ImplementabilityLevel::kNotImplementable;
  }
  return report;
}

ImplementabilityReport check_implementability(const stg::Stg& stg,
                                              const CheckOptions& options) {
  const bool needs_primed = options.engine != EngineKind::kCofactor;
  auto sym = std::make_shared<SymbolicStg>(stg, options.ordering, 1 << 14,
                                           needs_primed);
  ImplementabilityReport report = check_implementability(*sym, options);
  report.encoding = std::move(sym);  // the report's Bdds point into it
  return report;
}

std::string ImplementabilityReport::summary(const stg::Stg& stg) const {
  std::ostringstream out;
  const auto yesno = [](bool b) { return b ? "yes" : "NO"; };
  out << "STG '" << stg.name() << "': " << to_string(level) << "\n";
  out << "  states:            " << format_count(traversal.stats.states)
      << " (" << format_count(traversal.stats.markings) << " markings, "
      << traversal.stats.passes << " passes, BDD peak "
      << traversal.stats.peak_reached_nodes << " / final "
      << traversal.stats.final_reached_nodes << " nodes)\n";
  out << "  config:            engine " << to_string(engine) << ", ordering "
      << to_string(ordering) << ", " << sift_runs << " sift runs\n";
  out << "  safe:              " << yesno(safe);
  if (!safe) out << "  [" << traversal.safeness_detail << "]";
  out << "\n";
  out << "  consistent:        " << yesno(consistent);
  for (const std::string& v : traversal.consistency_violations) {
    out << "  [" << v << "]";
  }
  out << "\n";
  if (safe && consistent) {
    out << "  deadlock-free:     " << yesno(deadlock_free) << "\n";
    out << "  persistent:        " << yesno(signal_persistent);
    for (const auto& v : persistency_violations) {
      out << "  [" << stg.signal_name(v.victim) << " disabled by "
          << stg.format_label(v.disabler) << "]";
    }
    out << "\n";
    out << "  deterministic:     " << yesno(deterministic) << "\n";
    out << "  fake-free:         " << yesno(fake_free);
    for (const auto& f : fake_freedom.offending) {
      out << "  [" << stg.format_label(f.t1) << " vs " << stg.format_label(f.t2)
          << (f.symmetric_fake() ? " symmetric" : " asymmetric") << "]";
    }
    out << "\n";
    out << "  USC:               " << yesno(usc) << "\n";
    out << "  CSC:               " << yesno(csc);
    for (const auto& c : csc_result.conflicts) {
      out << "  [" << stg.signal_name(c.signal) << "]";
    }
    out << "\n";
    if (!csc) {
      out << "  CSC-reducible:     " << yesno(csc_reducible);
      for (stg::SignalId s : reducibility.irreducible_signals) {
        out << "  [" << stg.signal_name(s)
            << ": mutually complementary input sequences]";
      }
      out << "\n";
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  CPU: T+C %.3fs  DL %.3fs  NI-p %.3fs  Com %.3fs  CSC %.3fs  "
                "total %.3fs",
                times.traversal_consistency, times.deadlock, times.persistency,
                times.commutativity, times.csc, times.total);
  out << buf << "\n";
  return out.str();
}

}  // namespace stgcheck::core
