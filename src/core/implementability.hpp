// The top-level checker: runs the full property suite of the paper on one
// STG and reports which implementability class of Def. 2.6 it belongs to,
// with per-phase timings matching the columns of Table 1.
//
//   T+C   traversal + consistency (+ safeness, + lazy value binding)
//   DL    deadlock-freedom (not a Table 1 column; timed apart so NI-p
//         is Fig. 6 alone)
//   NI-p  non-input signal persistency + transition persistency (Fig. 6)
//   Com   commutativity via the fake-conflict analysis (Secs. 3.5, 5.4)
//   CSC   ER/QR-based CSC + USC + CSC-reducibility (Sec. 5.3)
//
// Verdict hierarchy (Def. 2.6, Props. 3.1/3.2):
//   gate-implementable  <= safe, consistent, persistent, deterministic,
//                          fake-free and CSC;
//   I/O-implementable   <= same but CSC replaced by CSC-reducible;
//   SI-implementable    <= necessary conditions only: safe (bounded),
//                          consistent, persistent;
//   not implementable   otherwise.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checks.hpp"
#include "core/encoding.hpp"
#include "core/traversal.hpp"

namespace stgcheck::core {

/// The implementability hierarchy of Def. 2.6 (descending).
enum class ImplementabilityLevel {
  kGateImplementable,  ///< a strongly equivalent circuit exists (CSC holds)
  kIoImplementable,    ///< an I/O equivalent circuit exists (CSC-reducible)
  kSiImplementable,    ///< necessary conditions for trace equivalence hold
  kNotImplementable,
};

std::string to_string(ImplementabilityLevel level);

struct CheckOptions {
  Ordering ordering = Ordering::kInterleaved;
  /// Read by nothing; ROADMAP item 1's benchmark batch deletes it.
  TraversalStrategy strategy = TraversalStrategy::kChaining;
  /// Image backend for the traversal (core/image_engine.hpp). Saturation
  /// by default: it reports what the other engines report, and a whole
  /// check under it is within 2x of the fastest engine on every roster
  /// family (BENCH_check.json). kCofactor selects the
  /// paper's method (Fig. 5 chaining over the cofactor image), which
  /// bench_table1 pins. The relational backends, the default among them,
  /// need an encoding with primed variables: the convenience overload
  /// and CheckSession build one, and the SymbolicStg& overload throws
  /// ModelError on an encoding without them.
  EngineKind engine = EngineKind::kSaturation;
  EngineOptions engine_options;
  /// Arbitration points by signal name (e.g. {"g1","g2"} for an ME
  /// element); resolved against the STG before the check starts
  /// (resolve_arbitration_pairs), so a name the net lacks fails it.
  std::vector<std::pair<std::string, std::string>> arbitration_pairs;
  /// Skip the persistency pass when the net is structurally conflict-free
  /// (marked graphs are persistent by construction; the paper notes the
  /// check time is then negligible).
  bool exploit_marked_graphs = true;
  /// When set, the checker emits typed records as it runs: traversal pass
  /// gauges, one kPhaseDone per phase (the Table 1 columns plus deadlock),
  /// and one kVerdict per individual check (core/events.hpp). Not owned;
  /// null disables emission.
  EventLog* events = nullptr;
  /// When set, the checker records one trace span per phase and
  /// hands the recorder to the traversal (util/trace.hpp). Not owned.
  TraceRecorder* trace = nullptr;
};

/// The lists of individual violations a report carries. The verdict
/// events, ImplementabilityReport::summary() and the JSON report
/// (server::report_to_json) all render a list from
/// ImplementabilityReport::violation_list, so the three agree entry for
/// entry.
enum class ViolationList {
  kConsistency,     ///< "a+ enabled while a = 1"
  kPersistency,     ///< "victim disabled by disabler-label"
  kFakeConflicts,   ///< "t1 vs t2 (symmetric|asymmetric)"
  kCscConflicts,    ///< signal names
  kIrreducible,     ///< signal names
  kUnboundSignals,  ///< signal names
};

/// Every list, in the order the JSON report writes them.
inline constexpr ViolationList kViolationLists[] = {
    ViolationList::kConsistency,   ViolationList::kPersistency,
    ViolationList::kFakeConflicts, ViolationList::kCscConflicts,
    ViolationList::kIrreducible,   ViolationList::kUnboundSignals,
};

/// The list's key in the JSON report's "violations" object.
const char* to_string(ViolationList list);

struct PhaseTimes {
  double traversal_consistency = 0;  ///< "T+C" of Table 1
  double deadlock = 0;               ///< deadlock-freedom (no Table 1 column)
  double persistency = 0;            ///< "NI-p" (Fig. 6 only)
  double commutativity = 0;          ///< "Com" (fake conflicts)
  double csc = 0;                    ///< "CSC" (incl. reducibility)
  double total = 0;
};

struct ImplementabilityReport {
  /// Keeps the BDD manager alive for the Bdd handles below when the
  /// convenience overload built the encoding internally. Declared first so
  /// it is destroyed after every handle member.
  std::shared_ptr<SymbolicStg> encoding;

  ImplementabilityLevel level = ImplementabilityLevel::kNotImplementable;

  // Individual verdicts.
  bool safe = false;
  bool consistent = false;
  bool signal_persistent = false;
  bool deterministic = false;
  bool fake_free = false;
  bool usc = false;
  bool csc = false;
  bool csc_reducible = false;
  bool deadlock_free = false;

  // Details.
  TraversalResult traversal;
  std::vector<SymPersistencyViolation> persistency_violations;
  std::vector<SymTransitionPersistencyViolation> transition_conflicts;
  SymCscResult csc_result;
  SymReducibilityResult reducibility;
  SymFakeFreedomResult fake_freedom;
  double deadlock_states_count = 0;

  // Effective configuration: what ran, as the report's own record.
  EngineKind engine = EngineKind::kSaturation;
  Ordering ordering = Ordering::kInterleaved;
  std::size_t sift_runs = 0;  ///< variable reorders run during the check

  PhaseTimes times;

  /// One display string per entry of `list`, in report order.
  std::vector<std::string> violation_list(const stg::Stg& stg,
                                          ViolationList list) const;

  /// Multi-line human-readable summary.
  std::string summary(const stg::Stg& stg) const;
};

/// `pairs` (CheckOptions::arbitration_pairs) as signal ids of `stg`.
/// Throws ModelError naming the signal and the net for a name `stg`
/// lacks.
std::vector<std::pair<stg::SignalId, stg::SignalId>> resolve_arbitration_pairs(
    const stg::Stg& stg,
    const std::vector<std::pair<std::string, std::string>>& pairs);

/// Runs the complete pipeline on `sym`'s STG.
ImplementabilityReport check_implementability(SymbolicStg& sym,
                                              const CheckOptions& options = {});

/// Convenience: builds the encoding internally, with primed variables
/// unless options.engine is kCofactor.
ImplementabilityReport check_implementability(const stg::Stg& stg,
                                              const CheckOptions& options = {});

}  // namespace stgcheck::core
