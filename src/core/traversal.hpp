// Symbolic reachability traversal (Fig. 5 of the paper): passes over the
// engine's firing units, where each unit fires from the pass's frontier
// plus every state found earlier in the same pass (chaining), until a
// pass finds nothing new. Two companion checks run on the fly:
//
//   * consistency of the state assignment (Sec. 5.1): a state reached with
//     a+ enabled while a = 1 (or a- while a = 0) is inconsistent;
//   * safeness: firing into a marked place would break the one-variable-
//     per-place encoding, so it is detected and reported, not silently
//     mis-encoded;
//
// plus the lazy binding of unknown initial signal values (Sec. 5.1): a
// signal is left unconstrained until the first wave in which one of its
// transitions becomes enabled, at which point every state collected so far
// is bound to the implied value.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding.hpp"
#include "core/events.hpp"
#include "core/image_engine.hpp"
#include "util/stopwatch.hpp"

namespace stgcheck {
class TraceRecorder;
}

namespace stgcheck::core {

/// The traversal's firing rule. Fig. 5 chaining is the only one: within
/// one pass, later transitions fire from states found earlier in the same
/// pass. Nothing reads the value; the enum stays only so the CLI flag and
/// wire key keep parsing until ROADMAP item 1's benchmark batch deletes it.
enum class TraversalStrategy {
  kChaining,
};

const char* to_string(TraversalStrategy strategy);
/// Parses a strategy name as printed by to_string ('-'/'_' interchangeable);
/// nullopt for unknown names. Shared by stg_check and the server protocol.
std::optional<TraversalStrategy> parse_traversal_strategy(std::string_view name);
/// Every valid strategy name, comma-separated -- for CLI/protocol errors.
std::string valid_traversal_strategy_names();

struct TraversalOptions {
  /// Read by nothing; ROADMAP item 1's benchmark batch deletes it.
  TraversalStrategy strategy = TraversalStrategy::kChaining;
  /// Which image backend computes the successor sets (core/image_engine.hpp).
  /// The relational backends require an encoding built with primed
  /// variables. Only used by the traverse(SymbolicStg&, ...) overload; the
  /// traverse(ImageEngine&, ...) overload uses the engine it is given.
  EngineKind engine = EngineKind::kCofactor;
  EngineOptions engine_options;
  /// Stop as soon as an inconsistency or safeness violation is found
  /// (the paper rejects such STGs outright).
  bool abort_on_violation = true;
  /// Dynamic reordering (an extension beyond the paper, which used static
  /// orders only): sift the variable order whenever the live node count
  /// has doubled since the last reorder (AutoSiftPolicy below). Rescues
  /// workloads whose structure defeats the static heuristic (e.g. wide
  /// fork-join stars). Honoured by every engine: primed encodings register
  /// their (v, v') twin pairs as manager reorder groups, so sifting keeps
  /// the adjacency the relational renames rely on.
  bool auto_sift = true;
  /// Never sift below this table size (sifting churn is not worth it).
  std::size_t auto_sift_threshold = 50'000;
  /// When set, the traversal emits one kPass record per outer pass and a
  /// kTraversalDone record with the final stats (core/events.hpp). Not
  /// owned; typically the CheckSession's log. Null disables emission --
  /// the benches and the paper-style CLI path pay nothing.
  EventLog* events = nullptr;
  /// When set, the traversal records Chrome trace_event spans (one per
  /// pass, one per engine image call / fixpoint closure, the consistency
  /// tests, the saturated set's safeness tests, the final counts) into it
  /// (util/trace.hpp). Not owned; null disables recording.
  TraceRecorder* trace = nullptr;
};

/// The between-pass maintenance trigger: collect garbage -- and, with
/// auto_sift on, reorder -- when the live node count has more than
/// doubled since the last watermark reset (CUDD's policy), never below
/// the configured floor. The same trigger and watermark drive the sift-on
/// and sift-off paths, so bench comparisons between them measure the
/// reordering itself rather than differing GC schedules. A standalone
/// object so the watermark arithmetic is unit-testable.
struct AutoSiftPolicy {
  explicit AutoSiftPolicy(std::size_t floor_)
      : floor(floor_), watermark(floor_) {}

  /// True when `live_nodes` has more than doubled past the watermark.
  bool should_sift(std::size_t live_nodes) const {
    return live_nodes > 2 * watermark;
  }
  /// After maintenance (GC, and the sift when enabled), the surviving
  /// live count becomes the new watermark (clamped up to the floor so
  /// tiny post-sift tables do not re-trigger).
  void reset_watermark(std::size_t live_nodes) {
    watermark = std::max(floor, live_nodes);
  }

  std::size_t floor;      ///< TraversalOptions::auto_sift_threshold
  std::size_t watermark;  ///< live node count at the last watermark reset
};

struct TraversalStats {
  std::size_t passes = 0;              ///< outer fixpoint iterations
  std::size_t image_computations = 0;  ///< delta evaluations
  std::size_t peak_reached_nodes = 0;  ///< max BDD size of Reached (Table 1 "peak")
  std::size_t final_reached_nodes = 0; ///< BDD size of the result ("final")
  double states = 0;                   ///< |Reached| (full states)
  double markings = 0;                 ///< |exists_S Reached|
  double seconds = 0;                  ///< wall-clock of the traversal
};

struct TraversalResult {
  bdd::Bdd reached;  ///< characteristic function of R(D)
  TraversalStats stats;

  bool consistent = true;
  /// Human-readable descriptions, one per offending signal.
  std::vector<std::string> consistency_violations;

  bool safe = true;
  std::string safeness_detail;

  /// Signals whose value never became known (no transition ever enabled);
  /// they remain unconstrained in `reached`.
  std::vector<stg::SignalId> unbound_signals;

  /// True if the fixed point was reached (false only when a violation
  /// stopped the traversal early).
  bool complete = true;

  bool ok() const { return consistent && safe && complete; }
};

/// Computes the reachable full states of the STG through the given image
/// backend. Chaining, lazy initial-value binding and the on-the-fly
/// consistency/safeness checks run identically on every backend.
TraversalResult traverse(ImageEngine& engine, const TraversalOptions& options = {});

/// Convenience: builds the backend selected by `options.engine` internally.
TraversalResult traverse(SymbolicStg& sym, const TraversalOptions& options = {});

/// The subset of `reached` with no enabled transition. One node-free
/// test, `reached` implies SymbolicStg::any_enabled(), decides the usual
/// empty answer; the set is built only when that test fails.
bdd::Bdd deadlock_states(SymbolicStg& sym, const bdd::Bdd& reached);

}  // namespace stgcheck::core
