// Symbolic implementability checks (Sec. 5 of the paper), all operating on
// the BDD of reachable full states produced by traverse():
//
//   * transition / signal persistency (Fig. 6a/6b), pairwise over
//     structural conflicts only;
//   * determinism violations (Sec. 5.3 last paragraph);
//   * Complete State Coding via excitation/quiescent regions (Sec. 5.3);
//   * CSC-reducibility: mutually complementary input sequences found by
//     backward+forward traversal with frozen non-inputs (Sec. 5.3);
//   * fake conflicts (Sec. 5.4) with symmetric/asymmetric classification.
//
// Every function has an explicit twin in src/sg/explicit_checks.hpp with
// identical semantics; the cross-validation tests enforce agreement.
//
// Every check takes the encoding and the reached set, `(SymbolicStg&,
// reached)`, so it runs unchanged whichever engine traversed. The pair
// checks never image a set of states: they test `reached & E(ti)` against
// SymbolicStg::fire_guard / after_firing predicates over places and
// signals. A violation images nothing unless its witness is asked for
// (transition_persistency_witness, signal_persistency_witness), and then
// only the one picked state that witness needs, through the cofactor
// image (SymbolicStg::image). The CSC-reducibility closure steps through
// SymbolicStg::fresh_image / fresh_preimage.
#pragma once

#include <string>
#include <vector>

#include "core/encoding.hpp"
#include "core/image_engine.hpp"
#include "core/traversal.hpp"

namespace stgcheck::core {

// ---------------------------------------------------------------------------
// Persistency (Fig. 6)
// ---------------------------------------------------------------------------

struct SymTransitionPersistencyViolation {
  pn::TransitionId victim;
  pn::TransitionId disabler;
};

/// Fig. 6(a): for every pair of transitions in structural conflict, is the
/// victim still enabled after the disabler fires? One disjointness test
/// per ordered pair; no witness is built (transition_persistency_witness).
std::vector<SymTransitionPersistencyViolation> transition_persistency(
    SymbolicStg& sym, const bdd::Bdd& reached);

/// One witness state of a transition_persistency violation, on request:
/// a minterm over the place+signal variables, taken after the disabler
/// fired from a reached state where the victim was enabled, in which the
/// victim is no longer enabled.
bdd::Bdd transition_persistency_witness(
    SymbolicStg& sym, const bdd::Bdd& reached,
    const SymTransitionPersistencyViolation& violation);

struct SymPersistencyViolation {
  stg::SignalId victim;
  pn::TransitionId disabler;
  bool victim_is_input = false;
  /// The transition of `victim` whose enabled states exposed the violation.
  pn::TransitionId ti;
};

struct SymPersistencyOptions {
  /// Pairs of non-input signals allowed to disable each other (declared
  /// arbitration points, footnote 1 of the paper).
  std::vector<std::pair<stg::SignalId, stg::SignalId>> arbitration_pairs;
};

/// Fig. 6(b) restricted to the Def. 3.2 conditions: a non-input signal
/// disabled by anything, or an input signal disabled by a non-input.
std::vector<SymPersistencyViolation> signal_persistency(
    SymbolicStg& sym, const bdd::Bdd& reached,
    const SymPersistencyOptions& options = {});

/// One witness state of a signal_persistency violation, on request: a
/// minterm over the place+signal variables, taken after the disabler fired
/// from a reached state where `ti` was enabled, in which no transition of
/// the victim signal in ti's direction is enabled.
bdd::Bdd signal_persistency_witness(SymbolicStg& sym,
                                    const bdd::Bdd& reached,
                                    const SymPersistencyViolation& violation);

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// The set of reachable states where two distinct transitions with the
/// same label are enabled simultaneously (Sec. 5.3). When it is empty, one
/// disjointness test decides that without building the product.
bdd::Bdd determinism_violations(SymbolicStg& sym, const bdd::Bdd& reached);

// ---------------------------------------------------------------------------
// Complete State Coding (Sec. 5.3)
// ---------------------------------------------------------------------------

/// The four region code-sets of one signal (functions of signal variables
/// only; places are existentially abstracted). check_csc does not build
/// them; logic synthesis and the CSC examples do.
struct SignalRegions {
  bdd::Bdd er_plus;   ///< ER(a+): codes where some a+ is enabled
  bdd::Bdd er_minus;  ///< ER(a-)
  bdd::Bdd qr_plus;   ///< QR(a+): a = 1 and a- not enabled
  bdd::Bdd qr_minus;  ///< QR(a-): a = 0 and a+ not enabled
};

SignalRegions signal_regions(SymbolicStg& sym, const bdd::Bdd& reached,
                             stg::SignalId signal);

struct SymCscResult {
  bool unique_state_coding = true;
  bool complete_state_coding = true;
  /// Non-input signals with a CSC conflict, with the conflicting code set.
  struct Conflict {
    stg::SignalId signal;
    bdd::Bdd codes;  ///< (ER(a+) n QR(a-)) u (ER(a-) n QR(a+))
  };
  std::vector<Conflict> conflicts;
};

/// The USC check, then CSC(a) for every non-input signal. USC compares
/// |states| with |codes| when both counts are exact
/// (bdd::Manager::sat_count); otherwise it is one BDD test per place (no
/// code occurs both with the place marked and empty). USC implies CSC (a
/// clash needs two states with one code), so then the signals are not
/// visited. Otherwise two relational products per signal: with
/// Exc_a = ite(a, E(a-), E(a+)), the codes of excited and of quiet reached
/// states; their intersection is exactly the conflict set below.
SymCscResult check_csc(SymbolicStg& sym, const bdd::Bdd& reached);

// ---------------------------------------------------------------------------
// CSC-reducibility (Sec. 5.3)
// ---------------------------------------------------------------------------

struct SymReducibilityResult {
  bool csc_satisfied = true;
  bool reducible = true;
  std::vector<stg::SignalId> irreducible_signals;
};

/// For each CSC-conflicting signal: seed the frozen traversal with the
/// contradictory quiescent states, close backward then forward firing only
/// input transitions (within `reached`), and test whether a contradictory
/// excited state is hit -- that is a mutually complementary input
/// sequence, which no internal signal insertion can break. `csc` is
/// check_csc(sym, reached), passed in so a pipeline that already has it
/// does not compute it twice.
SymReducibilityResult check_csc_reducibility(SymbolicStg& sym,
                                             const bdd::Bdd& reached,
                                             const SymCscResult& csc);
/// The same, computing check_csc itself.
SymReducibilityResult check_csc_reducibility(SymbolicStg& sym,
                                             const bdd::Bdd& reached);

// ---------------------------------------------------------------------------
// Fake conflicts (Sec. 5.4)
// ---------------------------------------------------------------------------

struct SymFakeConflictReport {
  pn::TransitionId t1;
  pn::TransitionId t2;
  bool fake_against_t1 = false;  ///< firing t2 hands t1's label to another tk
  bool fake_against_t2 = false;
  bool disables_t1 = false;      ///< firing t2 can kill t1's signal outright
  bool disables_t2 = false;

  bool symmetric_fake() const { return fake_against_t1 && fake_against_t2; }
  bool asymmetric_fake() const { return fake_against_t1 != fake_against_t2; }
};

std::vector<SymFakeConflictReport> analyze_fake_conflicts(SymbolicStg& sym,
                                                          const bdd::Bdd& reached);

struct SymFakeFreedomResult {
  bool fake_free = true;
  std::vector<SymFakeConflictReport> offending;
};

/// Sec. 3.5 acceptance rule: no symmetric fakes, no asymmetric fakes
/// involving a non-input signal.
SymFakeFreedomResult check_fake_freedom(SymbolicStg& sym, const bdd::Bdd& reached);

// ---------------------------------------------------------------------------
// Engine forwarders
// ---------------------------------------------------------------------------
// perfbench/harness.cpp still calls these four with an engine; each runs
// the check on engine.sym().

/// Kept for the perfbench harness until ROADMAP item 1's benchmark change.
inline std::vector<SymPersistencyViolation> signal_persistency(
    ImageEngine& engine, const bdd::Bdd& reached,
    const SymPersistencyOptions& options = {}) {
  return signal_persistency(engine.sym(), reached, options);
}
/// Kept for the perfbench harness until ROADMAP item 1's benchmark change.
inline std::vector<SymTransitionPersistencyViolation> transition_persistency(
    ImageEngine& engine, const bdd::Bdd& reached) {
  return transition_persistency(engine.sym(), reached);
}
/// Kept for the perfbench harness until ROADMAP item 1's benchmark change.
inline SymFakeFreedomResult check_fake_freedom(ImageEngine& engine,
                                               const bdd::Bdd& reached) {
  return check_fake_freedom(engine.sym(), reached);
}
/// Kept for the perfbench harness until ROADMAP item 1's benchmark change.
inline SymReducibilityResult check_csc_reducibility(ImageEngine& engine,
                                                    const bdd::Bdd& reached) {
  return check_csc_reducibility(engine.sym(), reached);
}

}  // namespace stgcheck::core
