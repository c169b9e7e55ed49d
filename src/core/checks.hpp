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
// Checks that fire transitions (persistency, fake conflicts,
// CSC-reducibility) take an ImageEngine&, so they run unchanged on every
// backend (cofactor, monolithic relation, partitioned relations,
// saturation). The pair checks never image a set of states: they test
// `reached & E(ti)` against ImageEngine::fire_guard / after_firing
// predicates over places and signals, and image only the one picked state
// a violation's witness needs.
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
  /// One witness state after the disabler fired (a minterm over the
  /// place+signal variables).
  bdd::Bdd witness;
};

/// Fig. 6(a): for every pair of transitions in structural conflict, is the
/// victim still enabled after the disabler fires?
std::vector<SymTransitionPersistencyViolation> transition_persistency(
    ImageEngine& engine, const bdd::Bdd& reached);

struct SymPersistencyViolation {
  stg::SignalId victim;
  pn::TransitionId disabler;
  bool victim_is_input = false;
  bdd::Bdd witness;
};

struct SymPersistencyOptions {
  /// Pairs of non-input signals allowed to disable each other (declared
  /// arbitration points, footnote 1 of the paper).
  std::vector<std::pair<stg::SignalId, stg::SignalId>> arbitration_pairs;
};

/// Fig. 6(b) restricted to the Def. 3.2 conditions: a non-input signal
/// disabled by anything, or an input signal disabled by a non-input.
std::vector<SymPersistencyViolation> signal_persistency(
    ImageEngine& engine, const bdd::Bdd& reached,
    const SymPersistencyOptions& options = {});

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// The set of reachable states where two distinct transitions with the
/// same label are enabled simultaneously (Sec. 5.3).
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

/// CSC(a) for every non-input signal, plus the USC check
/// (|states| == |codes|). Two relational products per signal: with
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
/// sequence, which no internal signal insertion can break.
SymReducibilityResult check_csc_reducibility(ImageEngine& engine,
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

std::vector<SymFakeConflictReport> analyze_fake_conflicts(ImageEngine& engine,
                                                          const bdd::Bdd& reached);

struct SymFakeFreedomResult {
  bool fake_free = true;
  std::vector<SymFakeConflictReport> offending;
};

/// Sec. 3.5 acceptance rule: no symmetric fakes, no asymmetric fakes
/// involving a non-input signal.
SymFakeFreedomResult check_fake_freedom(ImageEngine& engine, const bdd::Bdd& reached);

}  // namespace stgcheck::core
