// Boolean encoding of STG full states (Sec. 4 of the paper).
//
// A full state y = (m, s) of a safe STG is a vector of Boolean variables:
// one per place (p_i = 1 iff marked) and one per signal (the state code).
// Sets of full states are characteristic functions stored as BDDs. The
// per-transition successor function is the paper's cofactor pipeline
//
//     delta_N(M, t) = ((M_{E(t)} . NPM(t))_{NSM(t)} . ASM(t)
//
// extended with the fired signal's bit flip for STGs (delta_D), and its
// mirror image (swap the four cubes, flip the signal the other way) gives
// the exact preimage used by the backward frozen traversal of Sec. 5.3.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "stg/stg.hpp"

namespace stgcheck::core {

/// Static variable-ordering heuristics (Sec. 6 observes that sizes explode
/// without a good order; bench_ordering_ablation quantifies this).
enum class Ordering {
  kInterleaved,   ///< structural BFS interleaving places with their signals
  kClustered,     ///< like kInterleaved, but wide forks defer their output
                  ///< places to the consuming branch (fork-join friendly)
  kDeclaration,   ///< places in id order, then signals
  kSignalsFirst,  ///< all signal variables above all place variables
  kRandom,        ///< deterministically shuffled (ablation worst case)
};

const char* to_string(Ordering ordering);
/// Parses an ordering name as printed by to_string ('-'/'_' interchangeable);
/// nullopt for unknown names. Shared by stg_check and the server protocol.
std::optional<Ordering> parse_ordering(std::string_view name);
/// Every valid ordering name, comma-separated -- for CLI/protocol errors.
std::string valid_ordering_names();

/// The symbolic encoding of one STG: owns the BDD manager, the variable
/// map, and the per-transition characteristic cubes.
///
/// With `with_primed_vars` every state variable v gets a primed twin v'
/// directly below it in the order, enabling transition relations
/// (core/relation.hpp). Each (v, v') pair is registered as a reorder
/// group with the manager, so dynamic sifting moves the pair as one block
/// and the twin adjacency survives every reorder. The primed twins never
/// appear in reachable-set BDDs, and all counting functions account for
/// them.
class SymbolicStg {
 public:
  explicit SymbolicStg(const stg::Stg& stg, Ordering ordering = Ordering::kInterleaved,
                       std::size_t initial_nodes = 1 << 14,
                       bool with_primed_vars = false);

  // Non-copyable (owns the manager; Bdd handles point into it).
  SymbolicStg(const SymbolicStg&) = delete;
  SymbolicStg& operator=(const SymbolicStg&) = delete;

  const stg::Stg& stg() const { return *stg_; }
  bdd::Manager& manager() { return *manager_; }
  const bdd::Manager& manager() const { return *manager_; }

  // ---- Variables ---------------------------------------------------------

  bdd::Var place_var(pn::PlaceId p) const { return place_vars_[p]; }
  bdd::Var signal_var(stg::SignalId s) const { return signal_vars_[s]; }
  bool has_primed_vars() const { return with_primed_; }
  /// Primed twin of a place/signal variable (requires with_primed_vars).
  bdd::Var primed_place_var(pn::PlaceId p) const;
  bdd::Var primed_signal_var(stg::SignalId s) const;
  /// var -> primed-var map (identity elsewhere) and its inverse.
  const std::vector<bdd::Var>& to_primed() const { return to_primed_; }
  const std::vector<bdd::Var>& from_primed() const { return from_primed_; }
  /// Positive cube of all primed variables.
  const bdd::Bdd& primed_cube() const { return primed_cube_; }
  /// Positive cube of all unprimed state variables.
  const bdd::Bdd& state_cube() const { return state_cube_; }
  /// Projection function of a place variable.
  bdd::Bdd place(pn::PlaceId p) const;
  /// Projection function of a signal variable.
  bdd::Bdd signal(stg::SignalId s) const;
  /// Positive cube of all place variables (for the "exists P" of Sec. 5.3).
  const bdd::Bdd& place_cube() const { return place_cube_; }
  /// Positive cube of all signal variables.
  const bdd::Bdd& signal_cube() const { return signal_cube_; }
  std::vector<bdd::Var> place_var_list() const;
  std::vector<bdd::Var> signal_var_list() const;
  /// Place variables, then signal variables: the variables of one full
  /// state (a witness minterm is picked over these).
  const std::vector<bdd::Var>& state_var_list() const { return state_vars_; }

  // ---- Characteristic cubes (Sec. 4) --------------------------------------

  /// E(t): all predecessor places marked (t enabled).
  const bdd::Bdd& enabling_cube(pn::TransitionId t) const { return e_[t]; }
  /// NPM(t): no predecessor place marked.
  const bdd::Bdd& npm_cube(pn::TransitionId t) const { return npm_[t]; }
  /// NSM(t): no successor place marked.
  const bdd::Bdd& nsm_cube(pn::TransitionId t) const { return nsm_[t]; }
  /// ASM(t): all successor places marked.
  const bdd::Bdd& asm_cube(pn::TransitionId t) const { return asm_[t]; }
  /// E(a*) = OR of E(t) over transitions labelled with (signal, dir).
  bdd::Bdd enabled_signal(stg::SignalId s, stg::Dir dir) const;
  /// OR of E(t) over all transitions of the signal (either direction).
  bdd::Bdd enabled_signal_any(stg::SignalId s) const;
  /// OR of E(t) over every transition: the states where something is
  /// enabled. Built on first use as a balanced tree of unions (a left fold
  /// drags ever larger partial unions through every step) and kept for
  /// the encoding's lifetime.
  const bdd::Bdd& any_enabled();

  // ---- States --------------------------------------------------------------

  /// Characteristic function of the initial full state: the initial
  /// marking cube conjoined with every *known* initial signal literal.
  /// Unknown signals are left unconstrained (Sec. 5.1) and bound lazily by
  /// the traversal.
  bdd::Bdd initial_state() const;
  /// Characteristic cube of an explicit marking (places only).
  bdd::Bdd marking_cube(const pn::Marking& m) const;

  // ---- Image computation -----------------------------------------------------
  // The paper's cofactor image (Sec. 4) and the fire guards the checks
  // test against. They need no relation, so they run on any encoding,
  // primed or not; every check of core/checks.hpp goes through them.

  /// delta_D(states, t): successors of `states` under t,
  /// ((states_E(t) . NPM(t))_NSM(t) . ASM(t) plus the fired signal's bit
  /// flip. Firings that would be unsafe (unsafe_states) or inconsistent
  /// are never imaged.
  bdd::Bdd image(const bdd::Bdd& states, pn::TransitionId t) const;
  /// Exact inverse of image: the states of fire_guard(t) whose successor
  /// under t lies in `states`.
  bdd::Bdd preimage(const bdd::Bdd& states, pn::TransitionId t) const;

  /// States of `states` from which firing `t` would deposit a second token
  /// on a successor place. image() excludes such firings (so does every
  /// image engine); this reports them so the traversal can flag the
  /// violation.
  bdd::Bdd unsafe_states(const bdd::Bdd& states, pn::TransitionId t);
  /// The states image() fires `t` from: E(t), no successor-only place
  /// marked, and t's signal at its pre-firing value.
  const bdd::Bdd& fire_guard(pn::TransitionId t);
  /// `predicate` read one firing of `t` ahead: the states whose successor
  /// under t satisfies it (the preset-only places fixed to 0, the postset
  /// to 1, t's signal to its post-firing value). So a state predicate P is
  /// tested against an image without computing it:
  ///   image(S, t) <= P  iff  S disjoint from fire_guard(t) & !after_firing(P, t)
  ///   image(S, t) & P   iff  S meets      fire_guard(t) &  after_firing(P, t)
  bdd::Bdd after_firing(const bdd::Bdd& predicate, pn::TransitionId t);

  // ---- Counting ---------------------------------------------------------------

  /// Number of full states in a set (over place + signal variables).
  /// `exact`, if non-null, receives whether the count is exact
  /// (bdd::Manager::sat_count).
  double count_states(const bdd::Bdd& set, bool* exact = nullptr) const;
  /// Number of distinct markings in a set of full states. (Non-const: the
  /// existential abstraction updates manager caches.)
  double count_markings(const bdd::Bdd& set);
  /// Number of distinct codes in a set of full states; `exact` as for
  /// count_states.
  double count_codes(const bdd::Bdd& set, bool* exact = nullptr);

 private:
  void order_variables(Ordering ordering);
  void build_cubes();

  std::shared_ptr<const stg::Stg> stg_;
  std::unique_ptr<bdd::Manager> manager_;

  bool with_primed_ = false;
  std::vector<bdd::Var> place_vars_;
  std::vector<bdd::Var> signal_vars_;
  std::vector<bdd::Var> primed_place_vars_;
  std::vector<bdd::Var> primed_signal_vars_;
  std::vector<bdd::Var> to_primed_;
  std::vector<bdd::Var> from_primed_;
  std::vector<bdd::Var> state_vars_;

  std::vector<bdd::Bdd> e_;
  std::vector<bdd::Bdd> npm_;
  std::vector<bdd::Bdd> nsm_;
  std::vector<bdd::Bdd> asm_;
  bdd::Bdd place_cube_;
  bdd::Bdd signal_cube_;
  bdd::Bdd primed_cube_;
  bdd::Bdd state_cube_;
  bdd::Bdd any_enabled_;  // built by any_enabled(); invalid until then
  /// Built per transition on first use (invalid until then): E(t) & (OR
  /// of the successor-only place literals), the states unsafe_states()
  /// returns; fire_guard(); and the post-firing assignment cube
  /// after_firing() cofactors by.
  std::vector<bdd::Bdd> unsafe_guard_;
  std::vector<bdd::Bdd> fire_guard_;
  std::vector<bdd::Bdd> firing_cube_;
};

}  // namespace stgcheck::core
