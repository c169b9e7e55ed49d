// Boolean encoding of STG full states (Sec. 4 of the paper).
//
// A full state y = (m, s) of a safe STG is a vector of Boolean variables:
// one per place (p_i = 1 iff marked) and one per signal (the state code).
// Sets of full states are characteristic functions stored as BDDs. The
// per-transition successor function is the paper's cofactor pipeline
//
//     delta_N(M, t) = ((M_{E(t)} . NPM(t))_{NSM(t)} . ASM(t)
//
// extended with the fired signal's bit flip for STGs (delta_D). All four
// cubes and the flip range over t's own support, and a firing negates
// every literal of its guard (preset marked, postset-only places empty,
// signal at its pre-firing value) except the places it reads and
// refills. So the pipeline is one kernel walk (bdd::Manager::flip_image)
// that flips those literals, and the same walk leaves out a set of known
// states on the way (the paper's chaining keeps only fresh states).
// Flipping the post values instead gives the exact preimage used by the
// backward frozen traversal of Sec. 5.3.
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
  kRandom,        ///< deterministically shuffled (the Sec. 6 contrast)
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
  /// var -> primed-var map (identity elsewhere).
  const std::vector<bdd::Var>& to_primed() const { return to_primed_; }
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
  /// E(a*) = OR of E(t) over transitions labelled with (signal, dir).
  bdd::Bdd enabled_signal(stg::SignalId s, stg::Dir dir) const;
  /// OR of E(t) over all transitions of the signal (either direction).
  bdd::Bdd enabled_signal_any(stg::SignalId s) const;
  /// OR of E(t) over every transition: the states where something is
  /// enabled. Built on first use as a balanced tree of unions (a left fold
  /// drags ever larger partial unions through every step) and kept for
  /// the encoding's lifetime.
  const bdd::Bdd& any_enabled();

  /// Cubes whose emptiness within a set of states decides a closed-set
  /// test, each tagged with the owner it reports for. They are literal
  /// lists over variables (bdd::Manager::cubes_meeting), so they stay
  /// valid across reorders.
  struct OwnedCubes {
    std::vector<bdd::CubeLiterals> cubes;
    std::vector<std::size_t> owners;  ///< owners[c] owns cubes[c]
  };
  /// Both lists come from the fire guard: E(t) with one of its premises
  /// flipped is exactly the set of states where that premise fails.
  /// Per signal transition t of s, E(t) & s for an s+ (owner 2s: s+
  /// enabled while s = 1) or E(t) & !s for an s- (owner 2s + 1); a dummy
  /// has none.
  const OwnedCubes& consistency_cubes() const { return consistency_cubes_; }
  /// Per transition t, E(t) & p for each place p that t produces into
  /// without consuming from (owner t): the states from which firing t
  /// would deposit a second token on a successor place.
  const OwnedCubes& safeness_cubes() const { return safeness_cubes_; }

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
  // primed or not; every check of core/checks.hpp goes through them. The
  // guard and post cubes are built per transition on first use.

  /// delta_D(states, t): successors of `states` under t, the paper's
  /// ((states_E(t) . NPM(t))_NSM(t) . ASM(t) plus the fired signal's bit
  /// flip, in one kernel walk (bdd::Manager::flip_image). Firings that
  /// would be unsafe (safeness_cubes) or inconsistent are never imaged.
  bdd::Bdd image(const bdd::Bdd& states, pn::TransitionId t);
  /// image(states, t) minus `known`, in the same single walk: the
  /// successor set is never built.
  bdd::Bdd fresh_image(const bdd::Bdd& states, pn::TransitionId t,
                       const bdd::Bdd& known);
  /// Exact inverse of image: the states of fire_guard(t) whose successor
  /// under t lies in `states` (the same walk from the post values).
  bdd::Bdd preimage(const bdd::Bdd& states, pn::TransitionId t);
  /// preimage(states, t) minus `known`, in one kernel walk.
  bdd::Bdd fresh_preimage(const bdd::Bdd& states, pn::TransitionId t,
                          const bdd::Bdd& known);

  /// The firing rule of `t`, the one place it is stated: the assignment a
  /// firing requires (`after` false: the guard) or leaves (`after` true:
  /// the post cube) on t's places and signal. A place t both reads and
  /// refills is marked on both sides; a dummy has no signal literal. The
  /// fire guards, the image cubes, the closed-set cubes and the
  /// transition relations (core/relation.hpp) are all built from it.
  bdd::CubeLiterals firing_literals(pn::TransitionId t, bool after) const;
  /// The states image() fires `t` from, as a cube: preset marked,
  /// postset-only places empty, and t's signal at its pre-firing value.
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
  /// The post cube of `t`, built on first use.
  const bdd::Bdd& firing_cube(pn::TransitionId t);
  /// What a firing of `t` does to its guard, split for flip_image: the
  /// literals it negates, at their pre and at their post values, and the
  /// states where a place it reads and refills (1 -> 1) is empty, which
  /// it neither fires from nor into (false for most transitions).
  struct FlipCubes {
    bdd::Bdd pre;
    bdd::Bdd post;
    bdd::Bdd unread;
  };
  /// The flip cubes of `t`, built on first use.
  const FlipCubes& flip_cubes(pn::TransitionId t);

  std::shared_ptr<const stg::Stg> stg_;
  std::unique_ptr<bdd::Manager> manager_;

  bool with_primed_ = false;
  std::vector<bdd::Var> place_vars_;
  std::vector<bdd::Var> signal_vars_;
  std::vector<bdd::Var> primed_place_vars_;
  std::vector<bdd::Var> primed_signal_vars_;
  std::vector<bdd::Var> to_primed_;
  std::vector<bdd::Var> state_vars_;

  std::vector<bdd::Bdd> e_;
  bdd::Bdd place_cube_;
  bdd::Bdd signal_cube_;
  bdd::Bdd state_cube_;
  bdd::Bdd any_enabled_;  // built by any_enabled(); invalid until then
  OwnedCubes consistency_cubes_;
  OwnedCubes safeness_cubes_;
  /// Built per transition on first use (invalid until then): fire_guard(),
  /// firing_cube() and flip_cubes().
  std::vector<bdd::Bdd> fire_guard_;
  std::vector<bdd::Bdd> firing_cube_;
  std::vector<FlipCubes> flip_cubes_;
};

}  // namespace stgcheck::core
