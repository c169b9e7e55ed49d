#include "core/checks.hpp"

#include <algorithm>
#include <set>

#include "petri/structural.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using stg::Dir;
using stg::SignalId;
using stg::TransitionLabel;

namespace {

/// Unordered structural conflict pairs (transitions sharing an input place).
std::vector<std::pair<pn::TransitionId, pn::TransitionId>> conflict_pairs(
    const pn::PetriNet& net) {
  std::set<std::pair<pn::TransitionId, pn::TransitionId>> pairs;
  for (const pn::StructuralConflict& c : pn::structural_conflicts(net)) {
    pairs.insert({std::min(c.t1, c.t2), std::max(c.t1, c.t2)});
  }
  return {pairs.begin(), pairs.end()};
}

/// States of `from` that `t` fires into a successor outside `target`:
/// sym.image(from, t) <= target iff `from` is disjoint from this.
Bdd fires_outside(SymbolicStg& sym, pn::TransitionId t, const Bdd& target) {
  return sym.fire_guard(t).minus(sym.after_firing(target, t));
}

/// States that `t` fires into `target`: sym.image(from, t) meets target
/// iff `from` meets this.
Bdd fires_into(SymbolicStg& sym, pn::TransitionId t, const Bdd& target) {
  return sym.fire_guard(t) & sym.after_firing(target, t);
}

/// One full state after `t` fires from `enabled & bad`: a single state of
/// that set is picked, without building it, and only that state is imaged.
Bdd witness_after(SymbolicStg& sym, const Bdd& enabled, const Bdd& bad,
                  pn::TransitionId t) {
  return sym.image(
      sym.manager().pick_one_minterm(enabled, bad, sym.state_var_list()), t);
}

/// Fig. 6(a)'s bad set for one ordered pair: the states the disabler fires
/// into a successor where the victim is no longer enabled.
Bdd transition_disabling(SymbolicStg& sym, pn::TransitionId victim,
                         pn::TransitionId disabler) {
  return fires_outside(sym, disabler, sym.enabling_cube(victim));
}

/// Fig. 6(b)'s bad set for one ordered pair: the states the disabler fires
/// into a successor where no transition of ti's signal and direction is
/// enabled.
Bdd signal_disabling(SymbolicStg& sym, pn::TransitionId ti,
                     pn::TransitionId disabler) {
  const TransitionLabel& label = sym.stg().label(ti);
  return fires_outside(sym, disabler,
                       sym.enabled_signal(label.signal, label.dir));
}

}  // namespace

// ---------------------------------------------------------------------------
// Persistency
// ---------------------------------------------------------------------------

std::vector<SymTransitionPersistencyViolation> transition_persistency(
    SymbolicStg& sym, const Bdd& reached) {
  std::vector<SymTransitionPersistencyViolation> result;
  const pn::PetriNet& net = sym.stg().net();
  for (const auto& [t1, t2] : conflict_pairs(net)) {
    for (const auto& [victim, disabler] :
         {std::pair{t1, t2}, std::pair{t2, t1}}) {
      // Fig. 6(a): states with the victim enabled; fire the disabler; the
      // victim must still be enabled.
      const Bdd enabled = reached & sym.enabling_cube(victim);
      if (enabled.is_false()) continue;
      if (enabled.disjoint_with(
              transition_disabling(sym, victim, disabler))) {
        continue;
      }
      result.push_back(SymTransitionPersistencyViolation{victim, disabler});
    }
  }
  return result;
}

Bdd transition_persistency_witness(
    SymbolicStg& sym, const Bdd& reached,
    const SymTransitionPersistencyViolation& violation) {
  const Bdd enabled = reached & sym.enabling_cube(violation.victim);
  return witness_after(
      sym, enabled,
      transition_disabling(sym, violation.victim, violation.disabler),
      violation.disabler);
}

std::vector<SymPersistencyViolation> signal_persistency(
    SymbolicStg& sym, const Bdd& reached,
    const SymPersistencyOptions& options) {
  std::vector<SymPersistencyViolation> result;
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  // Declared arbitration pairs, unordered: resolved once, not per check.
  std::set<std::pair<SignalId, SignalId>> arbitrated;
  for (const auto& [x, y] : options.arbitration_pairs) {
    arbitrated.insert({std::min(x, y), std::max(x, y)});
  }
  const auto arbitration_allowed = [&](SignalId a, SignalId b) {
    return arbitrated.count({std::min(a, b), std::max(a, b)}) != 0;
  };

  // Avoid duplicate reports for the same (victim signal, disabler).
  std::set<std::pair<SignalId, pn::TransitionId>> reported;

  for (const auto& [t1, t2] : conflict_pairs(net)) {
    for (const auto& [ti, tj] : {std::pair{t1, t2}, std::pair{t2, t1}}) {
      const TransitionLabel& li = stg.label(ti);
      const TransitionLabel& lj = stg.label(tj);
      if (li.is_dummy()) continue;  // dummies have no signal to disable
      const SignalId victim = li.signal;
      const bool victim_input = stg.is_input(victim);
      const bool disabler_input = lj.is_dummy() ? false : stg.is_input(lj.signal);
      // Def. 3.2: input disabled by input is a legal choice.
      if (victim_input && disabler_input) continue;
      if (!lj.is_dummy() && victim == lj.signal) continue;  // same signal
      if (!victim_input && !lj.is_dummy() &&
          arbitration_allowed(victim, lj.signal)) {
        continue;
      }
      if (reported.count({victim, tj}) != 0) continue;

      // Fig. 6(b): after tj fires from states where ti was enabled, the
      // whole signal (same direction, any instance) must still be enabled.
      const Bdd enabled = reached & sym.enabling_cube(ti);
      if (enabled.is_false()) continue;
      if (enabled.disjoint_with(signal_disabling(sym, ti, tj))) continue;
      reported.insert({victim, tj});
      result.push_back(SymPersistencyViolation{victim, tj, victim_input, ti});
    }
  }
  return result;
}

Bdd signal_persistency_witness(SymbolicStg& sym, const Bdd& reached,
                               const SymPersistencyViolation& violation) {
  const Bdd enabled = reached & sym.enabling_cube(violation.ti);
  return witness_after(sym, enabled,
                       signal_disabling(sym, violation.ti, violation.disabler),
                       violation.disabler);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

Bdd determinism_violations(SymbolicStg& sym, const Bdd& reached) {
  const stg::Stg& stg = sym.stg();
  Bdd bad = sym.manager().bdd_false();
  for (SignalId s = 0; s < stg.signal_count(); ++s) {
    for (Dir dir : {Dir::kPlus, Dir::kMinus}) {
      const std::vector<pn::TransitionId> ts = stg.transitions_of(s, dir);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        for (std::size_t j = i + 1; j < ts.size(); ++j) {
          bad |= sym.enabling_cube(ts[i]) & sym.enabling_cube(ts[j]);
        }
      }
    }
  }
  // Both callers only test emptiness, and most nets are deterministic.
  if (reached.disjoint_with(bad)) return sym.manager().bdd_false();
  return bad & reached;
}

// ---------------------------------------------------------------------------
// CSC
// ---------------------------------------------------------------------------

SignalRegions signal_regions(SymbolicStg& sym, const Bdd& reached,
                             SignalId signal) {
  bdd::Manager& m = sym.manager();
  const Bdd& places = sym.place_cube();
  const Bdd sig = sym.signal(signal);
  const Bdd e_plus = sym.enabled_signal(signal, Dir::kPlus);
  const Bdd e_minus = sym.enabled_signal(signal, Dir::kMinus);

  // One relational product per region: the full-state region inside
  // `reached` is never materialized.
  SignalRegions r;
  r.er_plus = m.and_exists(reached, e_plus, places);
  r.er_minus = m.and_exists(reached, e_minus, places);
  r.qr_plus = m.and_exists(reached, sig & !e_minus, places);
  r.qr_minus = m.and_exists(reached, (!sig) & !e_plus, places);
  return r;
}

SymCscResult check_csc(SymbolicStg& sym, const Bdd& reached) {
  SymCscResult result;
  bdd::Manager& m = sym.manager();
  const Bdd& places = sym.place_cube();

  // USC: every full state has a unique code iff |states| == |codes|.
  bool states_exact = false;
  bool codes_exact = false;
  result.unique_state_coding = sym.count_states(reached, &states_exact) ==
                               sym.count_codes(reached, &codes_exact);
  // A CSC clash needs two states with one code, so USC implies CSC. Only
  // exact counts prove USC: two roundings can agree on unequal counts.
  if (result.unique_state_coding && states_exact && codes_exact) {
    return result;
  }

  for (SignalId a : sym.stg().noninput_signals()) {
    // Exc_a: a is excited in its own direction. The code literal a is not
    // quantified, so excited & quiet & !a == ER(a+) & QR(a-) and
    // excited & quiet & a == ER(a-) & QR(a+): two products give the four
    // regions' conflict set, on any reached set.
    const Bdd exc = m.ite(sym.signal(a), sym.enabled_signal(a, Dir::kMinus),
                          sym.enabled_signal(a, Dir::kPlus));
    const Bdd excited = m.and_exists(reached, exc, places);
    const Bdd quiet = m.and_exists(reached, !exc, places);
    if (excited.disjoint_with(quiet)) continue;
    result.complete_state_coding = false;
    result.conflicts.push_back(SymCscResult::Conflict{a, excited & quiet});
  }
  return result;
}

// ---------------------------------------------------------------------------
// CSC-reducibility
// ---------------------------------------------------------------------------

SymReducibilityResult check_csc_reducibility(SymbolicStg& sym,
                                             const Bdd& reached) {
  return check_csc_reducibility(sym, reached, check_csc(sym, reached));
}

SymReducibilityResult check_csc_reducibility(SymbolicStg& sym,
                                             const Bdd& reached,
                                             const SymCscResult& csc) {
  SymReducibilityResult result;
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  result.csc_satisfied = csc.complete_state_coding;
  if (result.csc_satisfied) return result;

  // Input transitions only: the "frozen non-inputs" semantics.
  std::vector<pn::TransitionId> input_transitions;
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    const TransitionLabel& l = stg.label(t);
    if (!l.is_dummy() && stg.is_input(l.signal)) input_transitions.push_back(t);
  }

  for (const SymCscResult::Conflict& conflict : csc.conflicts) {
    const SignalId a = conflict.signal;
    const Bdd sig = sym.signal(a);
    const Bdd e_plus = sym.enabled_signal(a, Dir::kPlus);
    const Bdd e_minus = sym.enabled_signal(a, Dir::kMinus);
    const Bdd quiescent =
        (reached & sig).minus(e_minus) | (reached & !sig).minus(e_plus);
    const Bdd excited = reached & (e_plus | e_minus);

    // Seed: contradictory quiescent full states.
    Bdd frozen = quiescent & conflict.codes;
    if (frozen.is_false()) continue;

    // Backward closure with frozen non-inputs (within the reachable set).
    bool changed = true;
    while (changed) {
      changed = false;
      for (pn::TransitionId t : input_transitions) {
        const Bdd pre = sym.preimage(frozen, t) & reached;
        if (!pre.implies(frozen)) {
          frozen |= pre;
          changed = true;
        }
      }
    }
    // Forward closure with frozen non-inputs.
    changed = true;
    while (changed) {
      changed = false;
      for (pn::TransitionId t : input_transitions) {
        const Bdd post = sym.image(frozen, t) & reached;
        if (!post.implies(frozen)) {
          frozen |= post;
          changed = true;
        }
      }
    }

    if (!(frozen & excited).disjoint_with(conflict.codes)) {
      result.reducible = false;
      result.irreducible_signals.push_back(a);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fake conflicts
// ---------------------------------------------------------------------------

std::vector<SymFakeConflictReport> analyze_fake_conflicts(SymbolicStg& sym,
                                                          const Bdd& reached) {
  std::vector<SymFakeConflictReport> result;
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  // For one direction (ti stays, tj fires): is there another transition tk
  // with ti's label enabled after tj fires (fake), and can ti's whole
  // signal die (real disabling)? The states with both enabled are those of
  // `reached & E(ti)` inside fire_guard(tj). That product is built once per
  // transition and kept for the call: ti meets every conflict partner with
  // it, and between two of them the computed cache has usually evicted it
  // (mutex48: 47 partners per transition; keeping the products halves the
  // phase).
  std::vector<Bdd> enabled_sets(net.transition_count());
  const auto analyze_direction = [&](pn::TransitionId ti, pn::TransitionId tj,
                                     bool& fake, bool& disables) {
    const TransitionLabel& li = stg.label(ti);
    if (li.is_dummy()) return;
    Bdd& enabled = enabled_sets[ti];
    if (!enabled.valid()) enabled = reached & sym.enabling_cube(ti);
    if (enabled.is_false()) return;
    Bdd others = sym.manager().bdd_false();
    for (pn::TransitionId tk : stg.transitions_of(li.signal, li.dir)) {
      if (tk != ti && tk != tj) others |= sym.enabling_cube(tk);
    }
    fake = !enabled.disjoint_with(fires_into(sym, tj, others));
    disables = !enabled.disjoint_with(
        fires_outside(sym, tj, sym.enabled_signal_any(li.signal)));
  };

  for (const auto& [t1, t2] : conflict_pairs(net)) {
    SymFakeConflictReport report;
    report.t1 = t1;
    report.t2 = t2;
    analyze_direction(t1, t2, report.fake_against_t1, report.disables_t1);
    analyze_direction(t2, t1, report.fake_against_t2, report.disables_t2);
    result.push_back(report);
  }
  return result;
}

SymFakeFreedomResult check_fake_freedom(SymbolicStg& sym, const Bdd& reached) {
  SymFakeFreedomResult result;
  const stg::Stg& stg = sym.stg();
  for (const SymFakeConflictReport& report : analyze_fake_conflicts(sym, reached)) {
    const TransitionLabel& l1 = stg.label(report.t1);
    const TransitionLabel& l2 = stg.label(report.t2);
    const bool involves_noninput =
        (!l1.is_dummy() && stg.is_noninput(l1.signal)) ||
        (!l2.is_dummy() && stg.is_noninput(l2.signal));
    if (report.symmetric_fake() ||
        (report.asymmetric_fake() && involves_noninput)) {
      result.fake_free = false;
      result.offending.push_back(report);
    }
  }
  return result;
}

}  // namespace stgcheck::core
