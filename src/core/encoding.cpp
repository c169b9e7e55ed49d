#include "core/encoding.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

const char* to_string(Ordering ordering) {
  switch (ordering) {
    case Ordering::kInterleaved: return "interleaved";
    case Ordering::kClustered: return "clustered";
    case Ordering::kDeclaration: return "declaration";
    case Ordering::kSignalsFirst: return "signals-first";
    case Ordering::kRandom: return "random";
  }
  return "?";
}

std::optional<Ordering> parse_ordering(std::string_view name) {
  for (const Ordering o :
       {Ordering::kInterleaved, Ordering::kClustered, Ordering::kDeclaration,
        Ordering::kSignalsFirst, Ordering::kRandom}) {
    if (names_equal_dashed(name, to_string(o))) return o;
  }
  return std::nullopt;
}

std::string valid_ordering_names() {
  return "interleaved, clustered, declaration, signals-first, random";
}

SymbolicStg::SymbolicStg(const stg::Stg& stg, Ordering ordering,
                         std::size_t initial_nodes, bool with_primed_vars)
    : stg_(std::make_shared<const stg::Stg>(stg)),
      manager_(std::make_unique<bdd::Manager>(initial_nodes)),
      with_primed_(with_primed_vars) {
  const pn::PetriNet& net = stg_->net();
  if (net.place_count() == 0) throw ModelError("cannot encode an empty net");
  place_vars_.assign(net.place_count(), bdd::kInvalidVar);
  signal_vars_.assign(stg_->signal_count(), bdd::kInvalidVar);
  primed_place_vars_.assign(net.place_count(), bdd::kInvalidVar);
  primed_signal_vars_.assign(stg_->signal_count(), bdd::kInvalidVar);
  order_variables(ordering);
  if (with_primed_) {
    // Each (v, v') twin pair reorders as one block: dynamic sifting can
    // move the pair anywhere, but the primed twin stays directly below
    // its variable, so transition-relation renames remain cheap
    // level-order-preserving permutations.
    for (pn::PlaceId p = 0; p < net.place_count(); ++p) {
      manager_->group_vars({place_vars_[p], primed_place_vars_[p]});
    }
    for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) {
      manager_->group_vars({signal_vars_[s], primed_signal_vars_[s]});
    }
  }
  build_cubes();
}

bdd::Var SymbolicStg::primed_place_var(pn::PlaceId p) const {
  if (!with_primed_) throw ModelError("encoding built without primed variables");
  return primed_place_vars_[p];
}

bdd::Var SymbolicStg::primed_signal_var(stg::SignalId s) const {
  if (!with_primed_) throw ModelError("encoding built without primed variables");
  return primed_signal_vars_[s];
}

// ---------------------------------------------------------------------------
// Variable ordering
// ---------------------------------------------------------------------------

void SymbolicStg::order_variables(Ordering ordering) {
  const pn::PetriNet& net = stg_->net();

  const auto declare_place = [&](pn::PlaceId p) {
    if (place_vars_[p] == bdd::kInvalidVar) {
      manager_->new_var(net.place_name(p));
      place_vars_[p] = static_cast<Var>(manager_->var_count() - 1);
      if (with_primed_) {
        // The primed twin sits directly below, so p <-> p' constraints in
        // transition relations cost one node each.
        manager_->new_var(net.place_name(p) + "'");
        primed_place_vars_[p] = static_cast<Var>(manager_->var_count() - 1);
      }
    }
  };
  const auto declare_signal = [&](stg::SignalId s) {
    if (s != stg::kNoSignal && signal_vars_[s] == bdd::kInvalidVar) {
      manager_->new_var(stg_->signal_name(s));
      signal_vars_[s] = static_cast<Var>(manager_->var_count() - 1);
      if (with_primed_) {
        manager_->new_var(stg_->signal_name(s) + "'");
        primed_signal_vars_[s] = static_cast<Var>(manager_->var_count() - 1);
      }
    }
  };

  switch (ordering) {
    case Ordering::kDeclaration: {
      for (pn::PlaceId p = 0; p < net.place_count(); ++p) declare_place(p);
      for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) declare_signal(s);
      break;
    }
    case Ordering::kSignalsFirst: {
      for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) declare_signal(s);
      for (pn::PlaceId p = 0; p < net.place_count(); ++p) declare_place(p);
      break;
    }
    case Ordering::kRandom: {
      // Deterministic shuffle of the declaration order.
      std::vector<std::pair<bool, std::uint32_t>> items;  // (is_signal, id)
      for (pn::PlaceId p = 0; p < net.place_count(); ++p) items.push_back({false, p});
      for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) items.push_back({true, s});
      Rng rng(0xABCDEF12345ull);
      for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
      }
      for (const auto& [is_signal, id] : items) {
        if (is_signal) {
          declare_signal(id);
        } else {
          declare_place(id);
        }
      }
      break;
    }
    case Ordering::kInterleaved:
    case Ordering::kClustered: {
      // Breadth-first traversal over the flow relation, starting from the
      // initially enabled transitions. Visiting a transition declares its
      // preset places, then its signal, then its postset places. BFS
      // follows the token wave, so all variables that interact (the
      // places around one transition and its signal, and neighbouring
      // pipeline stages) end up adjacent in the order -- the locality
      // heuristic the paper relies on for compact BDDs. A depth-first
      // variant dives down one branch and declares the sibling branch's
      // places during backtracking, far from their cluster, which
      // measurably blows the Reached BDD up on pipelines.
      std::vector<bool> enqueued(net.transition_count(), false);
      std::deque<pn::TransitionId> queue;
      const pn::Marking& m0 = net.initial_marking();
      for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
        if (net.enabled(m0, t)) {
          queue.push_back(t);
          enqueued[t] = true;
        }
      }
      std::size_t scan = 0;  // fallback roots for disconnected components
      while (!queue.empty() || scan < net.transition_count()) {
        if (queue.empty()) {
          const pn::TransitionId t = static_cast<pn::TransitionId>(scan++);
          if (enqueued[t]) continue;
          enqueued[t] = true;
          queue.push_back(t);
        }
        const pn::TransitionId t = queue.front();
        queue.pop_front();
        for (pn::PlaceId p : net.preset(t)) declare_place(p);
        declare_signal(stg_->label(t).signal);
        // kClustered: a wide fork (e.g. the go+ of a fork-join star) does
        // not emit its fan-out as one block; each output place is declared
        // by its consuming branch instead, keeping branch clusters intact.
        const bool declare_postsets =
            ordering == Ordering::kInterleaved || net.postset(t).size() <= 2;
        if (declare_postsets) {
          for (pn::PlaceId p : net.postset(t)) declare_place(p);
        }
        for (pn::PlaceId p : net.postset(t)) {
          for (pn::TransitionId succ : net.postset_of_place(p)) {
            if (!enqueued[succ]) {
              enqueued[succ] = true;
              queue.push_back(succ);
            }
          }
        }
      }
      // Anything not connected to a transition at all.
      for (pn::PlaceId p = 0; p < net.place_count(); ++p) declare_place(p);
      for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) declare_signal(s);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Cubes
// ---------------------------------------------------------------------------

void SymbolicStg::build_cubes() {
  const pn::PetriNet& net = stg_->net();
  e_.reserve(net.transition_count());
  npm_.reserve(net.transition_count());
  nsm_.reserve(net.transition_count());
  asm_.reserve(net.transition_count());
  unsafe_guard_.resize(net.transition_count());
  fire_guard_.resize(net.transition_count());
  firing_cube_.resize(net.transition_count());
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    bdd::CubeLiterals enabled;
    bdd::CubeLiterals none_pre;
    bdd::CubeLiterals none_post;
    bdd::CubeLiterals all_post;
    for (pn::PlaceId p : net.preset(t)) {
      enabled.push_back({place_vars_[p], true});
      none_pre.push_back({place_vars_[p], false});
    }
    for (pn::PlaceId p : net.postset(t)) {
      none_post.push_back({place_vars_[p], false});
      all_post.push_back({place_vars_[p], true});
    }
    e_.push_back(manager_->cube(enabled));
    npm_.push_back(manager_->cube(none_pre));
    nsm_.push_back(manager_->cube(none_post));
    asm_.push_back(manager_->cube(all_post));
  }
  place_cube_ = manager_->positive_cube(place_var_list());
  signal_cube_ = manager_->positive_cube(signal_var_list());

  state_vars_ = place_var_list();
  state_vars_.insert(state_vars_.end(), signal_vars_.begin(),
                     signal_vars_.end());
  state_cube_ = manager_->positive_cube(state_vars_);

  if (with_primed_) {
    std::vector<Var> primed;
    to_primed_.resize(manager_->var_count());
    from_primed_.resize(manager_->var_count());
    for (Var v = 0; v < to_primed_.size(); ++v) {
      to_primed_[v] = v;
      from_primed_[v] = v;
    }
    for (pn::PlaceId p = 0; p < stg_->net().place_count(); ++p) {
      primed.push_back(primed_place_vars_[p]);
      to_primed_[place_vars_[p]] = primed_place_vars_[p];
      from_primed_[primed_place_vars_[p]] = place_vars_[p];
    }
    for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) {
      primed.push_back(primed_signal_vars_[s]);
      to_primed_[signal_vars_[s]] = primed_signal_vars_[s];
      from_primed_[primed_signal_vars_[s]] = signal_vars_[s];
    }
    primed_cube_ = manager_->positive_cube(primed);
  } else {
    primed_cube_ = manager_->bdd_true();
  }
}

std::vector<Var> SymbolicStg::place_var_list() const {
  return {place_vars_.begin(), place_vars_.end()};
}

std::vector<Var> SymbolicStg::signal_var_list() const {
  return {signal_vars_.begin(), signal_vars_.end()};
}

Bdd SymbolicStg::place(pn::PlaceId p) const { return manager_->var(place_vars_[p]); }

Bdd SymbolicStg::signal(stg::SignalId s) const {
  return manager_->var(signal_vars_[s]);
}

Bdd SymbolicStg::enabled_signal(stg::SignalId s, stg::Dir dir) const {
  Bdd result = manager_->bdd_false();
  for (pn::TransitionId t : stg_->transitions_of(s, dir)) result |= e_[t];
  return result;
}

Bdd SymbolicStg::enabled_signal_any(stg::SignalId s) const {
  Bdd result = manager_->bdd_false();
  for (pn::TransitionId t : stg_->transitions_of_signal(s)) result |= e_[t];
  return result;
}

const Bdd& SymbolicStg::any_enabled() {
  if (any_enabled_.valid()) return any_enabled_;
  // Pairwise unions, level by level: each cube enters log2(|T|) unions of
  // sets of similar size instead of one ever-growing accumulator.
  std::vector<Bdd> level = e_;
  while (level.size() > 1) {
    std::vector<Bdd> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i] | level[i + 1]);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  any_enabled_ = level.empty() ? manager_->bdd_false() : level.front();
  return any_enabled_;
}

// ---------------------------------------------------------------------------
// States
// ---------------------------------------------------------------------------

Bdd SymbolicStg::marking_cube(const pn::Marking& m) const {
  const pn::PetriNet& net = stg_->net();
  bdd::CubeLiterals literals;
  literals.reserve(net.place_count());
  for (pn::PlaceId p = 0; p < net.place_count(); ++p) {
    if (m.tokens(p) > 1) {
      throw ModelError("symbolic encoding requires a safe marking (place " +
                       net.place_name(p) + " holds " +
                       std::to_string(static_cast<int>(m.tokens(p))) + " tokens)");
    }
    literals.push_back({place_vars_[p], m.tokens(p) == 1});
  }
  return manager_->cube(literals);
}

Bdd SymbolicStg::initial_state() const {
  Bdd state = marking_cube(stg_->net().initial_marking());
  bdd::CubeLiterals literals;
  for (stg::SignalId s = 0; s < stg_->signal_count(); ++s) {
    const std::optional<bool> v = stg_->initial_value(s);
    if (v.has_value()) literals.push_back({signal_vars_[s], *v});
  }
  return state & manager_->cube(literals);
}

// ---------------------------------------------------------------------------
// Image and preimage
// ---------------------------------------------------------------------------

namespace {

/// OR of the place literals a firing of `t` produces into without
/// consuming from: the states where those are already marked are exactly
/// the safeness violations of `t`.
Bdd marked_successor_cube(SymbolicStg& sym, pn::TransitionId t) {
  const pn::PetriNet& net = sym.stg().net();
  const std::vector<pn::PlaceId>& pre = net.preset(t);
  Bdd marked = sym.manager().bdd_false();
  for (pn::PlaceId p : net.postset(t)) {
    if (std::find(pre.begin(), pre.end(), p) != pre.end()) continue;
    marked |= sym.place(p);
  }
  return marked;
}

}  // namespace

Bdd SymbolicStg::image(const Bdd& states, pn::TransitionId t) const {
  // The paper's pipeline: select the enabled part and drop the preset
  // variables (cofactor by E(t)), set the preset to empty, check/cofactor
  // the postset empty, then set the postset full.
  Bdd step = manager_->cofactor(states, e_[t]);
  step &= npm_[t];
  step = manager_->cofactor(step, nsm_[t]);
  step &= asm_[t];
  if (step.is_false()) return step;
  // Keep the consistent half and flip the fired signal's bit. States with
  // the signal already at its post-transition value would be inconsistent
  // firings; the consistency check reports them, the image simply never
  // creates them (Sec. 5.1).
  const stg::TransitionLabel& label = stg_->label(t);
  if (label.is_dummy()) return step;
  const Bdd sig = signal(label.signal);
  if (label.dir == stg::Dir::kPlus) {
    return manager_->cofactor(step, !sig) & sig;
  }
  return manager_->cofactor(step, sig) & !sig;
}

Bdd SymbolicStg::preimage(const Bdd& states, pn::TransitionId t) const {
  // The exact inverse: swap the roles of the four cubes and flip the
  // signal the other way.
  Bdd step = manager_->cofactor(states, asm_[t]);
  step &= nsm_[t];
  step = manager_->cofactor(step, npm_[t]);
  step &= e_[t];
  if (step.is_false()) return step;
  const stg::TransitionLabel& label = stg_->label(t);
  if (label.is_dummy()) return step;
  const Bdd sig = signal(label.signal);
  if (label.dir == stg::Dir::kPlus) {
    return manager_->cofactor(step, sig) & !sig;  // a was 0 before a+
  }
  return manager_->cofactor(step, !sig) & sig;  // a was 1 before a-
}

Bdd SymbolicStg::unsafe_states(const Bdd& states, pn::TransitionId t) {
  Bdd& guard = unsafe_guard_[t];
  if (!guard.valid()) guard = e_[t] & marked_successor_cube(*this, t);
  // The usual answer is "none": decide that without building anything.
  if (states.disjoint_with(guard)) return manager_->bdd_false();
  return states & guard;
}

const Bdd& SymbolicStg::fire_guard(pn::TransitionId t) {
  Bdd& guard = fire_guard_[t];
  if (!guard.valid()) {
    // The three selections of image() (E(t), NSM after the preset is
    // emptied, the signal flip) and of the relations' core constraints.
    guard = e_[t].minus(marked_successor_cube(*this, t));
    const stg::TransitionLabel& label = stg_->label(t);
    if (!label.is_dummy()) {
      const Bdd sig = signal(label.signal);
      guard &= label.dir == stg::Dir::kPlus ? !sig : sig;
    }
  }
  return guard;
}

Bdd SymbolicStg::after_firing(const Bdd& predicate, pn::TransitionId t) {
  Bdd& cube = firing_cube_[t];
  if (!cube.valid()) {
    // The assignment image() leaves: postset full (ASM), preset empty
    // (NPM) except for places the firing also produces into.
    cube = asm_[t] & manager_->exists(npm_[t], asm_[t]);
    const stg::TransitionLabel& label = stg_->label(t);
    if (!label.is_dummy()) {
      const Bdd sig = signal(label.signal);
      cube &= label.dir == stg::Dir::kPlus ? sig : !sig;
    }
  }
  return manager_->cofactor(predicate, cube);
}

// ---------------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------------

// Counted over the state variables only: the primed twins, if any, are
// not part of a state (and would push 2^vars past double range on large
// nets).
double SymbolicStg::count_states(const Bdd& set, bool* exact) const {
  return manager_->sat_count(set, state_vars_.size(), exact);
}

double SymbolicStg::count_markings(const Bdd& set) {
  return manager_->sat_count(manager_->exists(set, signal_cube_),
                             place_vars_.size());
}

double SymbolicStg::count_codes(const Bdd& set, bool* exact) {
  return manager_->sat_count(manager_->exists(set, place_cube_),
                             signal_vars_.size(), exact);
}

}  // namespace stgcheck::core
