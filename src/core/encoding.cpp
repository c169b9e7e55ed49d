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
    case Ordering::kRandom: return "random";
  }
  return "?";
}

std::optional<Ordering> parse_ordering(std::string_view name) {
  for (const Ordering o :
       {Ordering::kInterleaved, Ordering::kClustered, Ordering::kRandom}) {
    if (names_equal_dashed(name, to_string(o))) return o;
  }
  return std::nullopt;
}

std::string valid_ordering_names() {
  return "interleaved, clustered, random";
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
  fire_guard_.resize(net.transition_count());
  firing_cube_.resize(net.transition_count());
  flip_cubes_.resize(net.transition_count());
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    // In the guard, the positive place literals are E(t); every other
    // literal is a premise (a postset-only place empty, the signal at its
    // pre-firing value), and flipping it on top of E(t) gives the states
    // where that premise fails.
    const stg::TransitionLabel& label = stg_->label(t);
    const Var signal =
        label.is_dummy() ? bdd::kInvalidVar : signal_vars_[label.signal];
    bdd::CubeLiterals enabled;
    bdd::CubeLiterals premises;
    for (const bdd::Literal& l : firing_literals(t, false)) {
      (l.var != signal && l.positive ? enabled : premises).push_back(l);
    }
    e_.push_back(manager_->cube(enabled));
    for (const bdd::Literal& l : premises) {
      const bool is_signal = l.var == signal;
      OwnedCubes& list = is_signal ? consistency_cubes_ : safeness_cubes_;
      list.cubes.push_back(enabled);
      list.cubes.back().push_back({l.var, !l.positive});
      list.owners.push_back(is_signal ? 2 * label.signal + (l.positive ? 1 : 0)
                                      : t);
    }
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

bdd::CubeLiterals SymbolicStg::firing_literals(pn::TransitionId t,
                                               bool after) const {
  const pn::PetriNet& net = stg_->net();
  const std::vector<pn::PlaceId>& pre = net.preset(t);
  const std::vector<pn::PlaceId>& post = net.postset(t);
  bdd::CubeLiterals literals;
  for (pn::PlaceId p : pre) {
    const bool refilled = std::find(post.begin(), post.end(), p) != post.end();
    literals.push_back({place_vars_[p], !after || refilled});
  }
  for (pn::PlaceId p : post) {
    if (std::find(pre.begin(), pre.end(), p) != pre.end()) continue;
    literals.push_back({place_vars_[p], after});
  }
  const stg::TransitionLabel& label = stg_->label(t);
  if (!label.is_dummy()) {
    // a+ fires from a = 0 into a = 1, a- the other way.
    literals.push_back(
        {signal_vars_[label.signal], (label.dir == stg::Dir::kPlus) == after});
  }
  return literals;
}

const Bdd& SymbolicStg::fire_guard(pn::TransitionId t) {
  Bdd& guard = fire_guard_[t];
  if (!guard.valid()) guard = manager_->cube(firing_literals(t, false));
  return guard;
}

const Bdd& SymbolicStg::firing_cube(pn::TransitionId t) {
  Bdd& cube = firing_cube_[t];
  if (!cube.valid()) cube = manager_->cube(firing_literals(t, true));
  return cube;
}

const SymbolicStg::FlipCubes& SymbolicStg::flip_cubes(pn::TransitionId t) {
  FlipCubes& cubes = flip_cubes_[t];
  if (cubes.unread.valid()) return cubes;
  // The two sides of the firing rule list the same variables in the same
  // order; a literal that keeps its value is a place t reads and refills.
  const bdd::CubeLiterals before = firing_literals(t, false);
  const bdd::CubeLiterals after = firing_literals(t, true);
  bdd::CubeLiterals pre;
  bdd::CubeLiterals post;
  bdd::CubeLiterals keep;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].positive == after[i].positive) {
      keep.push_back(before[i]);
    } else {
      pre.push_back(before[i]);
      post.push_back(after[i]);
    }
  }
  cubes.pre = manager_->cube(pre);
  cubes.post = manager_->cube(post);
  cubes.unread = !manager_->cube(keep);
  return cubes;
}

Bdd SymbolicStg::image(const Bdd& states, pn::TransitionId t) {
  // The paper's pipeline as one walk: the guard's flipped literals at
  // their pre values select the states t fires from (E(t), the
  // empty-postset test of NSM(t), the consistent signal value), and the
  // walk writes their post values (NPM(t), ASM(t), the flipped signal).
  // States with the signal already at its post-firing value would be
  // inconsistent firings; the consistency check reports them, the image
  // never creates them (Sec. 5.1). The places t reads stay marked, so
  // the walk leaves out the states where one is empty.
  const FlipCubes& cubes = flip_cubes(t);
  return manager_->flip_image(states, cubes.pre, cubes.unread);
}

Bdd SymbolicStg::fresh_image(const Bdd& states, pn::TransitionId t,
                             const Bdd& known) {
  const FlipCubes& cubes = flip_cubes(t);
  return manager_->flip_image(
      states, cubes.pre,
      cubes.unread.is_false() ? known : known | cubes.unread);
}

Bdd SymbolicStg::preimage(const Bdd& states, pn::TransitionId t) {
  // The exact inverse: the same walk from the post values back.
  const FlipCubes& cubes = flip_cubes(t);
  return manager_->flip_image(states, cubes.post, cubes.unread);
}

Bdd SymbolicStg::fresh_preimage(const Bdd& states, pn::TransitionId t,
                                const Bdd& known) {
  const FlipCubes& cubes = flip_cubes(t);
  return manager_->flip_image(
      states, cubes.post,
      cubes.unread.is_false() ? known : known | cubes.unread);
}

Bdd SymbolicStg::after_firing(const Bdd& predicate, pn::TransitionId t) {
  return manager_->cofactor(predicate, firing_cube(t));
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
