#include "core/relation.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/flat_map.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

namespace {

void require_primed(const SymbolicStg& sym) {
  if (!sym.has_primed_vars()) {
    throw ModelError("transition relations need an encoding with primed "
                     "variables (SymbolicStg(..., with_primed_vars = true))");
  }
}

/// The constraints shared by both relation flavours: token moves for the
/// places around `t` and the fired signal's flip, one primitive constraint
/// per touched variable. Sets `support` to the touched unprimed variables,
/// sorted by id, and returns the conjunction: the sparse relation.
Bdd core_constraints(SymbolicStg& sym, pn::TransitionId t,
                     std::vector<Var>& support) {
  bdd::Manager& m = sym.manager();
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  const std::vector<pn::PlaceId>& pre = net.preset(t);
  const std::vector<pn::PlaceId>& post = net.postset(t);
  // Binary-searchable membership (util/flat_map.hpp) instead of a linear
  // std::find per query: presets of wide joins make this quadratic.
  const FlatSet<pn::PlaceId> pre_set(pre.begin(), pre.end());
  const FlatSet<pn::PlaceId> post_set(post.begin(), post.end());
  std::vector<Bdd> factors;
  const auto in_pre = [&](pn::PlaceId p) { return pre_set.contains(p); };
  const auto in_post = [&](pn::PlaceId p) { return post_set.contains(p); };

  const auto touch_place = [&](pn::PlaceId p) {
    const Bdd cur = m.var(sym.place_var(p));
    const Bdd nxt = m.var(sym.primed_place_var(p));
    support.push_back(sym.place_var(p));
    if (in_pre(p) && in_post(p)) {
      factors.push_back(cur & nxt);  // self-loop place: stays marked
    } else if (in_pre(p)) {
      factors.push_back(cur & !nxt);  // consumed
    } else {
      factors.push_back((!cur) & nxt);  // produced; !cur is the safeness premise
    }
  };
  for (pn::PlaceId p : pre) touch_place(p);
  for (pn::PlaceId p : post) {
    if (!in_pre(p)) touch_place(p);
  }

  const stg::TransitionLabel& label = stg.label(t);
  if (!label.is_dummy()) {
    const Bdd cur = m.var(sym.signal_var(label.signal));
    const Bdd nxt = m.var(sym.primed_signal_var(label.signal));
    support.push_back(sym.signal_var(label.signal));
    factors.push_back(label.dir == stg::Dir::kPlus ? ((!cur) & nxt)
                                                   : (cur & !nxt));
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  Bdd rel = m.bdd_true();
  for (const Bdd& f : factors) rel &= f;
  return rel;
}

}  // namespace

Bdd frame_constraint(SymbolicStg& sym, const std::vector<Var>& vars) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  Bdd frame = m.bdd_true();
  for (Var v : vars) {
    frame &= !(m.var(v) ^ m.var(to_primed[v]));
  }
  return frame;
}

SparseRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  SparseRelation r;
  r.rel = core_constraints(sym, t, r.support);
  r.quant_cube = sym.manager().positive_cube(r.support);
  return r;
}

Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  std::vector<Var> support;
  const Bdd sparse = core_constraints(sym, t, support);
  // Frame every state variable the transition does not touch.
  std::vector<Var> untouched;
  std::vector<Var> state_vars = sym.place_var_list();
  const std::vector<Var> signals = sym.signal_var_list();
  state_vars.insert(state_vars.end(), signals.begin(), signals.end());
  for (Var v : state_vars) {
    if (!std::binary_search(support.begin(), support.end(), v)) {
      untouched.push_back(v);
    }
  }
  return sparse & frame_constraint(sym, untouched);
}

}  // namespace stgcheck::core
