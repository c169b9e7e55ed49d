#include "core/relation.hpp"

#include <algorithm>

#include "util/error.hpp"

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

/// The firing rule of `t` as one cube: its guard over the unprimed
/// variables and its post cube over their primed twins
/// (SymbolicStg::firing_literals). Sets `support` to the guard's
/// variables, sorted by id.
Bdd guard_post_cube(SymbolicStg& sym, pn::TransitionId t,
                    std::vector<Var>& support) {
  const std::vector<Var>& to_primed = sym.to_primed();
  bdd::CubeLiterals literals = sym.firing_literals(t, false);
  for (const bdd::Literal& l : literals) support.push_back(l.var);
  std::sort(support.begin(), support.end());
  for (const bdd::Literal& l : sym.firing_literals(t, true)) {
    literals.push_back({to_primed[l.var], l.positive});
  }
  return sym.manager().cube(literals);
}

}  // namespace

Bdd frame_constraint(SymbolicStg& sym, const std::vector<Var>& vars) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  // Bottom-up in level order, as Manager::cube builds a cube: each
  // v <-> v' pair lands above the frame built so far, so a step makes a
  // few nodes instead of walking the whole frame.
  std::vector<Var> bottom_up = vars;
  std::sort(bottom_up.begin(), bottom_up.end(), [&](Var a, Var b) {
    return m.level_of_var(a) > m.level_of_var(b);
  });
  Bdd frame = m.bdd_true();
  for (Var v : bottom_up) {
    frame &= !(m.var(v) ^ m.var(to_primed[v]));
  }
  return frame;
}

SparseRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  SparseRelation r;
  r.rel = guard_post_cube(sym, t, r.support);
  r.quant_cube = sym.manager().positive_cube(r.support);
  return r;
}

Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  std::vector<Var> support;
  const Bdd sparse = guard_post_cube(sym, t, support);
  // Frame every state variable the transition does not touch.
  std::vector<Var> untouched;
  for (Var v : sym.state_var_list()) {
    if (!std::binary_search(support.begin(), support.end(), v)) {
      untouched.push_back(v);
    }
  }
  return sparse & frame_constraint(sym, untouched);
}

}  // namespace stgcheck::core
