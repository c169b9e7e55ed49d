#include "core/saturation.hpp"

namespace stgcheck::core {

using bdd::Bdd;

SaturationEngine::SaturationEngine(SymbolicStg& sym) : ImageEngine(sym) {
  // One relation per transition, never merged: the kernel REACH saturates
  // per relation, so merging buys no locality, and the padded-disjunction
  // construction of merged relations (select24: ~350k transient live
  // nodes) would dominate the whole fixpoint's footprint.
  sparse_.reserve(transitions_.size());
  reach_operands_.reserve(transitions_.size());
  std::vector<Bdd> rels;
  rels.reserve(transitions_.size());
  for (const pn::TransitionId t : transitions_) {
    const SparseRelation& r = sparse_.emplace_back(build_sparse_relation(sym, t));
    reach_operands_.push_back(bdd::ReachRelation{r.rel, r.quant_cube});
    rels.push_back(r.rel);
  }
  stats_.relation_nodes = sym.manager().count_nodes(rels);
}

Bdd SaturationEngine::reach_fixpoint(const Bdd& from) {
  ++stats_.image_calls;
  ++reach_calls_;
  return sym_.manager().reach(from, reach_operands_);
}

Bdd SaturationEngine::image_unit(const Bdd& states, std::size_t u) {
  ++stats_.image_calls;
  const SparseRelation& r = sparse_[u];
  return sym_.manager().rel_next(states, r.rel, r.quant_cube);
}

}  // namespace stgcheck::core
