#include "core/saturation.hpp"

#include <algorithm>

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

std::vector<LevelRelationInfo> level_partition(
    const bdd::Manager& manager, const std::vector<SparseRelation>& relations) {
  std::vector<LevelRelationInfo> partition;
  partition.reserve(relations.size());
  for (pn::TransitionId t = 0; t < relations.size(); ++t) {
    // The support is sorted by variable id; the *top* variable is the one
    // at the smallest current level.
    LevelRelationInfo info;
    info.transition = t;
    for (const Var v : relations[t].support) {
      const std::size_t l = manager.level_of_var(v);
      if (info.top_var == bdd::kInvalidVar || l < info.top_level) {
        info.top_var = v;
        info.top_level = l;
      }
    }
    partition.push_back(info);
  }
  std::stable_sort(partition.begin(), partition.end(),
                   [](const LevelRelationInfo& a, const LevelRelationInfo& b) {
                     return a.top_level < b.top_level;
                   });
  return partition;
}

SaturationEngine::SaturationEngine(SymbolicStg& sym) : ImageEngine(sym) {
  // One relation per transition, never merged: the kernel REACH saturates
  // per relation, so merging buys no locality, and the padded-disjunction
  // construction of merged relations (select24: ~350k transient live
  // nodes) would dominate the whole fixpoint's footprint.
  relations_.reserve(transitions_.size());
  for (const pn::TransitionId t : transitions_) {
    relations_.push_back(build_sparse_relation(sym, t));
  }
  refresh_node_stats();
  rebuild_partition();
}

void SaturationEngine::refresh_node_stats() {
  std::vector<Bdd> rels;
  rels.reserve(relations_.size());
  for (const SparseRelation& r : relations_) rels.push_back(r.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

void SaturationEngine::rebuild_partition() {
  partition_ = level_partition(sym_.manager(), relations_);
  reach_relations_.clear();
  reach_relations_.reserve(partition_.size());
  for (const LevelRelationInfo& info : partition_) {
    const SparseRelation& r = relations_[info.transition];
    reach_relations_.push_back(bdd::ReachRelation{r.rel, r.quant_cube});
  }
}

void SaturationEngine::on_reorder() {
  // Both the node-count statistics and the level partition are shaped by
  // the order; the relation handles themselves survive the reorder.
  refresh_node_stats();
  rebuild_partition();
}

Bdd SaturationEngine::reach_fixpoint(const Bdd& from) {
  sync_with_order();
  ++stats_.image_calls;
  ++reach_calls_;
  StepGauge gauge(*this);
  return sym_.manager().reach(from, reach_relations_);
}

Bdd SaturationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  const SparseRelation& r = relations_[t];
  return sym_.manager().rel_next(states, r.rel, r.quant_cube);
}

Bdd SaturationEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const SparseRelation& r = relations_[t];
  const Bdd primed_states = m.permute(states, r.rename_to_primed);
  return m.and_exists(primed_states, r.rel, r.primed_quant_cube);
}

}  // namespace stgcheck::core
