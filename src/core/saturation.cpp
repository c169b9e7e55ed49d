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
  sparse_.reserve(transitions_.size());
  for (const pn::TransitionId t : transitions_) {
    sparse_.push_back(build_sparse_relation(sym, t));
  }
  refresh_node_stats();
  rebuild_partition();
}

void SaturationEngine::refresh_node_stats() {
  std::vector<Bdd> rels;
  rels.reserve(sparse_.size());
  for (const SparseRelation& r : sparse_) rels.push_back(r.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

void SaturationEngine::rebuild_partition() {
  partition_ = level_partition(sym_.manager(), sparse_);
  reach_operands_.clear();
  reach_operands_.reserve(partition_.size());
  for (const LevelRelationInfo& info : partition_) {
    const SparseRelation& r = sparse_[info.transition];
    reach_operands_.push_back(bdd::ReachRelation{r.rel, r.quant_cube});
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
  return sym_.manager().reach(from, reach_operands_);
}

Bdd SaturationEngine::image_unit(const Bdd& states, std::size_t u) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  const SparseRelation& r = sparse_[u];
  return sym_.manager().rel_next(states, r.rel, r.quant_cube);
}

}  // namespace stgcheck::core
