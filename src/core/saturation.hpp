// The saturation subsystem: the core half of the in-kernel REACH fixpoint.
//
// The paper's traversal -- and the two step-wise backends -- computes the
// reached set as a global breadth-first/chaining fixpoint: frontier BDDs
// spanning the whole state space are materialized once per pass, which is
// exactly where the peak-live blowups live (mread8 chaining 1.09M).
// Saturation pushes the fixpoint *into* the BDD recursion
// (bdd::Manager::reach, after Brand-Baeck-Laarman, arXiv:2212.03684):
// relations are partitioned by the current level of their top support
// variable, and the kernel saturates the substates under every relation
// at or below a level before anything propagates upward. Whole-space
// frontiers never exist; the working set is the final reached BDD plus
// level-local intermediates.
//
// This module owns the core-side half of that split:
//
//   * level_partition() orders the per-transition sparse relations
//     (core/relation.hpp) by top support level. The partition depends on
//     the *current* variable order, so it is rebuilt on every reorder
//     epoch via ImageEngine::sync_with_order().
//
//   * SaturationEngine plugs the operation in behind the standard
//     ImageEngine interface: traverse() detects computes_global_fixpoint()
//     and calls reach_fixpoint() instead of iterating units. The
//     implementability checks test the reached set against the engine's
//     fire guards (ImageEngine::fire_guard/after_firing) and image nothing
//     per pair; only a violation's one-state witness and the
//     CSC-reducibility closure step through image_via/preimage_via, which
//     are served from the same sparse relations (the forward image through
//     the kernel's rel_next product).
#pragma once

#include "core/image_engine.hpp"
#include "core/relation.hpp"

namespace stgcheck::core {

/// One relation's slot in the level partition.
struct LevelRelationInfo {
  pn::TransitionId transition = 0;      ///< index into the relation list
  bdd::Var top_var = bdd::kInvalidVar;  ///< support var highest in the order
  std::size_t top_level = 0;            ///< its current level
};

/// Orders per-transition relations by the current level of their top
/// (highest-in-order) support variable, ascending; ties keep transition
/// order. This is the firing structure the saturation fixpoint works over
/// -- a relation's image can only change variables at or below its top
/// level. Manager::reach re-derives the same order internally with its
/// own stable sort (the kernel cannot trust callers), so this partition
/// is the engine's introspectable view of it, not a soundness requirement
/// on the operand order.
std::vector<LevelRelationInfo> level_partition(
    const bdd::Manager& manager, const std::vector<SparseRelation>& relations);

/// The third image backend: whole-space reachability through the kernel's
/// REACH operation. Requires an encoding with primed variables (the
/// twin-pair layout is what the kernel's positional rename relies on).
/// Step-wise images run on the same per-transition relations: the forward
/// image goes through Manager::rel_next (one in-kernel product, no rename
/// pass), the preimage through the classic sparse relational product.
class SaturationEngine final : public ImageEngine {
 public:
  explicit SaturationEngine(SymbolicStg& sym);

  const char* name() const override { return "saturation"; }
  EngineKind kind() const override { return EngineKind::kSaturation; }

  bool computes_global_fixpoint() const override { return true; }
  /// The least fixpoint of `from` under every transition, in one kernel
  /// reach() call.
  bdd::Bdd reach_fixpoint(const bdd::Bdd& from) override;

  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  // ---- Introspection (tests, benches, docs) ------------------------------

  /// The sparse relations, indexed by transition.
  const std::vector<SparseRelation>& relations() const { return relations_; }
  /// The current level partition (refreshed on every reorder epoch).
  const std::vector<LevelRelationInfo>& partition() const { return partition_; }
  /// Completed kernel reach() calls.
  std::size_t reach_calls() const { return reach_calls_; }

 protected:
  void on_reorder() override;

 private:
  void refresh_node_stats();
  void rebuild_partition();

  std::vector<SparseRelation> relations_;  // indexed by transition
  std::vector<LevelRelationInfo> partition_;
  /// The relations as kernel reach operands, in partition order.
  std::vector<bdd::ReachRelation> reach_relations_;
  std::size_t reach_calls_ = 0;
};

}  // namespace stgcheck::core
