// The saturation subsystem: the core half of the in-kernel REACH fixpoint.
//
// The paper's traversal -- and all three step-wise backends -- computes
// the reached set as a global breadth-first/chaining fixpoint: frontier
// BDDs spanning the whole state space are materialized once per pass,
// which is exactly where the peak-live blowups live (mread8 chaining
// 1.09M, partitioned+sift 3.86M). Saturation pushes the fixpoint *into*
// the BDD recursion (bdd::Manager::reach, after Brand-Baeck-Laarman,
// arXiv:2212.03684): relations are partitioned by the current level of
// their top support variable, and the kernel saturates the substates
// under every relation at or below a level before anything propagates
// upward. Whole-space frontiers never exist; the working set is the
// final reached BDD plus level-local intermediates.
//
// This module owns the core-side half of that split:
//
//   * level_partition() orders the sparse relation clusters (the same
//     RelationCluster machinery the partitioned engine uses; per-level
//     clustering in the spirit of Appold's isomorphism-exploiting
//     partitioning, arXiv:1106.1229) by top support level. The partition
//     depends on the *current* variable order, so it is rebuilt on every
//     reorder epoch via ImageEngine::sync_with_order().
//
//   * SaturationEngine plugs the operation in behind the standard
//     ImageEngine interface: traverse() detects computes_global_fixpoint()
//     and calls reach_fixpoint() instead of iterating units, while the
//     implementability checks keep using the ordinary per-transition
//     image_via/preimage_via (served from the same sparse relations, with
//     the forward image running through the kernel's rel_next product).
#pragma once

#include "core/image_engine.hpp"

namespace stgcheck::core {

/// One cluster's slot in the level partition.
struct LevelClusterInfo {
  std::size_t cluster = 0;    ///< index into the engine's cluster list
  bdd::Var top_var = bdd::kInvalidVar;  ///< support var highest in the order
  std::size_t top_level = 0;  ///< its current level
};

/// Orders clusters by the current level of their top (highest-in-order)
/// support variable, ascending; ties keep cluster-index order. This is
/// the firing structure the saturation fixpoint works over -- a
/// cluster's image can only change variables at or below its top level.
/// Manager::reach re-derives the same order internally with its own
/// stable sort (the kernel cannot trust callers), so this partition is
/// the engine's introspectable view of it, not a soundness requirement
/// on the operand order.
std::vector<LevelClusterInfo> level_partition(
    const bdd::Manager& manager, const std::vector<RelationCluster>& clusters);

/// The fourth image backend: whole-space reachability through the
/// kernel's REACH operation. Requires an encoding with primed variables
/// (the twin-pair layout is what the kernel's positional rename relies
/// on). Step-wise images for the checks run on the same clusters: the
/// forward image goes through Manager::rel_next (one in-kernel product,
/// no rename pass), the preimage through the classic sparse relational
/// product.
class SaturationEngine final : public ImageEngine {
 public:
  explicit SaturationEngine(SymbolicStg& sym, const EngineOptions& options = {});

  const char* name() const override { return "saturation"; }
  EngineKind kind() const override { return EngineKind::kSaturation; }

  bool computes_global_fixpoint() const override { return true; }
  /// The least fixpoint of `from` under every transition, in one kernel
  /// reach() call.
  bdd::Bdd reach_fixpoint(const bdd::Bdd& from) override;

  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  // Units exist for the checks and for callers that step manually; the
  // traversal itself never iterates them (computes_global_fixpoint). One
  // unit per cluster, in cluster-index order.
  std::size_t unit_count() const override { return clusters_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return clusters_[u].transitions;
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  // ---- Introspection (tests, benches, docs) ------------------------------

  std::size_t cluster_count() const { return clusters_.size(); }
  const std::vector<pn::TransitionId>& cluster_transitions(std::size_t c) const {
    return clusters_[c].transitions;
  }
  /// The current level partition (refreshed on every reorder epoch).
  const std::vector<LevelClusterInfo>& partition() const { return partition_; }
  /// Completed kernel reach() calls.
  std::size_t reach_calls() const { return reach_calls_; }
  /// True when relation-template sharing is live: isomorphic relations
  /// were detected (EngineOptions::relation_templates) and every
  /// non-representative dropped its own BDD in favour of the group's
  /// template body (fired in place via ReachRelation::shift when the
  /// instance sits at a uniform level displacement, stamped out through
  /// the memoized Manager::permute otherwise). kAuto leaves this false --
  /// and the engine bit-identical to kOff -- when no group has two
  /// members.
  bool templates_active() const { return templates_active_; }
  /// The detection result backing the active sharing (empty when off).
  const RelationTemplates& templates() const { return templates_; }

 protected:
  void on_reorder() override;

 private:
  const SparseApplyData& sparse_apply(pn::TransitionId t);
  /// Cluster c's relation BDD: its own body when it has one, the group
  /// template instantiated at c's position (memoized permute) when
  /// template sharing dropped it. Singleton clusters index like
  /// transitions, so `c` doubles as the TransitionId for image_via /
  /// preimage_via.
  bdd::Bdd instance_rel(std::size_t c);
  void refresh_node_stats();
  void rebuild_partition();

  TemplateMode template_mode_;
  std::vector<TransitionRelation> sparse_;     // indexed by transition
  std::vector<SparseApplyData> sparse_apply_;  // per transition, lazily built
  std::vector<RelationCluster> clusters_;
  std::vector<LevelClusterInfo> partition_;
  /// The clusters as kernel reach operands, in partition order.
  std::vector<bdd::ReachRelation> reach_relations_;
  std::size_t reach_calls_ = 0;
  bool templates_active_ = false;
  RelationTemplates templates_;
  /// Per cluster: index of its group's representative (itself when it is
  /// one, or when sharing is off).
  std::vector<std::size_t> rep_of_;
};

}  // namespace stgcheck::core
