// Transition-relation construction over (V, V') variable pairs: the raw
// material for the relational ImageEngine backends (core/image_engine.hpp).
//
// The paper's image operator never builds a relation -- delta_N is four
// cube operations -- which is one of its contributions. This module lets
// that claim be tested against *fair* relational baselines rather than a
// strawman, and it is the door to encodings the cofactor trick cannot
// express (k-bounded places, multi-token arcs): those only need a
// different relation builder behind the same ImageEngine interface.
//
// Two flavours of per-transition relation are built here:
//
//   * full:   T_t(V, V') = E(t) /\ preset empty after /\ postset empty
//             before (safeness premise) /\ postset full after /\ signal
//             flip /\ frame over *every* untouched variable. ORing these
//             yields the classic monolithic relation; its image is
//             image(S) = (exists V : S /\ T)[V' := V].
//
//   * sparse: the same constraints but *no* frame conjuncts -- the
//             relation only mentions the variables the transition touches
//             (preset/postset places and the fired signal). Its image
//             quantifies and renames only that support; untouched
//             variables flow through S unchanged, which is the frame
//             condition for free. Sparse relations are what the
//             partitioned backend clusters: ORing two sparse relations is
//             only sound after padding each with the frame of the other's
//             support (see PartitionedRelationEngine), so clustering by
//             shared support keeps the padding -- and the cluster BDDs --
//             small, and gives each cluster a minimal early-quantification
//             cube.
#pragma once

#include <vector>

#include "core/encoding.hpp"

namespace stgcheck::core {

/// One transition's relation plus the support bookkeeping the relational
/// backends need for clustering and early quantification.
struct TransitionRelation {
  pn::TransitionId t = pn::kNoId;
  bdd::Bdd rel;
  /// Unprimed state variables constrained by `rel`, sorted by id.
  std::vector<bdd::Var> support;
};

/// Full-frame relation of one transition (constrains every state variable).
/// Requires an encoding built with primed variables.
bdd::Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t);

/// Frame-free relation of one transition: constraints only over the
/// variables `t` touches. Requires primed variables.
TransitionRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t);

/// Conjunction of v <-> v' over `vars` (unprimed ids); the frame padding
/// used when sparse relations are merged into one cluster.
bdd::Bdd frame_constraint(SymbolicStg& sym, const std::vector<bdd::Var>& vars);

/// One support-clustered group of sparse relations plus everything an
/// image/preimage step needs: the cluster relation (disjunction of padded
/// members), its quantification cubes and the support-local rename map.
/// Shared by the partitioned and saturation engines.
struct RelationCluster {
  std::vector<pn::TransitionId> transitions;
  bdd::Bdd rel;
  /// Unprimed state variables the cluster constrains, sorted by id.
  std::vector<bdd::Var> support;
  bdd::Bdd quant_cube;         ///< positive cube of `support`
  bdd::Bdd primed_quant_cube;  ///< positive cube of the primed twins
  /// support -> primed twin, identity elsewhere (a support-local rename).
  std::vector<bdd::Var> rename_to_primed;
};

/// Greedily clusters sparse relations by shared support up to `cap` nodes
/// per cluster relation: each relation joins the candidate cluster with
/// the largest support overlap whose padded disjunction stays under the
/// cap, or starts a new cluster. A single transition larger than the cap
/// stays a singleton (a cap cannot split one transition).
std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse,
    std::size_t cap);

/// One singleton cluster per transition, no merging -- and hence none of
/// the padded-disjunction construction cost merging pays (select24's
/// clustered build transiently peaks at ~350k live nodes; the singleton
/// build allocates nothing beyond the sparse relations themselves). This
/// is the saturation backend's partition: the kernel REACH saturates
/// per-relation anyway, so merged clusters only coarsen its level
/// locality.
std::vector<RelationCluster> singleton_clusters(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse);

// ---------------------------------------------------------------------------
// Isomorphic relation templates
// ---------------------------------------------------------------------------

/// One group of structurally isomorphic sparse relations: every member's
/// BDD is a monotone (level-order-preserving) variable rename of the
/// representative's, so one shared *template body* can serve all of them
/// -- fired in place by the kernel's shift mechanism when the member sits
/// at a uniform level displacement (ReachRelation::shift), or stamped out
/// on demand through Manager::permute (memoized) when it does not.
struct RelationTemplateGroup {
  /// Indices into the detected sparse-relation list; members[0] is the
  /// representative whose BDD is the group's template body.
  std::vector<std::size_t> members;
};

/// Result of template detection over a sparse-relation list. Every
/// relation appears in exactly one group; a group of one simply means no
/// isomorphic partner exists.
struct RelationTemplates {
  std::vector<RelationTemplateGroup> groups;
  /// Per relation (indexed like the input list): the variables its BDD
  /// depends on -- unprimed support plus primed twins -- in detection-time
  /// level order. Aligning member i's list with its representative's
  /// elementwise *is* the instantiation map: the rename is monotone by
  /// construction, and the per-epoch shift test checks whether the paired
  /// levels currently differ by one uniform displacement.
  std::vector<std::vector<bdd::Var>> bdd_support;
  /// Groups with at least two members.
  std::size_t shared_groups = 0;
  /// Members served by a body they do not own (sum of members-1 over
  /// shared groups).
  std::size_t instances = 0;
};

/// Groups `sparse` by BDD-shape signature (Manager::shape_signature):
/// two relations land in one group iff their BDDs are monotone variable
/// renames of each other -- the exact precondition for sharing a template
/// body. Grouping compares full signatures, never hashes, so distinct
/// structures are never conflated. Allocates no BDD nodes.
RelationTemplates detect_relation_templates(
    bdd::Manager& m, const std::vector<TransitionRelation>& sparse);

/// Per-transition (or per-cluster) apply data for sparse relational
/// products over the given support: quantification cubes for both
/// directions and the support-local rename map.
struct SparseApplyData {
  bool built = false;
  bdd::Bdd quant_cube;
  bdd::Bdd primed_quant_cube;
  std::vector<bdd::Var> rename_to_primed;
};

SparseApplyData build_sparse_apply(SymbolicStg& sym,
                                   const std::vector<bdd::Var>& support);

}  // namespace stgcheck::core
