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
