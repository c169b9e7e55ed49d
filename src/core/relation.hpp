// Transition-relation construction over (V, V') variable pairs: the raw
// material for the relational ImageEngine backends (core/image_engine.hpp).
//
// The paper's image operator never builds a relation -- delta_N is four
// cube operations -- which is one of its contributions. This module lets
// that claim be tested against relational baselines, and it is the door
// to encodings the cofactor trick cannot express (k-bounded places,
// multi-token arcs): those only need a different relation builder behind
// the same ImageEngine interface.
//
// Two flavours of per-transition relation are built here:
//
//   * full:   T_t(V, V') = E(t) /\ preset empty after /\ postset empty
//             before (safeness premise) /\ postset full after /\ signal
//             flip /\ frame over *every* untouched variable. ORing these
//             yields the monolithic engine's relation; its image is
//             image(S) = (exists V : S /\ T)[V' := V].
//
//   * sparse: the same constraints but *no* frame conjuncts -- the
//             relation only mentions the variables the transition touches
//             (preset/postset places and the fired signal). Its image
//             quantifies and renames only that support; untouched
//             variables flow through S unchanged, which is the frame
//             condition for free. The sparse record carries the cube
//             the image and the kernel's REACH quantify; the saturation
//             engine keeps one per transition.
#pragma once

#include <vector>

#include "core/encoding.hpp"

namespace stgcheck::core {

/// One transition's frame-free relation plus everything a sparse image
/// step needs.
struct SparseRelation {
  bdd::Bdd rel;
  /// Unprimed state variables constrained by `rel`, sorted by id.
  std::vector<bdd::Var> support;
  bdd::Bdd quant_cube;         ///< positive cube of `support`
  // No code reads this cube. It stays until the next benchmark change:
  // building it creates nodes, so dropping it moves every saturation peak
  // (ROADMAP item 1).
  bdd::Bdd primed_quant_cube;  ///< positive cube of the primed twins
};

/// Full-frame relation of one transition (constrains every state variable).
/// Requires an encoding built with primed variables.
bdd::Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t);

/// Frame-free relation of one transition: constraints only over the
/// variables `t` touches, with its cubes. Requires primed
/// variables.
SparseRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t);

/// Conjunction of v <-> v' over `vars` (unprimed ids): the frame the full
/// relation adds over the variables a transition does not touch.
bdd::Bdd frame_constraint(SymbolicStg& sym, const std::vector<bdd::Var>& vars);

}  // namespace stgcheck::core
