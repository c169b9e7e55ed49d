// Transition-relation construction over (V, V') variable pairs: the raw
// material for the relational ImageEngine backends (core/image_engine.hpp).
//
// The paper's image operator never builds a relation -- delta_N is four
// cube steps over the transition's own support, which the kernel runs as
// one cube substitution -- and that is one of its contributions. This
// module lets that claim be tested against relational baselines. It
// states no firing rule of its own: both relations are read off
// SymbolicStg::firing_literals, the rule the cofactor image fires by.
//
// Two flavours of per-transition relation are built here:
//
//   * sparse: the guard/post cube pair as one cube, the fire guard over
//             V and the post cube over V' (E(t), postset-only places
//             empty and the signal's pre-firing value before; the
//             places t leaves marked or empty and the flipped signal
//             after). It mentions only the variables t touches; its
//             image quantifies and renames only that support, and
//             untouched variables flow through S unchanged, which is the
//             frame condition for free. The sparse record carries the
//             cube the image and the kernel's REACH quantify; the
//             saturation engine keeps one per transition.
//
//   * full:   the sparse cube /\ a frame v <-> v' over *every* untouched
//             state variable. ORing these yields the monolithic engine's
//             relation; its image is image(S) = (exists V : S /\ T)[V' := V].
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
  bdd::Bdd quant_cube;  ///< positive cube of `support`
};

/// Full-frame relation of one transition (constrains every state variable).
/// Requires an encoding built with primed variables.
bdd::Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t);

/// Frame-free relation of one transition: its fire guard over V and its
/// post cube over V', with the quantification cube of that support.
/// Requires primed variables.
SparseRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t);

/// Conjunction of v <-> v' over `vars` (unprimed ids): the frame the full
/// relation adds over the variables a transition does not touch.
bdd::Bdd frame_constraint(SymbolicStg& sym, const std::vector<bdd::Var>& vars);

}  // namespace stgcheck::core
