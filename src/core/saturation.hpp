// The saturation subsystem: the core half of the in-kernel REACH fixpoint.
//
// The paper's traversal -- and the two step-wise backends -- computes the
// reached set as a global chaining fixpoint: frontier BDDs
// spanning the whole state space are materialized once per pass, which is
// exactly where the peak-live blowups live (mread8 chaining 1.31M).
// Saturation pushes the fixpoint *into* the BDD recursion
// (bdd::Manager::reach, after Brand-Baeck-Laarman, arXiv:2212.03684):
// the kernel orders the relations by the current level of their top
// support variable and saturates the substates under every relation at
// or below a level before anything propagates upward. Whole-space
// frontiers never exist; the working set is the final reached BDD plus
// level-local intermediates.
//
// SaturationEngine is the core-side half of that split: it builds one
// sparse relation per transition (core/relation.hpp) and hands them to
// the kernel in transition order; the kernel owns the rule order, so a
// reorder needs nothing rebuilt here. It plugs the operation in behind
// the standard ImageEngine interface: traverse() detects
// computes_global_fixpoint() and calls reach_fixpoint() instead of
// iterating units. Its per-transition image_unit (the kernel's rel_next
// product) serves the step-wise loop a net with unbound initial values
// falls back to. The implementability checks never see the engine: they
// run on the encoding (SymbolicStg's fire guards and cofactor image).
#pragma once

#include "core/image_engine.hpp"
#include "core/relation.hpp"

namespace stgcheck::core {

/// The third image backend: whole-space reachability through the kernel's
/// REACH operation. Requires an encoding with primed variables (the
/// twin-pair layout is what the kernel's positional rename relies on).
/// Step-wise images run on the same per-transition relations through
/// Manager::rel_next (one in-kernel product, no rename pass).
class SaturationEngine final : public ImageEngine {
 public:
  explicit SaturationEngine(SymbolicStg& sym);

  const char* name() const override { return "saturation"; }
  EngineKind kind() const override { return EngineKind::kSaturation; }

  bool computes_global_fixpoint() const override { return true; }
  /// The least fixpoint of `from` under every transition, in one kernel
  /// reach() call.
  bdd::Bdd reach_fixpoint(const bdd::Bdd& from) override;

  /// Successors of `states` under transition u, through its relation.
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  // ---- Introspection (tests, benches, docs) ------------------------------

  /// The sparse relations, indexed by transition.
  const std::vector<SparseRelation>& relations() const { return sparse_; }
  /// Completed kernel reach() calls.
  std::size_t reach_calls() const { return reach_calls_; }

 private:
  std::vector<SparseRelation> sparse_;  // indexed by transition
  /// The relations as kernel reach operands, in transition order
  /// (Manager::reach sorts its rules by top support level itself).
  std::vector<bdd::ReachRelation> reach_operands_;
  std::size_t reach_calls_ = 0;
};

}  // namespace stgcheck::core
