// The saturation backend: reach_fixpoint against an explicit BFS closure
// on random STGs (with kernel invariants checked after every reach call),
// the per-transition rel_next image against the paper's cofactor image
// (before and after a sift),
// full-traversal agreement with the cofactor reference, and the same
// fixpoint after a reorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

/// One full step of the paper's cofactor image: successors under every
/// transition.
Bdd cofactor_step(SymbolicStg& sym, const Bdd& states) {
  Bdd next = sym.manager().bdd_false();
  for (pn::TransitionId t = 0; t < sym.stg().net().transition_count(); ++t) {
    next |= sym.image(states, t);
  }
  return next;
}

/// The oracle closure: iterate full image steps to the fixpoint.
Bdd bfs_closure(SymbolicStg& sym, Bdd states) {
  for (;;) {
    const Bdd next = states | cofactor_step(sym, states);
    if (next == states) return states;
    states = next;
  }
}

TEST(SaturationProperty, ReachFixpointEqualsBfsClosureOnRandomStgs) {
  Rng rng(0x5A7BDD);
  for (int trial = 0; trial < 30; ++trial) {
    stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    ImageEngine sat(EngineKind::kSaturation, sym);

    const Bdd init = sym.initial_state();
    const Bdd closed = sat.reach_fixpoint(init);
    sym.manager().check_invariants();

    // The in-kernel fixpoint must equal the step-wise closure computed by
    // the paper's cofactor pipeline -- and re-closing must be a no-op.
    EXPECT_EQ(closed, bfs_closure(sym, init)) << "trial " << trial;
    EXPECT_EQ(sat.reach_fixpoint(closed), closed) << "trial " << trial;
    sym.manager().check_invariants();
  }
}

TEST(SaturationProperty, RelNextImageMatchesCofactorImage) {
  Rng rng(0xCAFE5);
  for (int trial = 0; trial < 20; ++trial) {
    stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    // Its step-wise fresh_unit runs rel_next on one sparse relation.
    ImageEngine sat(EngineKind::kSaturation, sym);
    const Bdd none = sym.manager().bdd_false();
    // The sparse relation's product against the relation-free image.
    const auto check = [&](const Bdd& states, const char* when) {
      for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
        EXPECT_EQ(sat.fresh_unit(states, t, none), sym.image(states, t))
            << "trial " << trial << " " << when << " t " << t;
      }
    };
    // Walk a few frontier steps so the compared state sets are nontrivial.
    Bdd states = sym.initial_state();
    for (int step = 0; step < 3; ++step) {
      check(states, "before sift");
      states |= cofactor_step(sym, states);
    }
    sym.manager().sift();
    check(states, "after sift");
    sym.manager().check_invariants();
  }
}

TEST(SaturationProperty, TraversalAgreesWithCofactorOnRandomStgs) {
  Rng rng(0xF1B);
  for (int trial = 0; trial < 20; ++trial) {
    stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    ImageEngine sat(EngineKind::kSaturation, sym);
    ImageEngine reference(EngineKind::kCofactor, sym);
    const TraversalResult a = traverse(sat);
    sym.manager().check_invariants();
    const TraversalResult b = traverse(reference);
    EXPECT_EQ(a.reached, b.reached) << "trial " << trial;
    EXPECT_DOUBLE_EQ(a.stats.states, b.stats.states);
    EXPECT_EQ(a.consistent, b.consistent);
    EXPECT_EQ(a.safe, b.safe);
    EXPECT_EQ(a.consistency_violations, b.consistency_violations);
  }
}

TEST(SaturationProperty, LazyBindingNetsRouteStepWiseAndStillAgree) {
  // A ring a+ -> b+ -> a- -> b- with no declared initial values: a binds
  // in the preamble (a+ is enabled in the initial state), but b only
  // binds once b+ becomes enabled mid-traversal. Binding infers initial
  // values from the *first* enabling -- a temporal fact the closed set
  // has erased -- so traverse() must route this net through the
  // step-wise unit loop (the engine's kernel fixpoint stays unused) and
  // still agree with the cofactor reference bit for bit.
  stg::Stg s;
  s.set_name("lazy");
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  const stg::SignalId b = s.add_signal("b", stg::SignalKind::kOutput);
  const pn::TransitionId ap = s.add_transition(a, stg::Dir::kPlus);
  const pn::TransitionId bp = s.add_transition(b, stg::Dir::kPlus);
  const pn::TransitionId am = s.add_transition(a, stg::Dir::kMinus);
  const pn::TransitionId bm = s.add_transition(b, stg::Dir::kMinus);
  s.connect(ap, bp, 0);
  s.connect(bp, am, 0);
  s.connect(am, bm, 0);
  s.connect(bm, ap, 1);  // token before a+
  ASSERT_FALSE(s.all_initial_values_known());

  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  ImageEngine sat(EngineKind::kSaturation, sym);
  ImageEngine reference(EngineKind::kCofactor, sym);
  const TraversalResult x = traverse(sat);
  // The step-wise route was taken: the kernel's REACH never ran.
  EXPECT_EQ(sym.manager().profile().op(bdd::OpKind::kReach).calls, 0u);
  const TraversalResult y = traverse(reference);
  EXPECT_EQ(x.reached, y.reached);
  EXPECT_DOUBLE_EQ(x.stats.states, y.stats.states);
  EXPECT_EQ(x.consistent, y.consistent);
  EXPECT_EQ(x.unbound_signals, y.unbound_signals);
  sym.manager().check_invariants();
}

// ---------------------------------------------------------------------------
// Reordering: the kernel sorts the rules by their current levels
// ---------------------------------------------------------------------------

TEST(SaturationReorder, SameFixpointAfterBlockReversal) {
  stg::Stg s = stg::muller_pipeline(4);
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  ImageEngine eng(EngineKind::kSaturation, sym);
  const Bdd init = sym.initial_state();
  const Bdd closed = eng.reach_fixpoint(init);

  // Reverse the order block-wise: every (v, v') pair keeps its internal
  // order (groups demand it) but the blocks flip end to end, so every
  // relation's top level changes.
  const std::vector<Var> order = sym.manager().current_order();
  ASSERT_EQ(order.size() % 2, 0u);
  std::vector<Var> reversed;
  for (std::size_t block = order.size() / 2; block-- > 0;) {
    reversed.push_back(order[2 * block]);
    reversed.push_back(order[2 * block + 1]);
  }
  sym.manager().reorder(reversed);
  sym.manager().check_invariants();

  // The engine hands the kernel the same relation list; REACH orders it
  // by the new levels and computes the same set.
  const Bdd after = eng.reach_fixpoint(init);
  EXPECT_EQ(after, closed);
  sym.manager().check_invariants();
}

}  // namespace
}  // namespace stgcheck::core
