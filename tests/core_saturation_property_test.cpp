// The saturation backend: reach_fixpoint against an explicit BFS closure
// on random STGs (with kernel invariants checked after every reach call),
// the per-transition rel_next image against the classic sparse relational
// product, full-traversal agreement with the cofactor reference, and the
// level partition's reorder-epoch refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/saturation.hpp"
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
    SaturationEngine sat(sym);

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

TEST(SaturationProperty, RelNextImageMatchesClassicSparseProduct) {
  Rng rng(0xCAFE5);
  for (int trial = 0; trial < 20; ++trial) {
    stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    SaturationEngine sat(sym);  // image_unit runs rel_next
    bdd::Manager& m = sym.manager();
    // Walk a few frontier steps so the compared state sets are nontrivial.
    Bdd states = sym.initial_state();
    for (int step = 0; step < 3; ++step) {
      for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
        // The classic sparse product: quantify the support, rename back.
        const SparseRelation& r = sat.relations()[t];
        const Bdd classic = m.permute(m.and_exists(states, r.rel, r.quant_cube),
                                      sym.from_primed());
        EXPECT_EQ(sat.image_unit(states, t), classic)
            << "trial " << trial << " step " << step << " t " << t;
      }
      states |= cofactor_step(sym, states);
    }
    sym.manager().check_invariants();
  }
}

TEST(SaturationProperty, TraversalAgreesWithCofactorOnRandomStgs) {
  Rng rng(0xF1B);
  for (int trial = 0; trial < 20; ++trial) {
    stg::Stg s = testutil::random_stg(rng);
    SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    SaturationEngine sat(sym);
    CofactorEngine reference(sym);
    TraversalOptions options;
    options.abort_on_violation = false;
    const TraversalResult a = traverse(sat, options);
    sym.manager().check_invariants();
    const TraversalResult b = traverse(reference, options);
    EXPECT_EQ(a.reached, b.reached) << "trial " << trial;
    EXPECT_DOUBLE_EQ(a.stats.states, b.stats.states);
    EXPECT_EQ(a.consistent, b.consistent);
    EXPECT_EQ(a.safe, b.safe);
    EXPECT_EQ(a.complete, b.complete);
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
  SaturationEngine sat(sym);
  CofactorEngine reference(sym);
  TraversalOptions options;
  options.abort_on_violation = false;
  const TraversalResult x = traverse(sat, options);
  EXPECT_EQ(sat.reach_calls(), 0u);  // the step-wise route was taken
  const TraversalResult y = traverse(reference, options);
  EXPECT_EQ(x.reached, y.reached);
  EXPECT_DOUBLE_EQ(x.stats.states, y.stats.states);
  EXPECT_EQ(x.consistent, y.consistent);
  EXPECT_EQ(x.unbound_signals, y.unbound_signals);
  sym.manager().check_invariants();
}

// ---------------------------------------------------------------------------
// The level partition
// ---------------------------------------------------------------------------

TEST(SaturationPartition, OrderedByTopSupportLevel) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  SaturationEngine eng(sym);
  const std::vector<LevelRelationInfo>& p = eng.partition();
  ASSERT_EQ(p.size(), s.net().transition_count());
  for (std::size_t i = 0; i < p.size(); ++i) {
    // top_level is the recorded variable's current level and the list
    // ascends (ties keep transition order, hence GE not GT).
    EXPECT_EQ(p[i].top_level, sym.manager().level_of_var(p[i].top_var));
    if (i > 0) EXPECT_GE(p[i].top_level, p[i - 1].top_level);
  }
}

TEST(SaturationPartition, RefreshesOnReorderEpoch) {
  stg::Stg s = stg::muller_pipeline(4);
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  SaturationEngine eng(sym);
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

  // The next fixpoint resyncs the partition to the new levels and still
  // computes the same set.
  const Bdd after = eng.reach_fixpoint(init);
  EXPECT_EQ(after, closed);
  for (std::size_t i = 0; i < eng.partition().size(); ++i) {
    const LevelRelationInfo& info = eng.partition()[i];
    EXPECT_EQ(info.top_level, sym.manager().level_of_var(info.top_var));
    if (i > 0) EXPECT_GE(info.top_level, eng.partition()[i - 1].top_level);
  }
  sym.manager().check_invariants();
}

}  // namespace
}  // namespace stgcheck::core
