// Transition relations: the relational backends must agree exactly with
// the paper's cofactor-pipeline image on every net and every transition,
// and relational traversal must reach the same fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/image_engine.hpp"
#include "core/relation.hpp"
#include "core/saturation.hpp"
#include "core/traversal.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

TEST(Permute, RenamesVariables) {
  bdd::Manager m;
  Bdd a = m.new_var("a");
  Bdd ap = m.new_var("a'");
  Bdd b = m.new_var("b");
  Bdd bp = m.new_var("b'");
  std::vector<bdd::Var> to_primed{1, 1, 3, 3};
  Bdd f = a & !b;
  EXPECT_EQ(m.permute(f, to_primed), ap & !bp);
  std::vector<bdd::Var> from_primed{0, 0, 2, 2};
  EXPECT_EQ(m.permute(m.permute(f, to_primed), from_primed), f);
}

TEST(Permute, WorksOnAnyVariableOrder) {
  bdd::Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  // Swapping a and b is not monotone in the order; the level-aware rename
  // handles it anyway.
  std::vector<bdd::Var> swap{1, 0};
  EXPECT_EQ(m.permute(a & !b, swap), b & !a);
  EXPECT_EQ(m.permute(m.permute(a & !b, swap), swap), a & !b);
  // Incomplete maps still throw.
  EXPECT_THROW(m.permute(a & b, std::vector<bdd::Var>{0}), ModelError);
}

TEST(Permute, CrossCallMemoServesRepeatedCalls) {
  bdd::Manager m;
  Bdd a = m.new_var("a");
  Bdd ap = m.new_var("a'");
  Bdd b = m.new_var("b");
  Bdd bp = m.new_var("b'");
  std::vector<bdd::Var> to_primed{1, 1, 3, 3};
  const Bdd f = a & !b;
  const Bdd first = m.permute(f, to_primed);
  EXPECT_EQ(first, ap & !bp);

  // The second identical call must be served by the cross-call memo: one
  // lookup, one hit, no recursion underneath.
  const std::size_t lookups = m.stats().cache_lookups;
  const std::size_t hits = m.stats().cache_hits;
  EXPECT_EQ(m.permute(f, to_primed), first);
  EXPECT_EQ(m.stats().cache_lookups, lookups + 1);
  EXPECT_EQ(m.stats().cache_hits, hits + 1);

  // A different map over the same operand is a different key: the full-key
  // compare must not serve the memoized result for it.
  std::vector<bdd::Var> swap{2, 3, 0, 1};
  EXPECT_EQ(m.permute(f, swap), b & !a);
  m.check_invariants();
}

TEST(Relation, RequiresPrimedEncoding) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);  // no primed vars
  EXPECT_THROW(MonolithicRelationEngine engine(sym), ModelError);
  EXPECT_THROW(SaturationEngine engine(sym), ModelError);
  EXPECT_THROW(build_full_relation(sym, 0), ModelError);
  EXPECT_THROW(build_sparse_relation(sym, 0), ModelError);
}

class RelationAgainstPipeline : public ::testing::TestWithParam<int> {
 protected:
  static stg::Stg make(int index) {
    switch (index) {
      case 0: return stg::muller_pipeline(4);
      case 1: return stg::master_read(3);
      case 2: return stg::mutex_arbiter(3);
      case 3: return stg::select_chain(2);
      case 4: return stg::examples::vme_read();
      default: return stg::examples::input_pulse_counter();
    }
  }

  void SetUp() override {
    net = std::make_unique<stg::Stg>(make(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    engine = std::make_unique<MonolithicRelationEngine>(*sym);
    traversal = traverse(*sym);
    ASSERT_TRUE(traversal.ok());
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<MonolithicRelationEngine> engine;
  TraversalResult traversal;
};

TEST_P(RelationAgainstPipeline, PerTransitionImagesAgree) {
  // Each full relation, applied alone, images exactly what the cofactor
  // pipeline does.
  bdd::Manager& m = sym->manager();
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    const Bdd next_primed = m.and_exists(
        traversal.reached, build_full_relation(*sym, t), sym->state_cube());
    EXPECT_EQ(m.permute(next_primed, sym->from_primed()),
              sym->image(traversal.reached, t))
        << net->format_label(t);
  }
}

TEST_P(RelationAgainstPipeline, MonolithicImageIsTheUnion) {
  Bdd expected = sym->manager().bdd_false();
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    expected |= sym->image(traversal.reached, t);
  }
  EXPECT_EQ(engine->image_unit(traversal.reached, 0), expected);
}

TEST_P(RelationAgainstPipeline, RelationalTraversalMatches) {
  TraversalResult r = traverse(*engine);
  EXPECT_EQ(r.reached, traversal.reached);
  EXPECT_GT(r.stats.passes, 0u);
  EXPECT_TRUE(r.ok());
}

TEST_P(RelationAgainstPipeline, FullRelationIsSparsePlusFrame) {
  // The sparse relation conjoined with the frame of every untouched state
  // variable is exactly the full relation.
  std::vector<bdd::Var> state_vars = sym->place_var_list();
  const std::vector<bdd::Var> signals = sym->signal_var_list();
  state_vars.insert(state_vars.end(), signals.begin(), signals.end());
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    const SparseRelation sparse = build_sparse_relation(*sym, t);
    std::vector<bdd::Var> untouched;
    for (bdd::Var v : state_vars) {
      if (std::find(sparse.support.begin(), sparse.support.end(), v) ==
          sparse.support.end()) {
        untouched.push_back(v);
      }
    }
    EXPECT_EQ(sparse.rel & frame_constraint(*sym, untouched),
              build_full_relation(*sym, t))
        << net->format_label(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, RelationAgainstPipeline, ::testing::Range(0, 6));

TEST(Relation, CountsUnaffectedByPrimedVars) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg plain(s);
  SymbolicStg primed(s, Ordering::kInterleaved, 1 << 14, true);
  TraversalResult r1 = traverse(plain);
  TraversalResult r2 = traverse(primed);
  EXPECT_DOUBLE_EQ(r1.stats.states, r2.stats.states);
  EXPECT_DOUBLE_EQ(r1.stats.markings, r2.stats.markings);
  EXPECT_DOUBLE_EQ(plain.count_codes(r1.reached), primed.count_codes(r2.reached));
}

}  // namespace
}  // namespace stgcheck::core
