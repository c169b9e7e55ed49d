// Dynamic reordering on primed encodings -- the regression suite for the
// permute/reordering conflict. Before variable groups and the level-aware
// rename, sifting a primed encoding scattered the twin pairs and the next
// relational image/preimage died with "permutation is not monotone";
// these tests pin the fix: any engine keeps computing identical images
// across sift() and explicit reorder() calls, and no reorder ever
// separates a primed pair.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

/// Every primed twin must sit directly below its variable: the invariant
/// the (v, v') manager groups preserve across reorders.
void expect_pairs_adjacent(const SymbolicStg& sym) {
  const bdd::Manager& m = sym.manager();
  const pn::PetriNet& net = sym.stg().net();
  for (pn::PlaceId p = 0; p < net.place_count(); ++p) {
    EXPECT_EQ(m.level_of_var(sym.primed_place_var(p)),
              m.level_of_var(sym.place_var(p)) + 1)
        << "place " << net.place_name(p) << " split from its twin";
  }
  for (stg::SignalId s = 0; s < sym.stg().signal_count(); ++s) {
    EXPECT_EQ(m.level_of_var(sym.primed_signal_var(s)),
              m.level_of_var(sym.signal_var(s)) + 1)
        << "signal " << sym.stg().signal_name(s) << " split from its twin";
  }
}

/// The current order with the sequence of (v, v') blocks reversed: a
/// legal manual reorder (groups intact) that changes the relative order
/// of every pair of blocks, which the pre-fix permute could not survive.
std::vector<Var> reversed_block_order(const SymbolicStg& sym) {
  const bdd::Manager& m = sym.manager();
  const std::vector<Var> order = m.current_order();
  std::vector<std::vector<Var>> blocks;
  for (std::size_t lev = 0; lev < order.size();) {
    std::vector<Var> block{order[lev]};
    // Primed encodings group every variable with its twin; anything
    // ungrouped (none today) stays a singleton.
    if (lev + 1 < order.size() &&
        order[lev + 1] == sym.to_primed()[order[lev]] &&
        order[lev + 1] != order[lev]) {
      block.push_back(order[lev + 1]);
    }
    lev += block.size();
    blocks.push_back(std::move(block));
  }
  std::vector<Var> reversed;
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    reversed.insert(reversed.end(), it->begin(), it->end());
  }
  return reversed;
}

class EngineReorder : public ::testing::TestWithParam<std::tuple<int, EngineKind>> {
 protected:
  static stg::Stg make(int index) {
    switch (index) {
      case 0: return stg::muller_pipeline(4);
      case 1: return stg::master_read(3);
      case 2: return stg::mutex_arbiter(3);
      default: return stg::examples::vme_read();
    }
  }

  void SetUp() override {
    net = std::make_unique<stg::Stg>(make(std::get<0>(GetParam())));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    engine = make_engine(std::get<1>(GetParam()), *sym);
    TraversalOptions options;
    options.auto_sift = false;  // the tests reorder explicitly
    traversal = traverse(*engine, options);
    ASSERT_TRUE(traversal.ok());
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<ImageEngine> engine;
  TraversalResult traversal;
};

// The headline regression: reorder the manager under a live engine, then
// compute images and preimages. Pre-fix this threw ModelError
// ("permutation is not monotone") on both relational backends.
TEST_P(EngineReorder, ImagesSurviveSiftingAndManualReorder) {
  const Bdd& reached = traversal.reached;
  const Bdd image_before = engine->image(reached);
  const Bdd preimage_before = engine->preimage(reached);

  sym->manager().sift();
  expect_pairs_adjacent(*sym);
  EXPECT_EQ(engine->image(reached), image_before);
  EXPECT_EQ(engine->preimage(reached), preimage_before);

  // A manual reorder that reverses the block sequence *must* change the
  // relative order of the twin pairs (sifting alone might settle back).
  const std::vector<Var> reversed = reversed_block_order(*sym);
  ASSERT_NE(reversed, sym->manager().current_order());
  sym->manager().reorder(reversed);
  ASSERT_EQ(sym->manager().current_order(), reversed);
  expect_pairs_adjacent(*sym);
  EXPECT_EQ(engine->image(reached), image_before);
  EXPECT_EQ(engine->preimage(reached), preimage_before);

  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    EXPECT_EQ(engine->image_via(reached, t),
              cofactor_image(*sym, reached, t))
        << net->format_label(t);
    EXPECT_EQ(engine->preimage_via(reached, t),
              cofactor_preimage(*sym, reached, t))
        << net->format_label(t);
  }
}

// A full traversal started *after* the reorder must reach the same fixed
// point: the engine's cached cubes and relations are still valid.
TEST_P(EngineReorder, TraversalAfterReorderReachesTheSameFixedPoint) {
  sym->manager().reorder(reversed_block_order(*sym));
  TraversalOptions options;
  options.auto_sift = false;
  const TraversalResult again = traverse(*engine, options);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(again.reached, traversal.reached);
  EXPECT_DOUBLE_EQ(again.stats.states, traversal.stats.states);
}

INSTANTIATE_TEST_SUITE_P(
    NetsTimesEngines, EngineReorder,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(EngineKind::kCofactor,
                                         EngineKind::kMonolithicRelation,
                                         EngineKind::kPartitionedRelation)));

// ---------------------------------------------------------------------------
// Property: forced sifting never changes the fixed point (satellite of the
// reorder fix: traversal with auto_sift_threshold = 0 sifts on every
// doubling from zero, so every engine exercises images on reordered
// encodings throughout the run).
// ---------------------------------------------------------------------------

TEST(SiftedTraversalProperty, ForcedSiftMatchesUnsiftedBaselineOnRandomStgs) {
  Rng rng(0x5EEDED);
  for (int trial = 0; trial < 8; ++trial) {
    const stg::Stg s = testutil::random_stg(rng);
    for (EngineKind kind :
         {EngineKind::kCofactor, EngineKind::kMonolithicRelation,
          EngineKind::kPartitionedRelation}) {
      SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                      /*with_primed_vars=*/true);
      const std::unique_ptr<ImageEngine> engine = make_engine(kind, sym);

      TraversalOptions off;
      off.auto_sift = false;
      off.abort_on_violation = false;  // random rings may be inconsistent
      const TraversalResult baseline = traverse(*engine, off);

      TraversalOptions on;
      on.auto_sift = true;
      on.auto_sift_threshold = 0;  // sift at the first opportunity
      on.abort_on_violation = false;
      const TraversalResult sifted = traverse(*engine, on);

      EXPECT_EQ(sifted.reached, baseline.reached)
          << "trial " << trial << " engine " << to_string(kind);
      EXPECT_DOUBLE_EQ(sifted.stats.states, baseline.stats.states)
          << "trial " << trial << " engine " << to_string(kind);
      EXPECT_GT(sym.manager().reorder_epoch(), 0u)
          << "threshold 0 must actually sift";
      expect_pairs_adjacent(sym);

      // Repeated explicit sifting keeps the pairs intact too.
      for (int pass = 0; pass < 3; ++pass) {
        sym.manager().sift();
        expect_pairs_adjacent(sym);
      }
    }
  }
}


// Converged sifting plugs into the traversal without changing the answer.
TEST(ConvergedSifting, TraversalReachesTheSameFixedPoint) {
  const stg::Stg net = stg::master_read(4);
  SymbolicStg sym(net);
  TraversalOptions plain;
  plain.auto_sift = false;
  const TraversalResult ref = traverse(sym, plain);

  TraversalOptions converged;
  converged.auto_sift = true;
  converged.sift_converged = true;
  converged.auto_sift_threshold = 1'000;  // force reorders on a small net
  const TraversalResult r = traverse(sym, converged);
  EXPECT_EQ(r.reached, ref.reached);
  EXPECT_DOUBLE_EQ(r.stats.states, ref.stats.states);
  sym.manager().check_invariants();
}

}  // namespace
}  // namespace stgcheck::core
