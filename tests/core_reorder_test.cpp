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
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

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

/// Successors of `states` under every unit of the engine: one full step.
Bdd full_step(ImageEngine& engine, const Bdd& states) {
  Bdd result = engine.sym().manager().bdd_false();
  for (std::size_t u = 0; u < engine.unit_count(); ++u) {
    result |= engine.image_unit(states, u);
  }
  return result;
}

// The headline regression: reorder the manager under a live engine, then
// compute images. Pre-fix this threw ModelError ("permutation is not
// monotone") on both relational backends.
TEST_P(EngineReorder, ImagesSurviveSiftingAndManualReorder) {
  const Bdd& reached = traversal.reached;
  const Bdd image_before = full_step(*engine, reached);

  sym->manager().sift();
  expect_pairs_adjacent(*sym);
  EXPECT_EQ(full_step(*engine, reached), image_before);

  // A manual reorder that reverses the block sequence *must* change the
  // relative order of the twin pairs (sifting alone might settle back).
  const std::vector<Var> reversed = reversed_block_order(*sym);
  ASSERT_NE(reversed, sym->manager().current_order());
  sym->manager().reorder(reversed);
  ASSERT_EQ(sym->manager().current_order(), reversed);
  expect_pairs_adjacent(*sym);
  EXPECT_EQ(full_step(*engine, reached), image_before);

  // Each unit still images exactly its transitions' cofactor images.
  Bdd expected = sym->manager().bdd_false();
  for (std::size_t u = 0; u < engine->unit_count(); ++u) {
    Bdd unit_image = sym->manager().bdd_false();
    for (const pn::TransitionId t : engine->unit_transitions(u)) {
      unit_image |= sym->image(reached, t);
    }
    EXPECT_EQ(engine->image_unit(reached, u), unit_image) << "unit " << u;
    expected |= unit_image;
  }
  EXPECT_EQ(image_before, expected);
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
                                         EngineKind::kSaturation)));

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
          EngineKind::kSaturation}) {
      SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                      /*with_primed_vars=*/true);
      const std::unique_ptr<ImageEngine> engine = make_engine(kind, sym);

      TraversalOptions off;
      off.auto_sift = false;
      const TraversalResult baseline = traverse(*engine, off);

      TraversalOptions on;
      on.auto_sift = true;
      on.auto_sift_threshold = 0;  // sift at the first opportunity
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

// Sifting scores each position by the live node count, so every swap must
// free the nodes it kills: garbage left behind grows with every swap and
// carries the sift's peak far past the table it started from (tens of
// times over on muller16). Each sift's trace span carries its starting
// live count and its own peak.
TEST(SiftScoring, ForcedSiftStaysWithinItsGrowthEnvelope) {
  const stg::Stg net = stg::make_family_instance("muller16");
  SymbolicStg sym(net);
  TraceRecorder rec;
  sym.manager().set_trace(&rec);
  TraversalOptions forced;
  forced.auto_sift_threshold = 0;  // sift at the first doubling
  const TraversalResult sifted = traverse(sym, forced);
  sym.manager().set_trace(nullptr);
  sym.manager().check_invariants();

  // A sweep goes on while the table stays within max_growth (1.2) of the
  // best size seen, which is at most the start; the block move that
  // crosses that line overshoots by what its swaps build before the
  // nodes they kill are freed. A tenth of the start bounds that slack.
  constexpr double kMaxGrowth = 1.2;
  std::size_t sifts = 0;
  const json::Value doc = rec.to_json();
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "sift") continue;
    ++sifts;
    const json::Value& args = e.at("args");
    const double start = args.at("live_nodes_before").as_number();
    const double peak = args.at("peak_live_nodes").as_number();
    EXPECT_LE(peak, (kMaxGrowth + 0.1) * start)
        << "sift " << sifts << " started at " << start << " live nodes";
  }
  EXPECT_GT(sifts, 0u) << "threshold 0 must actually sift";

  // The sifted traversal reports what the unsifted one does.
  TraversalOptions plain;
  plain.auto_sift = false;
  const TraversalResult ref = traverse(sym, plain);
  EXPECT_EQ(sifted.reached, ref.reached);
  EXPECT_DOUBLE_EQ(sifted.stats.states, ref.stats.states);
  EXPECT_DOUBLE_EQ(sifted.stats.markings, ref.stats.markings);
  EXPECT_EQ(sifted.stats.passes, ref.stats.passes);
  EXPECT_EQ(sifted.stats.image_computations, ref.stats.image_computations);
  EXPECT_EQ(sifted.consistent, ref.consistent);
  EXPECT_EQ(sifted.safe, ref.safe);
  EXPECT_EQ(sifted.consistency_violations, ref.consistency_violations);

  // An explicit sift of the settled table keeps the kernel invariants.
  sym.manager().sift();
  sym.manager().check_invariants();
}

}  // namespace
}  // namespace stgcheck::core
