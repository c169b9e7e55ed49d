// The relational backends: each sparse relation record quantifies exactly
// the variables its transition touches, and the saturation engine's
// per-transition images and the monolithic step agree with the cofactor
// pipeline -- including on random STGs far from the hand-built generator
// families.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/image_engine.hpp"
#include "core/saturation.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

std::unique_ptr<SymbolicStg> primed_encoding(const stg::Stg& s) {
  return std::make_unique<SymbolicStg>(s, Ordering::kInterleaved, 1 << 14,
                                       /*with_primed_vars=*/true);
}

/// The unprimed state variables transition `t` touches: preset/postset
/// places plus the fired signal -- recomputed from the net, independently
/// of the relation builder.
std::vector<Var> touched_vars(const SymbolicStg& sym, pn::TransitionId t) {
  std::set<Var> vars;
  const pn::PetriNet& net = sym.stg().net();
  for (pn::PlaceId p : net.preset(t)) vars.insert(sym.place_var(p));
  for (pn::PlaceId p : net.postset(t)) vars.insert(sym.place_var(p));
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (!label.is_dummy()) vars.insert(sym.signal_var(label.signal));
  return {vars.begin(), vars.end()};
}

// ---------------------------------------------------------------------------
// Sparse relation records
// ---------------------------------------------------------------------------

TEST(SparseRelations, SupportAndQuantCubeAreTheTouchedVariables) {
  for (const stg::Stg& s : {stg::muller_pipeline(5), stg::master_read(3),
                            stg::mutex_arbiter(3), stg::select_chain(3)}) {
    auto sym = primed_encoding(s);
    SaturationEngine engine(*sym);
    ASSERT_EQ(engine.relations().size(), s.net().transition_count());
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      // The image step of transition t may quantify exactly the variables
      // t touches: quantifying any other would lose the state set's own
      // constraint on it; leaving one out would keep its old value.
      const SparseRelation& r = engine.relations()[t];
      const std::vector<Var> touched = touched_vars(*sym, t);
      EXPECT_EQ(r.support, touched) << s.name() << " " << s.format_label(t);
      EXPECT_EQ(r.quant_cube, sym->manager().positive_cube(touched))
          << s.name() << " " << s.format_label(t);
    }
  }
}

TEST(SparseRelations, QuantifyLessThanTheMonolithicStep) {
  // The contrast the sparse records exist for: the monolithic arm's single
  // step quantifies every state variable; a sparse relation quantifies
  // only its own support.
  const stg::Stg s = stg::select_chain(4);
  auto sym = primed_encoding(s);
  SaturationEngine engine(*sym);
  const std::size_t state_vars =
      sym->place_var_list().size() + sym->signal_var_list().size();
  for (const SparseRelation& r : engine.relations()) {
    EXPECT_LT(r.support.size(), state_vars);
  }
}

// ---------------------------------------------------------------------------
// Random STGs: saturation == monolithic == cofactor
// ---------------------------------------------------------------------------

TEST(RandomStgs, SaturationMatchesMonolithicAndCofactor) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const stg::Stg s = testutil::random_stg(rng);
    auto sym = primed_encoding(s);
    CofactorEngine cofactor(*sym);
    MonolithicRelationEngine monolithic(*sym);
    SaturationEngine saturation(*sym);

    // Random rings may be inconsistent STGs; images must agree regardless.
    TraversalOptions topts;
    topts.abort_on_violation = false;
    const TraversalResult ref = traverse(cofactor, topts);

    Bdd all_transitions = sym->manager().bdd_false();
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      const Bdd next = sym->image(ref.reached, t);
      EXPECT_EQ(saturation.image_unit(ref.reached, t), next)
          << "trial " << trial << " " << s.format_label(t);
      all_transitions |= next;
    }
    EXPECT_EQ(monolithic.image_unit(ref.reached, 0), all_transitions)
        << "trial " << trial;

    const TraversalResult mono_r = traverse(monolithic, topts);
    const TraversalResult sat_r = traverse(saturation, topts);
    EXPECT_EQ(mono_r.reached, ref.reached) << "trial " << trial;
    EXPECT_EQ(sat_r.reached, ref.reached) << "trial " << trial;
  }
}

TEST(EngineFactory, BuildsEveryKind) {
  const stg::Stg s = stg::examples::vme_read();
  auto sym = primed_encoding(s);
  for (EngineKind kind :
       {EngineKind::kCofactor, EngineKind::kMonolithicRelation,
        EngineKind::kSaturation}) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_STREQ(engine->name(), to_string(kind));
    EXPECT_GT(engine->unit_count(), 0u);
  }
}

}  // namespace
}  // namespace stgcheck::core
