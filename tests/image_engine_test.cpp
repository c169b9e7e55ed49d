// The relational kinds: each sparse relation record quantifies exactly
// the variables its transition touches, and every engine kind's units
// agree with the cofactor image, before and after a sift -- including on
// random STGs far from the hand-built generator families.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/image_engine.hpp"
#include "core/relation.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"
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
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      // The image step of transition t may quantify exactly the variables
      // t touches: quantifying any other would lose the state set's own
      // constraint on it; leaving one out would keep its old value.
      const SparseRelation r = build_sparse_relation(*sym, t);
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
  const std::size_t state_vars =
      sym->place_var_list().size() + sym->signal_var_list().size();
  for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
    EXPECT_LT(build_sparse_relation(*sym, t).support.size(), state_vars);
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
    bdd::Manager& m = sym->manager();
    std::vector<std::unique_ptr<ImageEngine>> engines;
    for (EngineKind kind :
         {EngineKind::kCofactor, EngineKind::kMonolithicRelation,
          EngineKind::kSaturation}) {
      engines.push_back(make_engine(kind, *sym));
    }

    // Random rings may be inconsistent STGs; images must agree regardless.
    const TraversalResult ref = traverse(*engines[0]);

    // Each unit's fresh states from nothing known are the OR of the
    // cofactor images of its transitions.
    const auto check_units = [&](const char* when) {
      for (const auto& engine : engines) {
        for (std::size_t u = 0; u < engine->unit_count(); ++u) {
          Bdd expected = m.bdd_false();
          for (const pn::TransitionId t : engine->unit_transitions(u)) {
            expected |= sym->image(ref.reached, t);
          }
          EXPECT_EQ(engine->fresh_unit(ref.reached, u, m.bdd_false()),
                    expected)
              << "trial " << trial << " " << to_string(engine->kind()) << " "
              << when << " unit " << u;
        }
      }
    };
    check_units("as built");
    m.sift();
    check_units("after sift");

    EXPECT_EQ(traverse(*engines[1]).reached, ref.reached) << "trial " << trial;
    EXPECT_EQ(traverse(*engines[2]).reached, ref.reached) << "trial " << trial;
  }
}

TEST(EngineFactory, BuildsEveryKind) {
  const stg::Stg s = stg::examples::vme_read();
  auto sym = primed_encoding(s);
  const pn::TransitionId n = s.net().transition_count();
  for (EngineKind kind :
       {EngineKind::kCofactor, EngineKind::kMonolithicRelation,
        EngineKind::kSaturation}) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    EXPECT_EQ(engine->kind(), kind);
    const bool monolithic = kind == EngineKind::kMonolithicRelation;
    EXPECT_EQ(engine->unit_count(), monolithic ? 1u : n);
    EXPECT_EQ(engine->unit_transitions(0).size(), monolithic ? n : 1u);
    EXPECT_EQ(engine->stats().relation_nodes == 0,
              kind == EngineKind::kCofactor);
  }
}

TEST(EngineFactory, OnlySaturationComputesTheFixpoint) {
  const stg::Stg s = stg::examples::vme_read();
  auto sym = primed_encoding(s);
  const Bdd init = sym->initial_state();
  for (EngineKind kind :
       {EngineKind::kCofactor, EngineKind::kMonolithicRelation}) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    EXPECT_THROW(engine->reach_fixpoint(init), ModelError) << to_string(kind);
    EXPECT_EQ(engine->stats().image_calls, 0u) << to_string(kind);
  }
  const std::unique_ptr<ImageEngine> saturation =
      make_engine(EngineKind::kSaturation, *sym);
  EXPECT_EQ(saturation->reach_fixpoint(init), traverse(*sym).reached);
  EXPECT_EQ(saturation->stats().image_calls, 1u);
}

}  // namespace
}  // namespace stgcheck::core
