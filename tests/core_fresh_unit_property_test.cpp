// ImageEngine::fresh_unit, the step chaining fires, against its
// definition image_unit(S, u) minus known, under every engine, on every
// example net, a net whose transitions read and refill a place (one of
// them a dummy), random ring STGs and random free-choice STGs, in plain
// and primed encodings. The cofactor engine answers from one kernel walk
// (SymbolicStg::fresh_image), so this also pins that walk to the image it
// replaces on state sets of every shape: reached, partial, random unions
// of cubes (unsafe and inconsistent states included), and known sets
// from false to true. The preimage walk is checked the same way.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "stg/astg_io.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

constexpr int kRandomNets = 8;
constexpr int kNetCount = testutil::kExampleNetCount + 1 + 2 * kRandomNets;

/// a+ and the dummy eps read r (r is in both their presets and postsets)
/// and each fills one postset-only place; b+ consumes r.
stg::Stg read_arc_dummy_net() {
  return stg::parse_astg_string(
      ".inputs a\n.outputs b\n.dummy eps\n.graph\n"
      "p0 a+\nr a+\na+ p1 r\np1 eps\nr eps\neps p2 r\np2 a-\na- p0\n"
      "r b+\nb+ q\nq b-\nb- r\n"
      ".marking { p0 r }\n.end\n");
}

stg::Stg net_by_index(int index) {
  if (index < testutil::kExampleNetCount) return testutil::example_net(index);
  index -= testutil::kExampleNetCount;
  if (index == 0) return read_arc_dummy_net();
  --index;
  Rng rng(static_cast<std::uint64_t>(index % kRandomNets + 1));
  return index < kRandomNets ? testutil::random_stg(rng)
                             : testutil::random_choice_stg(rng);
}

/// Unions of three random cubes over the state variables.
std::vector<Bdd> random_sets(SymbolicStg& sym, std::uint64_t seed, int count) {
  Rng rng(seed);
  bdd::Manager& m = sym.manager();
  std::vector<Bdd> sets;
  for (int i = 0; i < count; ++i) {
    Bdd set = m.bdd_false();
    for (int c = 0; c < 3; ++c) {
      bdd::CubeLiterals literals;
      for (const bdd::Var v : sym.state_var_list()) {
        if (rng.flip()) literals.push_back({v, rng.flip()});
      }
      set |= m.cube(literals);
    }
    sets.push_back(set);
  }
  return sets;
}

class FreshUnit : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(std::get<0>(GetParam())));
    primed = std::get<1>(GetParam());
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        primed);
    bdd::Manager& m = sym->manager();
    const Bdd reached = traverse(*sym).reached;
    // One step of every transition from the initial state: a set the
    // traversal holds as reached part of the way through.
    Bdd partial = sym->initial_state();
    for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
      partial |= sym->image(sym->initial_state(), t);
    }
    const std::vector<Bdd> random =
        random_sets(*sym, 17 + std::get<0>(GetParam()), 2);
    states = {reached, partial, sym->initial_state(), random[0], random[1]};
    knowns = {m.bdd_false(), m.bdd_true(), reached, partial, !partial,
              random[1]};
  }

  std::unique_ptr<stg::Stg> net;
  bool primed = false;
  std::unique_ptr<SymbolicStg> sym;
  std::vector<Bdd> states;
  std::vector<Bdd> knowns;
};

TEST_P(FreshUnit, EqualsImageUnitMinusKnown) {
  std::vector<EngineKind> kinds = {EngineKind::kCofactor};
  if (primed) {
    kinds.push_back(EngineKind::kMonolithicRelation);
    kinds.push_back(EngineKind::kSaturation);
  }
  for (const EngineKind kind : kinds) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    for (std::size_t u = 0; u < engine->unit_count(); ++u) {
      for (std::size_t i = 0; i < states.size(); ++i) {
        for (std::size_t k = 0; k < knowns.size(); ++k) {
          const std::size_t calls = engine->stats().image_calls;
          const Bdd fresh = engine->fresh_unit(states[i], u, knowns[k]);
          // Every engine counts a fresh unit as one image.
          EXPECT_EQ(engine->stats().image_calls, calls + 1) << to_string(kind);
          EXPECT_EQ(fresh, engine->image_unit(states[i], u).minus(knowns[k]))
              << to_string(kind) << " unit " << u << " set " << i
              << " known " << k;
        }
      }
    }
  }
}

TEST_P(FreshUnit, FreshImageIsTheCofactorPipelineMinusKnown) {
  // The definition the walk replaces: cofactor by the guard, conjoin the
  // post cube, subtract.
  bdd::Manager& m = sym->manager();
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    const Bdd post = m.cube(sym->firing_literals(t, true));
    for (std::size_t i = 0; i < states.size(); ++i) {
      const Bdd image = m.cofactor(states[i], sym->fire_guard(t)) & post;
      for (std::size_t k = 0; k < knowns.size(); ++k) {
        EXPECT_EQ(sym->fresh_image(states[i], t, knowns[k]),
                  image.minus(knowns[k]))
            << net->format_label(t) << " set " << i << " known " << k;
      }
    }
  }
}

TEST_P(FreshUnit, FreshPreimageIsTheSwappedPipelineMinusKnown) {
  bdd::Manager& m = sym->manager();
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    const Bdd post = m.cube(sym->firing_literals(t, true));
    for (std::size_t i = 0; i < states.size(); ++i) {
      const Bdd preimage = m.cofactor(states[i], post) & sym->fire_guard(t);
      EXPECT_EQ(sym->preimage(states[i], t), preimage)
          << net->format_label(t) << " set " << i;
      for (std::size_t k = 0; k < knowns.size(); ++k) {
        EXPECT_EQ(sym->fresh_preimage(states[i], t, knowns[k]),
                  preimage.minus(knowns[k]))
            << net->format_label(t) << " set " << i << " known " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, FreshUnit,
                         ::testing::Combine(::testing::Range(0, kNetCount),
                                            ::testing::Bool()));

}  // namespace
}  // namespace stgcheck::core
