// SymbolicStg::image and preimage fire a transition as one cube
// substitution. This suite checks them against the paper's own six-step
// pipeline (Sec. 4), written out here as the reference:
//
//     image(S, t)    = (((S_E(t) . NPM(t))_NSM(t) . ASM(t))_!a . a    (a+)
//     preimage(S, t) = (((S_ASM(t) . NSM(t))_NPM(t) . E(t))_a . !a    (a+)
//
// (a- swaps the signal literals, a dummy has none). The nets are every
// example net, random ring STGs, random free-choice STGs and a net whose
// transitions read a place, one of them a dummy. The state sets are the
// reached set, its enabled parts, its preimages and random cube unions
// of the whole space (unsafe and inconsistent states included), on plain
// and primed encodings, before and after sifting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "stg/astg_io.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

constexpr int kRandomNets = 8;
constexpr int kChoiceNets = 8;
constexpr int kNetCount =
    testutil::kExampleNetCount + kRandomNets + kChoiceNets + 1;

/// a+ and the dummy eps read r (r is in both their presets and postsets)
/// while b+ consumes it.
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
  if (index < kRandomNets) {
    Rng rng(static_cast<std::uint64_t>(index + 1));
    return testutil::random_stg(rng);
  }
  index -= kRandomNets;
  if (index < kChoiceNets) {
    Rng rng(static_cast<std::uint64_t>(index + 1));
    return testutil::random_choice_stg(rng);
  }
  return read_arc_dummy_net();
}

class ImagePipeline : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    const bool primed = GetParam() % 2 == 0;
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/primed);
    reached = traverse(*sym).reached;
  }

  std::size_t transitions() const { return net->net().transition_count(); }

  /// The four cubes of Sec. 4 over t's places: E(t), NPM(t), NSM(t),
  /// ASM(t).
  struct PaperCubes {
    Bdd e, npm, nsm, asm_;
  };
  PaperCubes paper_cubes(pn::TransitionId t) {
    bdd::CubeLiterals e, npm, nsm, all;
    for (const pn::PlaceId p : net->net().preset(t)) {
      e.push_back({sym->place_var(p), true});
      npm.push_back({sym->place_var(p), false});
    }
    for (const pn::PlaceId p : net->net().postset(t)) {
      nsm.push_back({sym->place_var(p), false});
      all.push_back({sym->place_var(p), true});
    }
    bdd::Manager& m = sym->manager();
    return {m.cube(e), m.cube(npm), m.cube(nsm), m.cube(all)};
  }

  /// The signal flip: keep the states where the signal is `from` and set
  /// it to the other value. A dummy leaves the code alone.
  Bdd flip(const Bdd& states, pn::TransitionId t, bool forward) {
    const stg::TransitionLabel& label = net->label(t);
    if (label.is_dummy()) return states;
    const Bdd sig = sym->signal(label.signal);
    const bool rising = (label.dir == stg::Dir::kPlus) == forward;
    const Bdd from = rising ? !sig : sig;
    return sym->manager().cofactor(states, from) & !from;
  }

  Bdd paper_image(const Bdd& states, pn::TransitionId t) {
    const PaperCubes c = paper_cubes(t);
    bdd::Manager& m = sym->manager();
    Bdd step = m.cofactor(states, c.e) & c.npm;
    step = m.cofactor(step, c.nsm) & c.asm_;
    return flip(step, t, /*forward=*/true);
  }

  Bdd paper_preimage(const Bdd& states, pn::TransitionId t) {
    const PaperCubes c = paper_cubes(t);
    bdd::Manager& m = sym->manager();
    Bdd step = m.cofactor(states, c.asm_) & c.nsm;
    step = m.cofactor(step, c.npm) & c.e;
    return flip(step, t, /*forward=*/false);
  }

  /// Unions of random cubes over the place and signal variables.
  std::vector<Bdd> random_sets(std::uint64_t seed, int count) {
    Rng rng(seed);
    bdd::Manager& m = sym->manager();
    std::vector<Bdd> sets;
    for (int i = 0; i < count; ++i) {
      Bdd set = m.bdd_false();
      for (int c = 0; c < 3; ++c) {
        bdd::CubeLiterals literals;
        for (const bdd::Var v : sym->state_var_list()) {
          if (rng.flip()) literals.push_back({v, rng.flip()});
        }
        set |= m.cube(literals);
      }
      sets.push_back(set);
    }
    return sets;
  }

  void expect_pipeline_everywhere() {
    std::vector<Bdd> sets = {reached, sym->manager().bdd_false(),
                             sym->manager().bdd_true()};
    for (pn::TransitionId t = 0; t < transitions(); ++t) {
      sets.push_back(reached & sym->enabling_cube(t));
      sets.push_back(sym->preimage(reached, t));
    }
    for (const Bdd& s : random_sets(GetParam() + 1, 4)) sets.push_back(s);
    for (pn::TransitionId t = 0; t < transitions(); ++t) {
      for (std::size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(sym->image(sets[i], t), paper_image(sets[i], t))
            << net->format_label(t) << " set " << i;
        EXPECT_EQ(sym->preimage(sets[i], t), paper_preimage(sets[i], t))
            << net->format_label(t) << " set " << i;
      }
    }
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  Bdd reached;
};

TEST_P(ImagePipeline, SubstitutionEqualsSixStepPipeline) {
  expect_pipeline_everywhere();
}

TEST_P(ImagePipeline, SubstitutionEqualsSixStepPipelineAfterSift) {
  sym->manager().sift();
  expect_pipeline_everywhere();
  sym->manager().check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Nets, ImagePipeline, ::testing::Range(0, kNetCount));

}  // namespace
}  // namespace stgcheck::core
