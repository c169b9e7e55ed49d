// The pair checks and the CSC clash test never image a set of states. They
// rest on identities this suite checks against the encoding's cofactor
// image itself, on every example net, random STGs and a net with a read
// arc:
//   * for every transition t, state set S and state predicate P,
//       image(S, t) <= P      iff  S disjoint from fire_guard(t) & !after_firing(P, t)
//       image(S, t) meets P   iff  S meets fire_guard(t) & after_firing(P, t)
//     with S ranging over the reached set, `reached & E(ti)` and random
//     cube unions of the whole space (unsafe and inconsistent states
//     included), and P over E(tk), enabled_signal and enabled_signal_any;
//   * the saturation engine's per-transition fresh_unit from nothing
//     known equals SymbolicStg::image on the same sets, before and after
//     a sift;
//   * check_csc's two-product conflict code sets equal the four-region
//     formula (ER(a+) & QR(a-)) | (ER(a-) & QR(a+)) as BDD handles, on
//     reached sets and on arbitrary state sets alike.
// That every persistency witness is one full state of its violation's bad
// set is checked by ReportParity (core_cross_validation_test).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/checks.hpp"
#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "stg/astg_io.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

constexpr int kRandomNets = 12;

constexpr int kNetCount = testutil::kExampleNetCount + kRandomNets + 1;

/// a+ reads r (r is in both its preset and its postset) while b+ consumes
/// r: a firing that keeps a place marked, which no other net here has.
stg::Stg read_arc_net() {
  return stg::parse_astg_string(
      ".inputs a\n.outputs b\n.graph\n"
      "p0 a+\nr a+\na+ p1 r\np1 a-\na- p0\n"
      "r b+\nb+ q\nq b-\nb- r\n"
      ".marking { p0 r }\n.end\n");
}

stg::Stg net_by_index(int index) {
  if (index < testutil::kExampleNetCount) return testutil::example_net(index);
  if (index == kNetCount - 1) return read_arc_net();
  Rng rng(static_cast<std::uint64_t>(index - testutil::kExampleNetCount + 1));
  return testutil::random_stg(rng);
}

class FireGuardProperties : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    // Primed, so the saturation engine can build its relations on it.
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    reached = traverse(*sym).reached;
  }

  std::size_t transitions() const { return net->net().transition_count(); }

  /// Unions of random cubes over the place and signal variables: subsets
  /// of the whole space, unsafe and inconsistent states included.
  std::vector<Bdd> random_sets(std::uint64_t seed, int count) {
    Rng rng(seed);
    bdd::Manager& m = sym->manager();
    std::vector<bdd::Var> vars = sym->place_var_list();
    for (const bdd::Var v : sym->signal_var_list()) vars.push_back(v);
    std::vector<Bdd> sets;
    for (int i = 0; i < count; ++i) {
      Bdd set = m.bdd_false();
      for (int c = 0; c < 3; ++c) {
        bdd::CubeLiterals literals;
        for (const bdd::Var v : vars) {
          if (rng.flip()) literals.push_back({v, rng.flip()});
        }
        set |= m.cube(literals);
      }
      sets.push_back(set);
    }
    return sets;
  }

  /// E(tk) for every tk, enabled_signal(s, d) and enabled_signal_any(s).
  std::vector<Bdd> predicates() const {
    std::vector<Bdd> ps;
    for (pn::TransitionId t = 0; t < transitions(); ++t) {
      ps.push_back(sym->enabling_cube(t));
    }
    for (stg::SignalId s = 0; s < net->signal_count(); ++s) {
      ps.push_back(sym->enabled_signal(s, stg::Dir::kPlus));
      ps.push_back(sym->enabled_signal(s, stg::Dir::kMinus));
      ps.push_back(sym->enabled_signal_any(s));
    }
    return ps;
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  Bdd reached;
};

TEST_P(FireGuardProperties, GuardFormsAgreeWithImages) {
  std::vector<Bdd> sets = {reached};
  for (pn::TransitionId ti = 0; ti < transitions(); ++ti) {
    sets.push_back(reached & sym->enabling_cube(ti));
  }
  for (const Bdd& s : random_sets(GetParam() + 1, 4)) {
    sets.push_back(s);
  }
  const std::vector<Bdd> ps = predicates();
  const Bdd none = sym->manager().bdd_false();
  const std::unique_ptr<ImageEngine> saturation =
      make_engine(EngineKind::kSaturation, *sym);
  for (pn::TransitionId t = 0; t < transitions(); ++t) {
    const Bdd& guard = sym->fire_guard(t);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const Bdd& s = sets[i];
      const Bdd image = sym->image(s, t);
      EXPECT_EQ(saturation->fresh_unit(s, t, none), image)
          << net->format_label(t) << " set " << i;
      for (std::size_t j = 0; j < ps.size(); ++j) {
        const Bdd& p = ps[j];
        const Bdd after = sym->after_firing(p, t);
        EXPECT_EQ(image.implies(p), s.disjoint_with(guard.minus(after)))
            << net->format_label(t) << " set " << i << " predicate " << j;
        EXPECT_EQ(image.disjoint_with(p), s.disjoint_with(guard & after))
            << net->format_label(t) << " set " << i << " predicate " << j;
      }
    }
  }
  sym->manager().sift();
  for (pn::TransitionId t = 0; t < transitions(); ++t) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(saturation->fresh_unit(sets[i], t, none),
                sym->image(sets[i], t))
          << "after sift: " << net->format_label(t) << " set " << i;
    }
  }
}

TEST_P(FireGuardProperties, TwoProductCscEqualsFourRegions) {
  std::vector<Bdd> sets = {reached};
  for (const Bdd& s : random_sets(GetParam() + 101, 3)) {
    sets.push_back(s);
  }
  for (const Bdd& s : sets) {
    const SymCscResult csc = check_csc(*sym, s);
    std::size_t next = 0;
    for (const stg::SignalId a : net->noninput_signals()) {
      const SignalRegions r = signal_regions(*sym, s, a);
      const Bdd codes = (r.er_plus & r.qr_minus) | (r.er_minus & r.qr_plus);
      if (codes.is_false()) continue;
      ASSERT_LT(next, csc.conflicts.size()) << net->signal_name(a);
      EXPECT_EQ(csc.conflicts[next].signal, a);
      EXPECT_EQ(csc.conflicts[next].codes, codes) << net->signal_name(a);
      ++next;
    }
    EXPECT_EQ(next, csc.conflicts.size());
    EXPECT_EQ(csc.complete_state_coding, csc.conflicts.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, FireGuardProperties,
                         ::testing::Range(0, kNetCount));

}  // namespace
}  // namespace stgcheck::core
