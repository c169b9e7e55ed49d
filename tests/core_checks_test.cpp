// Symbolic checks against the known verdicts of the example nets.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "core/checks.hpp"
#include "core/implementability.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

struct Checked {
  std::unique_ptr<SymbolicStg> sym;
  TraversalResult traversal;
};

Checked run(const stg::Stg& s) {
  Checked c;
  c.sym = std::make_unique<SymbolicStg>(s);
  c.traversal = traverse(*c.sym);
  EXPECT_TRUE(c.traversal.ok()) << s.name();
  return c;
}

// ---------------------------------------------------------------------------
// Persistency
// ---------------------------------------------------------------------------

TEST(SymPersistency, MarkedGraphsClean) {
  Checked c = run(stg::muller_pipeline(4));
  EXPECT_TRUE(transition_persistency(*c.sym, c.traversal.reached).empty());
  EXPECT_TRUE(signal_persistency(*c.sym, c.traversal.reached).empty());
}

TEST(SymPersistency, Fig3TransitionConflictButSignalPersistent) {
  Checked c = run(stg::examples::fig3_d1());
  EXPECT_FALSE(transition_persistency(*c.sym, c.traversal.reached).empty());
  EXPECT_TRUE(signal_persistency(*c.sym, c.traversal.reached).empty());
}

TEST(SymPersistency, MutexViolatesWithoutArbitration) {
  stg::Stg s = stg::examples::mutex2();
  Checked c = run(s);
  auto violations = signal_persistency(*c.sym, c.traversal.reached);
  ASSERT_FALSE(violations.empty());
  for (const auto& v : violations) {
    EXPECT_FALSE(v.victim_is_input);
    EXPECT_TRUE(signal_persistency_witness(*c.sym, c.traversal.reached, v)
                    .implies(c.traversal.reached));
  }

  SymPersistencyOptions options;
  options.arbitration_pairs.push_back(
      {s.find_signal("g1"), s.find_signal("g2")});
  EXPECT_TRUE(
      signal_persistency(*c.sym, c.traversal.reached, options).empty());
}

TEST(SymPersistency, InputChoiceLegal) {
  Checked c = run(stg::select_chain(2));
  EXPECT_TRUE(signal_persistency(*c.sym, c.traversal.reached).empty());
  EXPECT_FALSE(transition_persistency(*c.sym, c.traversal.reached).empty());
}

TEST(SymPersistency, OutputKilledByOutputDetected) {
  Checked c = run(stg::examples::fake_asymmetric(/*output_ab=*/true));
  auto violations = signal_persistency(*c.sym, c.traversal.reached);
  ASSERT_FALSE(violations.empty());
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(SymDeterminism, CleanAndDirty) {
  Checked clean = run(stg::examples::vme_read());
  EXPECT_TRUE(determinism_violations(*clean.sym, clean.traversal.reached).is_false());

  Checked dirty = run(stg::examples::nondeterministic_choice());
  Bdd bad = determinism_violations(*dirty.sym, dirty.traversal.reached);
  EXPECT_FALSE(bad.is_false());
  // The violating state is the initial one.
  EXPECT_TRUE(dirty.sym->initial_state().implies(bad));
}

// ---------------------------------------------------------------------------
// Regions and CSC
// ---------------------------------------------------------------------------

TEST(SymCsc, RegionsOfPulseCycle) {
  stg::Stg s = stg::examples::pulse_cycle();
  Checked c = run(s);
  const stg::SignalId b = s.find_signal("b");
  SignalRegions r = signal_regions(*c.sym, c.traversal.reached, b);
  Bdd a_sig = c.sym->signal(s.find_signal("a"));
  Bdd b_sig = c.sym->signal(b);
  // ER(b+) is the code 10; QR(b-) contains 00 and the second 10.
  EXPECT_EQ(r.er_plus, a_sig & !b_sig);
  EXPECT_EQ(r.qr_minus, !b_sig);  // codes 00 and 10
  // The clash: ER(b+) n QR(b-) = {10} != empty.
  EXPECT_FALSE((r.er_plus & r.qr_minus).is_false());
}

TEST(SymCsc, CleanNets) {
  for (const stg::Stg& s :
       {stg::muller_pipeline(3), stg::master_read(2), stg::examples::mutex2(),
        stg::examples::output_cycle_resolved()}) {
    Checked c = run(s);
    SymCscResult r = check_csc(*c.sym, c.traversal.reached);
    EXPECT_TRUE(r.unique_state_coding) << s.name();
    EXPECT_TRUE(r.complete_state_coding) << s.name();
  }
}

TEST(SymCsc, SelectChainCscWithoutUsc) {
  Checked c = run(stg::select_chain(3));
  SymCscResult r = check_csc(*c.sym, c.traversal.reached);
  EXPECT_FALSE(r.unique_state_coding);
  EXPECT_TRUE(r.complete_state_coding);
}

TEST(SymCsc, ViolationsDetected) {
  for (const stg::Stg& s :
       {stg::examples::pulse_cycle(), stg::examples::output_cycle(),
        stg::examples::input_pulse_counter(), stg::examples::vme_read()}) {
    Checked c = run(s);
    SymCscResult r = check_csc(*c.sym, c.traversal.reached);
    EXPECT_FALSE(r.complete_state_coding) << s.name();
    EXPECT_FALSE(r.conflicts.empty()) << s.name();
  }
}

// check_csc returns right after the counts when they are exact and equal.
// The reference is the per-signal loop without that shortcut: the four
// regions' conflict set of every non-input signal. Nets: every example
// net, random STGs and three roster families under saturation (mutex12
// and muller16 have USC, select24 does not).
constexpr int kRandomCscNets = 12;
constexpr const char* kCscFamilies[] = {"mutex12", "muller16", "select24"};
constexpr int kCscNetCount = testutil::kExampleNetCount + kRandomCscNets +
                             static_cast<int>(std::size(kCscFamilies));

SymCscResult csc_per_signal(SymbolicStg& sym, const Bdd& reached) {
  SymCscResult result;
  result.unique_state_coding =
      sym.count_states(reached) == sym.count_codes(reached);
  for (const stg::SignalId a : sym.stg().noninput_signals()) {
    const SignalRegions r = signal_regions(sym, reached, a);
    const Bdd codes = (r.er_plus & r.qr_minus) | (r.er_minus & r.qr_plus);
    if (codes.is_false()) continue;
    result.complete_state_coding = false;
    result.conflicts.push_back(SymCscResult::Conflict{a, codes});
  }
  return result;
}

class CscShortcut : public ::testing::TestWithParam<int> {};

TEST_P(CscShortcut, MatchesThePerSignalLoop) {
  const int index = GetParam();
  const int family = index - testutil::kExampleNetCount - kRandomCscNets;
  stg::Stg net;
  if (index < testutil::kExampleNetCount) {
    net = testutil::example_net(index);
  } else if (family < 0) {
    Rng rng(static_cast<std::uint64_t>(index - testutil::kExampleNetCount + 1));
    net = testutil::random_stg(rng);
  } else {
    net = stg::make_family_instance(kCscFamilies[family]);
  }
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  const std::unique_ptr<ImageEngine> engine =
      make_engine(EngineKind::kSaturation, sym);
  const TraversalResult t = traverse(*engine);

  const SymCscResult got = check_csc(sym, t.reached);
  const SymCscResult want = csc_per_signal(sym, t.reached);
  EXPECT_EQ(got.unique_state_coding, want.unique_state_coding) << net.name();
  EXPECT_EQ(got.complete_state_coding, want.complete_state_coding)
      << net.name();
  ASSERT_EQ(got.conflicts.size(), want.conflicts.size()) << net.name();
  for (std::size_t i = 0; i < got.conflicts.size(); ++i) {
    EXPECT_EQ(got.conflicts[i].signal, want.conflicts[i].signal) << net.name();
    EXPECT_EQ(got.conflicts[i].codes, want.conflicts[i].codes) << net.name();
  }
  if (family >= 0) {
    // The families' counts are exact, so the shortcut decides mutex12 and
    // muller16, and select24 takes the loop.
    bool states_exact = false;
    bool codes_exact = false;
    sym.count_states(t.reached, &states_exact);
    sym.count_codes(t.reached, &codes_exact);
    EXPECT_TRUE(states_exact && codes_exact) << net.name();
    EXPECT_EQ(got.unique_state_coding, family != 2) << net.name();
    EXPECT_TRUE(got.complete_state_coding) << net.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, CscShortcut, ::testing::Range(0, kCscNetCount));

// The counts behind the shortcut stay exact at the roster's largest sizes:
// select96 (672 states) in a primed manager past 1023 variables, and
// muller64's 2^65 states.
TEST(SymCsc, LargeRosterCountsAreExact) {
  for (const auto& [name, states] :
       {std::pair<const char*, double>{"select96", 672.0},
        std::pair<const char*, double>{"muller64", std::ldexp(1.0, 65)}}) {
    const stg::Stg net = stg::make_family_instance(name);
    SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    const std::unique_ptr<ImageEngine> engine =
        make_engine(EngineKind::kSaturation, sym);
    const TraversalResult t = traverse(*engine);
    ASSERT_TRUE(t.ok()) << name;
    if (std::string(name) == "select96") {
      EXPECT_GT(sym.manager().var_count(), 1023u);
    }
    bool exact = false;
    EXPECT_EQ(sym.count_states(t.reached, &exact), states) << name;
    EXPECT_TRUE(exact) << name;
  }
}

TEST(SymCsc, UnderflowingCountsDecideUscByBdd) {
  // Over muller270's state variables one state is a probability below
  // 2^-1074: its count underflows to 0 against one code. The
  // verdict comes from the BDD test instead: one state has a unique code,
  // and two markings under one code do not.
  const stg::Stg net = stg::muller_pipeline(270);
  SymbolicStg sym(net);
  const bdd::Bdd one = sym.initial_state();
  bool exact = true;
  ASSERT_EQ(sym.count_states(one, &exact), 0.0);
  ASSERT_FALSE(exact);
  EXPECT_TRUE(check_csc(sym, one).unique_state_coding);
  const bdd::Bdd two = sym.manager().exists(one, sym.place(0));
  EXPECT_FALSE(check_csc(sym, two).unique_state_coding);
}

// ---------------------------------------------------------------------------
// Reducibility
// ---------------------------------------------------------------------------

TEST(SymReducibility, Verdicts) {
  // CSC ok: vacuously reducible.
  {
    Checked c = run(stg::muller_pipeline(2));
    SymReducibilityResult r = check_csc_reducibility(*c.sym, c.traversal.reached);
    EXPECT_TRUE(r.csc_satisfied);
    EXPECT_TRUE(r.reducible);
  }
  // output_cycle: reducible (no inputs at all).
  {
    Checked c = run(stg::examples::output_cycle());
    SymReducibilityResult r = check_csc_reducibility(*c.sym, c.traversal.reached);
    EXPECT_FALSE(r.csc_satisfied);
    EXPECT_TRUE(r.reducible);
  }
  // pulse_cycle: irreducible (input-only path joins the contradiction).
  {
    Checked c = run(stg::examples::pulse_cycle());
    SymReducibilityResult r = check_csc_reducibility(*c.sym, c.traversal.reached);
    EXPECT_FALSE(r.csc_satisfied);
    EXPECT_FALSE(r.reducible);
    ASSERT_EQ(r.irreducible_signals.size(), 1u);
    EXPECT_EQ(c.sym->stg().signal_name(r.irreducible_signals[0]), "b");
  }
  // input_pulse_counter: irreducible on y.
  {
    Checked c = run(stg::examples::input_pulse_counter());
    SymReducibilityResult r = check_csc_reducibility(*c.sym, c.traversal.reached);
    EXPECT_FALSE(r.reducible);
  }
}

TEST(SymReducibility, PassedInCscResultMatchesRecomputedOne) {
  // check_implementability hands its own check_csc result to the
  // reducibility check instead of computing it twice; on every example
  // net that fails CSC both forms must give the same answer.
  int failing = 0;
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    const stg::Stg net = testutil::example_net(i);
    SymbolicStg sym(net);
    const TraversalResult t = traverse(sym);
    if (!t.ok()) continue;
    const SymCscResult csc = check_csc(sym, t.reached);
    if (csc.complete_state_coding) continue;
    ++failing;
    const SymReducibilityResult passed =
        check_csc_reducibility(sym, t.reached, csc);
    const SymReducibilityResult recomputed =
        check_csc_reducibility(sym, t.reached);
    EXPECT_FALSE(passed.csc_satisfied) << net.name();
    EXPECT_EQ(passed.csc_satisfied, recomputed.csc_satisfied) << net.name();
    EXPECT_EQ(passed.reducible, recomputed.reducible) << net.name();
    EXPECT_EQ(passed.irreducible_signals, recomputed.irreducible_signals)
        << net.name();
  }
  EXPECT_GE(failing, 4);  // output/pulse cycles, pulse counter, vme_read
}

// ---------------------------------------------------------------------------
// Fake conflicts
// ---------------------------------------------------------------------------

TEST(SymFake, Fig3D1Symmetric) {
  Checked c = run(stg::examples::fig3_d1());
  auto reports = analyze_fake_conflicts(*c.sym, c.traversal.reached);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].symmetric_fake());
  EXPECT_FALSE(check_fake_freedom(*c.sym, c.traversal.reached).fake_free);
}

TEST(SymFake, AsymmetricClassification) {
  Checked c = run(stg::examples::fake_asymmetric());
  auto reports = analyze_fake_conflicts(*c.sym, c.traversal.reached);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].asymmetric_fake());
  // Between two inputs: tolerated.
  EXPECT_TRUE(check_fake_freedom(*c.sym, c.traversal.reached).fake_free);

  Checked c2 = run(stg::examples::fake_asymmetric(/*output_ab=*/true));
  EXPECT_FALSE(check_fake_freedom(*c2.sym, c2.traversal.reached).fake_free);
}

TEST(SymFake, MutexConflictsReal) {
  Checked c = run(stg::examples::mutex2());
  for (const auto& r : analyze_fake_conflicts(*c.sym, c.traversal.reached)) {
    EXPECT_FALSE(r.symmetric_fake());
    EXPECT_FALSE(r.asymmetric_fake());
    EXPECT_TRUE(r.disables_t1 || r.disables_t2);
  }
  EXPECT_TRUE(check_fake_freedom(*c.sym, c.traversal.reached).fake_free);
}

}  // namespace
}  // namespace stgcheck::core
