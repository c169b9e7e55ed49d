// Symbolic checks against the known verdicts of the example nets.
#include <gtest/gtest.h>

#include "core/checks.hpp"
#include "core/implementability.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

struct Checked {
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<CofactorEngine> engine;
  TraversalResult traversal;
};

Checked run(const stg::Stg& s) {
  Checked c;
  c.sym = std::make_unique<SymbolicStg>(s);
  c.engine = std::make_unique<CofactorEngine>(*c.sym);
  c.traversal = traverse(*c.engine);
  EXPECT_TRUE(c.traversal.ok()) << s.name();
  return c;
}

// ---------------------------------------------------------------------------
// Persistency
// ---------------------------------------------------------------------------

TEST(SymPersistency, MarkedGraphsClean) {
  Checked c = run(stg::muller_pipeline(4));
  EXPECT_TRUE(transition_persistency(*c.engine, c.traversal.reached).empty());
  EXPECT_TRUE(signal_persistency(*c.engine, c.traversal.reached).empty());
}

TEST(SymPersistency, Fig3TransitionConflictButSignalPersistent) {
  Checked c = run(stg::examples::fig3_d1());
  EXPECT_FALSE(transition_persistency(*c.engine, c.traversal.reached).empty());
  EXPECT_TRUE(signal_persistency(*c.engine, c.traversal.reached).empty());
}

TEST(SymPersistency, MutexViolatesWithoutArbitration) {
  stg::Stg s = stg::examples::mutex2();
  Checked c = run(s);
  auto violations = signal_persistency(*c.engine, c.traversal.reached);
  ASSERT_FALSE(violations.empty());
  for (const auto& v : violations) {
    EXPECT_FALSE(v.victim_is_input);
    EXPECT_TRUE(v.witness.implies(c.traversal.reached));
  }

  SymPersistencyOptions options;
  options.arbitration_pairs.push_back(
      {s.find_signal("g1"), s.find_signal("g2")});
  EXPECT_TRUE(
      signal_persistency(*c.engine, c.traversal.reached, options).empty());
}

TEST(SymPersistency, InputChoiceLegal) {
  Checked c = run(stg::select_chain(2));
  EXPECT_TRUE(signal_persistency(*c.engine, c.traversal.reached).empty());
  EXPECT_FALSE(transition_persistency(*c.engine, c.traversal.reached).empty());
}

TEST(SymPersistency, OutputKilledByOutputDetected) {
  Checked c = run(stg::examples::fake_asymmetric(/*output_ab=*/true));
  auto violations = signal_persistency(*c.engine, c.traversal.reached);
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

// ---------------------------------------------------------------------------
// Reducibility
// ---------------------------------------------------------------------------

TEST(SymReducibility, Verdicts) {
  // CSC ok: vacuously reducible.
  {
    Checked c = run(stg::muller_pipeline(2));
    SymReducibilityResult r = check_csc_reducibility(*c.engine, c.traversal.reached);
    EXPECT_TRUE(r.csc_satisfied);
    EXPECT_TRUE(r.reducible);
  }
  // output_cycle: reducible (no inputs at all).
  {
    Checked c = run(stg::examples::output_cycle());
    SymReducibilityResult r = check_csc_reducibility(*c.engine, c.traversal.reached);
    EXPECT_FALSE(r.csc_satisfied);
    EXPECT_TRUE(r.reducible);
  }
  // pulse_cycle: irreducible (input-only path joins the contradiction).
  {
    Checked c = run(stg::examples::pulse_cycle());
    SymReducibilityResult r = check_csc_reducibility(*c.engine, c.traversal.reached);
    EXPECT_FALSE(r.csc_satisfied);
    EXPECT_FALSE(r.reducible);
    ASSERT_EQ(r.irreducible_signals.size(), 1u);
    EXPECT_EQ(c.sym->stg().signal_name(r.irreducible_signals[0]), "b");
  }
  // input_pulse_counter: irreducible on y.
  {
    Checked c = run(stg::examples::input_pulse_counter());
    SymReducibilityResult r = check_csc_reducibility(*c.engine, c.traversal.reached);
    EXPECT_FALSE(r.reducible);
  }
}

// ---------------------------------------------------------------------------
// Fake conflicts
// ---------------------------------------------------------------------------

TEST(SymFake, Fig3D1Symmetric) {
  Checked c = run(stg::examples::fig3_d1());
  auto reports = analyze_fake_conflicts(*c.engine, c.traversal.reached);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].symmetric_fake());
  EXPECT_FALSE(check_fake_freedom(*c.engine, c.traversal.reached).fake_free);
}

TEST(SymFake, AsymmetricClassification) {
  Checked c = run(stg::examples::fake_asymmetric());
  auto reports = analyze_fake_conflicts(*c.engine, c.traversal.reached);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].asymmetric_fake());
  // Between two inputs: tolerated.
  EXPECT_TRUE(check_fake_freedom(*c.engine, c.traversal.reached).fake_free);

  Checked c2 = run(stg::examples::fake_asymmetric(/*output_ab=*/true));
  EXPECT_FALSE(check_fake_freedom(*c2.engine, c2.traversal.reached).fake_free);
}

TEST(SymFake, MutexConflictsReal) {
  Checked c = run(stg::examples::mutex2());
  for (const auto& r : analyze_fake_conflicts(*c.engine, c.traversal.reached)) {
    EXPECT_FALSE(r.symmetric_fake());
    EXPECT_FALSE(r.asymmetric_fake());
    EXPECT_TRUE(r.disables_t1 || r.disables_t2);
  }
  EXPECT_TRUE(check_fake_freedom(*c.engine, c.traversal.reached).fake_free);
}

}  // namespace
}  // namespace stgcheck::core
