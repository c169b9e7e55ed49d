// Generator families: structural invariants, reachable-state growth, and
// the named roster of scaled instances the bench and CI pin.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "petri/reachability.hpp"
#include "petri/structural.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::stg {
namespace {

TEST(Generators, RejectZeroSize) {
  EXPECT_THROW(muller_pipeline(0), ModelError);
  EXPECT_THROW(master_read(0), ModelError);
  EXPECT_THROW(mutex_arbiter(0), ModelError);
  EXPECT_THROW(select_chain(0), ModelError);
}

class MullerPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MullerPipeline, IsSafeLiveMarkedGraph) {
  const std::size_t n = GetParam();
  Stg stg = muller_pipeline(n);
  stg.validate();
  EXPECT_EQ(stg.signal_count(), n + 1);
  EXPECT_TRUE(pn::is_marked_graph(stg.net()));

  pn::ReachabilityGraph g = pn::explore(stg.net());
  ASSERT_TRUE(g.complete);
  // Safe and deadlock-free.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_LE(g.markings[i].max_tokens(), 1);
    EXPECT_FALSE(g.edges[i].empty()) << "deadlock at marking " << i;
  }
}

TEST_P(MullerPipeline, StateCountGrowsExponentially) {
  const std::size_t n = GetParam();
  if (n < 2) return;
  const std::size_t smaller = pn::explore(muller_pipeline(n - 1).net()).size();
  const std::size_t larger = pn::explore(muller_pipeline(n).net()).size();
  // Golden-ratio-like growth: strictly more than 1.3x per stage.
  EXPECT_GT(static_cast<double>(larger), 1.3 * static_cast<double>(smaller));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MullerPipeline, ::testing::Values(1, 2, 3, 5, 8));

class MasterRead : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MasterRead, IsSafeLiveMarkedGraph) {
  const std::size_t n = GetParam();
  Stg stg = master_read(n);
  stg.validate();
  EXPECT_EQ(stg.signal_count(), 2 * n + 2);  // n channels + go/done bracket
  EXPECT_TRUE(pn::is_marked_graph(stg.net()));
  pn::ReachabilityGraph g = pn::explore(stg.net());
  ASSERT_TRUE(g.complete);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_LE(g.markings[i].max_tokens(), 1);
    EXPECT_FALSE(g.edges[i].empty()) << "deadlock at marking " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MasterRead, ::testing::Values(1, 2, 3, 4));

class MutexArbiter : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MutexArbiter, MutualExclusionHolds) {
  const std::size_t n = GetParam();
  Stg stg = mutex_arbiter(n);
  stg.validate();
  // With a single user there is no competition for the token, so the net
  // degenerates to a marked graph.
  EXPECT_EQ(pn::is_marked_graph(stg.net()), n == 1);

  // The g+ transitions all conflict on the "free" place.
  auto conflicts = pn::conflict_places(stg.net());
  if (n > 1) {
    ASSERT_EQ(conflicts.size(), 1u);
    EXPECT_EQ(stg.net().place_name(conflicts[0]), "free");
  }

  // No reachable marking has two users in the critical section.
  pn::ReachabilityGraph g = pn::explore(stg.net());
  ASSERT_TRUE(g.complete);
  std::vector<pn::PlaceId> cs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cs[i] = stg.net().find_place("cs" + std::to_string(i + 1));
  }
  for (const pn::Marking& m : g.markings) {
    int in_cs = 0;
    for (std::size_t i = 0; i < n; ++i) in_cs += m.tokens(cs[i]);
    EXPECT_LE(in_cs, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MutexArbiter, ::testing::Values(1, 2, 3, 4));

TEST(MutexArbiter, StateCountFormula) {
  // Users are independent 2-state cycles except that at most one may hold
  // the token in {cs, done}: states = 2^n + n * 2 * 2^(n-1) = 2^n (1 + n).
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    const std::size_t states = pn::explore(mutex_arbiter(n).net()).size();
    EXPECT_EQ(states, (std::size_t{1} << n) * (1 + n)) << "n=" << n;
  }
}

class SelectChain : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SelectChain, LinearStateCount) {
  const std::size_t n = GetParam();
  Stg stg = select_chain(n);
  stg.validate();
  EXPECT_TRUE(pn::is_free_choice(stg.net()));
  pn::ReachabilityGraph g = pn::explore(stg.net());
  ASSERT_TRUE(g.complete);
  // One control token: 1 choice marking + 2 branches x 3 markings per stage.
  EXPECT_EQ(g.size(), 7 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectChain, ::testing::Values(1, 2, 3, 6));

// ---------------------------------------------------------------------------
// The named family roster (scaled component-count axis)
// ---------------------------------------------------------------------------

TEST(FamilyRoster, ContainsClassicAndScaledTiers) {
  std::set<std::string> names;
  for (const FamilyInstance& f : family_instances()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
  }
  for (const char* required :
       {"muller16", "muller32", "muller64", "mread8", "mutex12", "mutex24",
        "mutex48", "select24", "select48", "select96"}) {
    EXPECT_EQ(names.count(required), 1u) << required;
  }
}

TEST(FamilyRoster, MakeFamilyInstanceMatchesTheTable) {
  for (const FamilyInstance& f : family_instances()) {
    const Stg by_name = make_family_instance(f.name);
    const Stg by_table = f.make(f.n);
    EXPECT_EQ(by_name.signal_count(), by_table.signal_count()) << f.name;
    EXPECT_EQ(by_name.net().transition_count(),
              by_table.net().transition_count())
        << f.name;
    EXPECT_EQ(by_name.net().place_count(), by_table.net().place_count())
        << f.name;
  }
  EXPECT_THROW(make_family_instance("muller17"), ModelError);
  EXPECT_THROW(make_family_instance(""), ModelError);
}

TEST(FamilyRoster, ScaledStateCountsMatchClosedForms) {
  // Closed forms, symbolically countable where explicit exploration is
  // infeasible: muller_pipeline(n) has 2^(n+1) states, mutex_arbiter(n)
  // has 2^n (1 + n), select_chain(n) has 7 n. The muller and mutex counts
  // are exact in a double (few significant bits).
  const struct {
    const char* name;
    double states;
  } rows[] = {
      {"muller16", std::ldexp(1.0, 17)},
      {"muller32", std::ldexp(1.0, 33)},
      {"muller64", std::ldexp(1.0, 65)},
      {"mutex12", std::ldexp(13.0, 12)},
      {"mutex24", std::ldexp(25.0, 24)},
      {"mutex48", std::ldexp(49.0, 48)},
      {"select24", 7.0 * 24},
      {"select48", 7.0 * 48},
      {"select96", 7.0 * 96},
  };
  for (const auto& row : rows) {
    Stg s = make_family_instance(row.name);
    core::SymbolicStg sym(s, core::Ordering::kInterleaved, 1 << 14,
                          /*with_primed_vars=*/true);
    core::ImageEngine engine(core::EngineKind::kSaturation, sym);
    const core::TraversalResult r = core::traverse(engine);
    ASSERT_TRUE(r.ok()) << row.name;
    EXPECT_DOUBLE_EQ(r.stats.states, row.states) << row.name;
  }
  // The select marking count is linear, so the explicit explorer checks
  // the largest tier's closed form independently of any BDD.
  EXPECT_EQ(pn::explore(make_family_instance("select96").net()).size(),
            7u * 96);
}

TEST(FamilyRoster, Select96DeadlockVerdictMatchesAcrossEngines) {
  // With the primed twins, select96's manager holds more than 1023
  // variables; the deadlock count must still come out as the cofactor
  // engine's (a finite zero), not 0 x 2^vars.
  const Stg s = make_family_instance("select96");
  core::SymbolicStg plain(s);
  core::ImageEngine cofactor(core::EngineKind::kCofactor, plain);
  core::TraversalOptions no_sift;
  no_sift.auto_sift = false;
  const core::TraversalResult ref = core::traverse(cofactor, no_sift);
  ASSERT_TRUE(ref.ok());
  const double ref_deadlocks =
      plain.count_states(core::deadlock_states(plain, ref.reached));

  core::SymbolicStg primed(s, core::Ordering::kInterleaved, 1 << 14,
                           /*with_primed_vars=*/true);
  ASSERT_GT(primed.manager().var_count(), 1023u);
  core::ImageEngine saturation(core::EngineKind::kSaturation, primed);
  const core::TraversalResult r = core::traverse(saturation);
  ASSERT_TRUE(r.ok());
  const double deadlocks =
      primed.count_states(core::deadlock_states(primed, r.reached));
  EXPECT_EQ(deadlocks, ref_deadlocks);
  EXPECT_EQ(primed.count_markings(r.reached),
            plain.count_markings(ref.reached));
}

TEST(FamilyRoster, ScaledInstancesRoundTripThroughAstg) {
  for (const char* name :
       {"muller32", "muller64", "mutex24", "mutex48", "select48", "select96"}) {
    const Stg original = make_family_instance(name);
    const Stg reparsed = parse_astg_string(write_astg_string(original));
    EXPECT_NO_THROW(reparsed.validate()) << name;
    EXPECT_EQ(reparsed.name(), original.name()) << name;
    EXPECT_EQ(reparsed.signal_count(), original.signal_count()) << name;
    EXPECT_EQ(reparsed.net().transition_count(),
              original.net().transition_count())
        << name;
    EXPECT_EQ(reparsed.net().place_count(), original.net().place_count())
        << name;
    for (SignalId s = 0; s < original.signal_count(); ++s) {
      const SignalId rs = reparsed.find_signal(original.signal_name(s));
      ASSERT_NE(rs, kNoSignal) << name;
      EXPECT_EQ(reparsed.signal_kind(rs), original.signal_kind(s)) << name;
      EXPECT_EQ(reparsed.initial_value(rs), original.initial_value(s)) << name;
    }
    // The linear select tiers are cheap to explore explicitly: the
    // round-trip preserves the reachability graph size, not just the
    // declarations.
    if (std::string(name) == "select48" || std::string(name) == "select96") {
      EXPECT_EQ(pn::explore(reparsed.net()).size(),
                pn::explore(original.net()).size())
          << name;
    }
  }
}

TEST(Examples, Mutex2MatchesFigure1Shape) {
  Stg stg = examples::mutex2();
  // 2 users x (r, g) = 4 signals, 8 transitions; 9 places (4 per user + free).
  EXPECT_EQ(stg.signal_count(), 4u);
  EXPECT_EQ(stg.net().transition_count(), 8u);
  EXPECT_EQ(stg.net().place_count(), 9u);
  EXPECT_EQ(pn::explore(stg.net()).size(), 12u);  // 2^2 * (1+2)
}

TEST(Examples, Fig3NetsShareStateGraphSize) {
  // D1 and D2 realize the same SG (Sec. 3.2): same number of reachable
  // markings and the same language over codes; here we check sizes.
  Stg d1 = examples::fig3_d1();
  Stg d2 = examples::fig3_d2();
  pn::ReachabilityGraph g1 = pn::explore(d1.net());
  pn::ReachabilityGraph g2 = pn::explore(d2.net());
  EXPECT_EQ(g1.size(), 5u);
  EXPECT_EQ(g2.size(), 5u);
}

TEST(Examples, UnsafeRingIsTwoBounded) {
  Stg stg = examples::unsafe_two_token_ring();
  pn::BoundednessResult r = pn::check_boundedness(stg.net());
  EXPECT_TRUE(r.bounded);
  EXPECT_TRUE(r.proven);
  EXPECT_EQ(r.bound, 2);
  EXPECT_FALSE(r.is_safe());
}

TEST(Examples, AllFixedNetsValidate) {
  for (Stg stg :
       {examples::mutex2(), examples::fig3_d1(), examples::fig3_d2(),
        examples::fake_asymmetric(), examples::inconsistent_rise_rise(),
        examples::unsafe_two_token_ring(), examples::nondeterministic_choice(),
        examples::noncommutative_diamond(), examples::pulse_cycle(),
        examples::output_cycle(), examples::output_cycle_resolved(),
        examples::input_pulse_counter(), examples::vme_read()}) {
    EXPECT_NO_THROW(stg.validate()) << stg.name();
    pn::ReachabilityGraph g = pn::explore(stg.net());
    EXPECT_TRUE(g.complete) << stg.name();
    EXPECT_GT(g.size(), 1u) << stg.name();
  }
}

TEST(Examples, VmeReadHasTwentyFourMarkings) {
  // The classic VME read-cycle STG: 24 reachable markings.
  pn::ReachabilityGraph g = pn::explore(examples::vme_read().net());
  EXPECT_TRUE(g.complete);
  EXPECT_GE(g.size(), 12u);
  EXPECT_LE(g.size(), 40u);
}

}  // namespace
}  // namespace stgcheck::stg
