// Cross-validation: every symbolic check must agree with its explicit twin
// on every net, across sizes, orderings and image backends. This is the
// strongest correctness argument the repo offers for the paper's
// algorithms.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/checks.hpp"
#include "core/image_engine.hpp"
#include "core/implementability.hpp"
#include "core/saturation.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "sg/explicit_checks.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

stg::Stg net_by_index(int index) { return testutil::example_net(index); }

constexpr int kNetCount = testutil::kExampleNetCount;

class CrossValidation : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net);
    engine = std::make_unique<CofactorEngine>(*sym);
    TraversalOptions options;
    options.abort_on_violation = false;  // keep exploring for comparisons
    traversal = traverse(*engine, options);
    graph = sg::build_state_graph(*net);
    ASSERT_TRUE(graph.complete);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<CofactorEngine> engine;
  TraversalResult traversal;
  sg::StateGraph graph;
};

TEST_P(CrossValidation, StateAndMarkingCounts) {
  EXPECT_DOUBLE_EQ(traversal.stats.states, static_cast<double>(graph.size()));
  EXPECT_DOUBLE_EQ(traversal.stats.markings,
                   static_cast<double>(graph.distinct_markings()));
}

TEST_P(CrossValidation, Consistency) {
  const bool explicit_ok = sg::check_consistency(graph).consistent;
  EXPECT_EQ(traversal.consistent, explicit_ok);
}

TEST_P(CrossValidation, SignalPersistency) {
  if (!traversal.consistent) GTEST_SKIP() << "inconsistent: semantics differ";
  const bool explicit_ok = sg::check_signal_persistency(graph).persistent;
  const bool symbolic_ok =
      signal_persistency(*engine, traversal.reached).empty();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, TransitionPersistency) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_ok = sg::check_transition_persistency(graph).empty();
  const bool symbolic_ok = transition_persistency(*engine, traversal.reached).empty();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, Determinism) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_ok = sg::check_determinism(graph).empty();
  const bool symbolic_ok = determinism_violations(*sym, traversal.reached).is_false();
  EXPECT_EQ(symbolic_ok, explicit_ok);
}

TEST_P(CrossValidation, Coding) {
  if (!traversal.consistent) GTEST_SKIP();
  sg::CodingResult explicit_r = sg::check_coding(graph);
  SymCscResult symbolic_r = check_csc(*sym, traversal.reached);
  EXPECT_EQ(symbolic_r.unique_state_coding, explicit_r.unique_state_coding);
  EXPECT_EQ(symbolic_r.complete_state_coding, explicit_r.complete_state_coding);
  // The set of conflicting signals matches.
  std::set<stg::SignalId> explicit_signals;
  for (const auto& v : explicit_r.violations) explicit_signals.insert(v.signal);
  std::set<stg::SignalId> symbolic_signals;
  for (const auto& c : symbolic_r.conflicts) symbolic_signals.insert(c.signal);
  EXPECT_EQ(symbolic_signals, explicit_signals);
}

TEST_P(CrossValidation, CscReducibility) {
  if (!traversal.consistent) GTEST_SKIP();
  sg::ReducibilityResult explicit_r = sg::check_csc_reducibility(graph);
  SymReducibilityResult symbolic_r =
      check_csc_reducibility(*engine, traversal.reached);
  EXPECT_EQ(symbolic_r.csc_satisfied, explicit_r.csc_satisfied);
  EXPECT_EQ(symbolic_r.reducible, explicit_r.reducible);
  std::set<stg::SignalId> e(explicit_r.irreducible_signals.begin(),
                            explicit_r.irreducible_signals.end());
  std::set<stg::SignalId> s(symbolic_r.irreducible_signals.begin(),
                            symbolic_r.irreducible_signals.end());
  EXPECT_EQ(s, e);
}

TEST_P(CrossValidation, FakeConflicts) {
  if (!traversal.consistent) GTEST_SKIP();
  auto explicit_r = sg::analyze_fake_conflicts(graph);
  auto symbolic_r = analyze_fake_conflicts(*engine, traversal.reached);
  ASSERT_EQ(symbolic_r.size(), explicit_r.size());
  // Both are generated from the same ordered structural-conflict pairs.
  for (std::size_t i = 0; i < symbolic_r.size(); ++i) {
    EXPECT_EQ(symbolic_r[i].t1, explicit_r[i].t1) << i;
    EXPECT_EQ(symbolic_r[i].t2, explicit_r[i].t2) << i;
    EXPECT_EQ(symbolic_r[i].fake_against_t1, explicit_r[i].fake_against_t1) << i;
    EXPECT_EQ(symbolic_r[i].fake_against_t2, explicit_r[i].fake_against_t2) << i;
    EXPECT_EQ(symbolic_r[i].disables_t1, explicit_r[i].disables_t1) << i;
    EXPECT_EQ(symbolic_r[i].disables_t2, explicit_r[i].disables_t2) << i;
  }
  EXPECT_EQ(check_fake_freedom(*engine, traversal.reached).fake_free,
            sg::check_fake_freedom(graph).fake_free);
}

TEST_P(CrossValidation, Deadlocks) {
  if (!traversal.consistent) GTEST_SKIP();
  const bool explicit_live = sg::find_deadlocks(graph).empty();
  const bool symbolic_live = deadlock_states(*sym, traversal.reached).is_false();
  EXPECT_EQ(symbolic_live, explicit_live);
}

INSTANTIATE_TEST_SUITE_P(Nets, CrossValidation, ::testing::Range(0, kNetCount));

// Orderings must not change any verdict, only BDD sizes.
class OrderingInvariance : public ::testing::TestWithParam<Ordering> {};

TEST_P(OrderingInvariance, VerdictsAreOrderIndependent) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s, GetParam());
  CofactorEngine engine(sym);
  TraversalResult r = traverse(engine);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 32.0);
  EXPECT_FALSE(signal_persistency(engine, r.reached).empty());
  EXPECT_TRUE(check_csc(sym, r.reached).complete_state_coding);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderingInvariance,
                         ::testing::Values(Ordering::kInterleaved,
                                           Ordering::kDeclaration,
                                           Ordering::kSignalsFirst,
                                           Ordering::kRandom));

// ---------------------------------------------------------------------------
// Engine cross-validation: every ImageEngine backend -- including the
// saturation backend, whose whole fixpoint runs inside one kernel REACH
// operation -- must reach the same fixed point (pass counts aside) and
// produce the same check verdicts on every net family. All engines share
// one primed encoding, so the reached sets are compared as BDDs, not just
// counted: bit-identical against the cofactor reference means
// bit-identical against every other backend.
// ---------------------------------------------------------------------------

class EngineCrossValidation
    : public ::testing::TestWithParam<std::tuple<int, EngineKind>> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(std::get<0>(GetParam())));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    engine = make_engine(std::get<1>(GetParam()), *sym);
    reference = std::make_unique<CofactorEngine>(*sym);

    options.abort_on_violation = false;  // keep exploring for comparisons
    traversal = traverse(*engine, options);
    ref_traversal = traverse(*reference, options);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<ImageEngine> engine;
  std::unique_ptr<CofactorEngine> reference;
  TraversalOptions options;
  TraversalResult traversal;
  TraversalResult ref_traversal;
};

TEST_P(EngineCrossValidation, ReachedSetsAreIdentical) {
  EXPECT_EQ(traversal.reached, ref_traversal.reached);
  EXPECT_DOUBLE_EQ(traversal.stats.states, ref_traversal.stats.states);
  EXPECT_DOUBLE_EQ(traversal.stats.markings, ref_traversal.stats.markings);
}

TEST_P(EngineCrossValidation, TraversalVerdictsAgree) {
  EXPECT_EQ(traversal.consistent, ref_traversal.consistent);
  EXPECT_EQ(traversal.safe, ref_traversal.safe);
  EXPECT_EQ(traversal.complete, ref_traversal.complete);
}

TEST_P(EngineCrossValidation, FiringChecksAgree) {
  if (!ref_traversal.consistent) GTEST_SKIP() << "inconsistent: semantics differ";
  const bdd::Bdd& reached = ref_traversal.reached;
  EXPECT_EQ(signal_persistency(*engine, reached).empty(),
            signal_persistency(*reference, reached).empty());
  EXPECT_EQ(transition_persistency(*engine, reached).empty(),
            transition_persistency(*reference, reached).empty());
  EXPECT_EQ(check_fake_freedom(*engine, reached).fake_free,
            check_fake_freedom(*reference, reached).fake_free);
  const SymReducibilityResult a = check_csc_reducibility(*engine, reached);
  const SymReducibilityResult b = check_csc_reducibility(*reference, reached);
  EXPECT_EQ(a.csc_satisfied, b.csc_satisfied);
  EXPECT_EQ(a.reducible, b.reducible);
}

INSTANTIATE_TEST_SUITE_P(
    NetsTimesEngines, EngineCrossValidation,
    ::testing::Combine(::testing::Range(0, kNetCount),
                       ::testing::Values(EngineKind::kCofactor,
                                         EngineKind::kMonolithicRelation,
                                         EngineKind::kPartitionedRelation,
                                         EngineKind::kSaturation)));

// ---------------------------------------------------------------------------
// Relation-template cross-validation: the saturation backend with
// --relation-templates on must stay bit-identical to both its own
// templates-off run and the cofactor reference on every example net --
// reached set, counts and check verdicts alike.
// ---------------------------------------------------------------------------

class TemplatedSaturationCrossValidation : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    EngineOptions on;
    on.relation_templates = TemplateMode::kOn;
    templated = std::make_unique<SaturationEngine>(*sym, on);
    plain = std::make_unique<SaturationEngine>(*sym);
    reference = std::make_unique<CofactorEngine>(*sym);
    options.abort_on_violation = false;
    traversal = traverse(*templated, options);
    plain_traversal = traverse(*plain, options);
    ref_traversal = traverse(*reference, options);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<SaturationEngine> templated;
  std::unique_ptr<SaturationEngine> plain;
  std::unique_ptr<CofactorEngine> reference;
  TraversalOptions options;
  TraversalResult traversal;
  TraversalResult plain_traversal;
  TraversalResult ref_traversal;
};

TEST_P(TemplatedSaturationCrossValidation, ReachedSetsAreIdentical) {
  EXPECT_EQ(traversal.reached, plain_traversal.reached);
  EXPECT_EQ(traversal.reached, ref_traversal.reached);
  EXPECT_DOUBLE_EQ(traversal.stats.states, ref_traversal.stats.states);
  EXPECT_DOUBLE_EQ(traversal.stats.markings, ref_traversal.stats.markings);
}

TEST_P(TemplatedSaturationCrossValidation, VerdictsAgree) {
  EXPECT_EQ(traversal.consistent, ref_traversal.consistent);
  EXPECT_EQ(traversal.safe, ref_traversal.safe);
  EXPECT_EQ(traversal.complete, ref_traversal.complete);
  if (!ref_traversal.consistent) return;
  const bdd::Bdd& reached = ref_traversal.reached;
  EXPECT_EQ(signal_persistency(*templated, reached).empty(),
            signal_persistency(*reference, reached).empty());
  EXPECT_EQ(check_fake_freedom(*templated, reached).fake_free,
            check_fake_freedom(*reference, reached).fake_free);
  const SymReducibilityResult a = check_csc_reducibility(*templated, reached);
  const SymReducibilityResult b = check_csc_reducibility(*reference, reached);
  EXPECT_EQ(a.csc_satisfied, b.csc_satisfied);
  EXPECT_EQ(a.reducible, b.reducible);
}

INSTANTIATE_TEST_SUITE_P(Nets, TemplatedSaturationCrossValidation,
                         ::testing::Range(0, kNetCount));

// ---------------------------------------------------------------------------
// Report parity: every engine must report the same numbers and lists, not
// only reach the same BDD. Two layers per net and engine, all on one shared
// primed encoding (so Bdd-valued details -- witness cubes, CSC conflict
// code sets -- compare as handles):
//   * the full check_implementability pipeline: level and verdict flags;
//   * every check run directly on a non-aborting traversal: counts,
//     consistency, persistency, transition-conflict, fake-conflict and CSC
//     lists, irreducible signals. (The pipeline stops at the first
//     consistency or safeness violation, at a point that depends on each
//     engine's firing order, so its partial lists are not comparable.)
// Each witness must also lie inside its violation's bad set, recomputed
// from its definition. Nets: every example net, then random STGs (seeds
// 1..kRandomNets).
// ---------------------------------------------------------------------------

constexpr int kRandomNets = 12;

stg::Stg parity_net(int index) {
  if (index < kNetCount) return net_by_index(index);
  Rng rng(static_cast<std::uint64_t>(index - kNetCount + 1));
  return testutil::random_stg(rng);
}

/// Everything one engine reports about a net, in comparable containers.
struct ReportDigest {
  ImplementabilityLevel level = ImplementabilityLevel::kNotImplementable;
  std::vector<bool> pipeline_verdicts;
  std::vector<bool> verdicts;  // the direct checks' flags
  std::vector<std::string> consistency_violations;
  std::vector<stg::SignalId> unbound_signals;
  std::vector<double> counts;  // states, markings, codes, deadlock states
  std::vector<std::tuple<stg::SignalId, pn::TransitionId, bool, bdd::Bdd>>
      persistency;
  std::vector<std::tuple<pn::TransitionId, pn::TransitionId, bdd::Bdd>>
      transition_conflicts;
  std::vector<std::tuple<pn::TransitionId, pn::TransitionId, bool, bool, bool,
                         bool>>
      fake_conflicts;  // every structural conflict pair, not only offenders
  std::vector<std::pair<stg::SignalId, bdd::Bdd>> csc_conflicts;
  std::vector<stg::SignalId> irreducible_signals;
};

/// Every persistency witness is one full state of its violation's bad set;
/// every CSC conflict code set is a non-empty set of reached codes.
void expect_witnesses_inside_bad_sets(
    SymbolicStg& sym, const bdd::Bdd& reached,
    const std::vector<SymPersistencyViolation>& persistency,
    const std::vector<SymTransitionPersistencyViolation>& transitions,
    const SymCscResult& csc) {
  const stg::Stg& net = sym.stg();
  CofactorEngine engine(sym);
  const auto inside = [](const bdd::Bdd& w, const bdd::Bdd& bad) {
    return !w.is_false() && w.minus(bad).is_false();
  };
  const auto one_state_inside = [&](const bdd::Bdd& w, const bdd::Bdd& bad) {
    return sym.count_states(w) == 1.0 && w.implies(bad);
  };
  for (const SymTransitionPersistencyViolation& v : transitions) {
    // Fig. 6(a): the victim enabled, the disabler fired, the victim gone.
    const bdd::Bdd& e = sym.enabling_cube(v.victim);
    const bdd::Bdd bad = engine.image_via(reached & e, v.disabler).minus(e);
    EXPECT_TRUE(one_state_inside(v.witness, bad)) << net.format_label(v.victim);
  }
  for (const SymPersistencyViolation& v : persistency) {
    // Fig. 6(b): some transition of the victim signal enabled, the
    // disabler fired, that direction of the signal no longer enabled.
    bdd::Bdd bad = sym.manager().bdd_false();
    for (const stg::Dir dir : {stg::Dir::kPlus, stg::Dir::kMinus}) {
      for (const pn::TransitionId ti : net.transitions_of(v.victim, dir)) {
        bad |= engine.image_via(reached & sym.enabling_cube(ti), v.disabler)
                   .minus(sym.enabled_signal(v.victim, dir));
      }
    }
    EXPECT_TRUE(one_state_inside(v.witness, bad)) << net.signal_name(v.victim);
  }
  const bdd::Bdd codes = sym.manager().exists(reached, sym.place_cube());
  for (const SymCscResult::Conflict& c : csc.conflicts) {
    EXPECT_TRUE(inside(c.codes, codes)) << net.signal_name(c.signal);
  }
}

ReportDigest digest(SymbolicStg& sym, EngineKind kind) {
  ReportDigest d;
  CheckOptions pipeline;
  pipeline.engine = kind;
  const ImplementabilityReport r = check_implementability(sym, pipeline);
  d.level = r.level;
  d.pipeline_verdicts = {r.safe,          r.consistent, r.signal_persistent,
                         r.deterministic, r.fake_free,  r.usc,
                         r.csc,           r.csc_reducible, r.deadlock_free};

  const std::unique_ptr<ImageEngine> engine = make_engine(kind, sym);
  TraversalOptions options;
  options.abort_on_violation = false;
  const TraversalResult t = traverse(*engine, options);
  const bdd::Bdd& reached = t.reached;
  const auto persistency = signal_persistency(*engine, reached);
  const auto transitions = transition_persistency(*engine, reached);
  const SymCscResult csc = check_csc(sym, reached);
  const SymReducibilityResult reducibility =
      check_csc_reducibility(*engine, reached);
  expect_witnesses_inside_bad_sets(sym, reached, persistency, transitions, csc);

  d.verdicts = {t.consistent, t.safe, t.complete,
                determinism_violations(sym, reached).is_false(),
                csc.unique_state_coding, csc.complete_state_coding,
                reducibility.csc_satisfied, reducibility.reducible};
  d.consistency_violations = t.consistency_violations;
  d.unbound_signals = t.unbound_signals;
  d.counts = {t.stats.states, t.stats.markings, sym.count_codes(reached),
              sym.count_states(deadlock_states(sym, reached))};
  for (const SymPersistencyViolation& v : persistency) {
    d.persistency.emplace_back(v.victim, v.disabler, v.victim_is_input,
                               v.witness);
  }
  for (const SymTransitionPersistencyViolation& v : transitions) {
    d.transition_conflicts.emplace_back(v.victim, v.disabler, v.witness);
  }
  for (const SymFakeConflictReport& f :
       analyze_fake_conflicts(*engine, reached)) {
    d.fake_conflicts.emplace_back(f.t1, f.t2, f.fake_against_t1,
                                  f.fake_against_t2, f.disables_t1,
                                  f.disables_t2);
  }
  for (const SymCscResult::Conflict& c : csc.conflicts) {
    d.csc_conflicts.emplace_back(c.signal, c.codes);
  }
  d.irreducible_signals = reducibility.irreducible_signals;
  return d;
}

class ReportParity : public ::testing::TestWithParam<int> {};

TEST_P(ReportParity, EveryEngineReportsTheSameFacts) {
  const stg::Stg net = parity_net(GetParam());
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  const ReportDigest expected = digest(sym, EngineKind::kCofactor);
  for (const EngineKind kind :
       {EngineKind::kMonolithicRelation, EngineKind::kPartitionedRelation,
        EngineKind::kSaturation}) {
    const ReportDigest got = digest(sym, kind);
    const std::string engine = to_string(kind);
    EXPECT_EQ(got.level, expected.level) << engine;
    EXPECT_EQ(got.pipeline_verdicts, expected.pipeline_verdicts) << engine;
    EXPECT_EQ(got.verdicts, expected.verdicts) << engine;
    EXPECT_EQ(got.consistency_violations, expected.consistency_violations)
        << engine;
    EXPECT_EQ(got.unbound_signals, expected.unbound_signals) << engine;
    EXPECT_EQ(got.counts, expected.counts) << engine;
    EXPECT_EQ(got.persistency, expected.persistency) << engine;
    EXPECT_EQ(got.transition_conflicts, expected.transition_conflicts)
        << engine;
    EXPECT_EQ(got.fake_conflicts, expected.fake_conflicts) << engine;
    EXPECT_EQ(got.csc_conflicts, expected.csc_conflicts) << engine;
    EXPECT_EQ(got.irreducible_signals, expected.irreducible_signals) << engine;
  }
}

INSTANTIATE_TEST_SUITE_P(ExampleAndRandomNets, ReportParity,
                         ::testing::Range(0, kNetCount + kRandomNets));

}  // namespace
}  // namespace stgcheck::core
