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
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "sg/explicit_checks.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"

namespace stgcheck::core {
namespace {

constexpr int kNetCount = testutil::kExampleNetCount;
/// Random free-choice nets (testutil::random_choice_stg, seeds
/// 1..kChoiceNets) after the example nets.
constexpr int kChoiceNets = 16;

stg::Stg net_by_index(int index) {
  if (index < kNetCount) return testutil::example_net(index);
  Rng rng(static_cast<std::uint64_t>(index - kNetCount + 1));
  return testutil::random_choice_stg(rng);
}

/// Distinct (victim, disabler) pairs, the form both checkers agree on: the
/// explicit checker reports one per offending edge, the symbolic one per
/// pair.
template <typename Violations>
std::set<std::pair<std::size_t, pn::TransitionId>> victim_disabler_pairs(
    const Violations& violations) {
  std::set<std::pair<std::size_t, pn::TransitionId>> pairs;
  for (const auto& v : violations) pairs.insert({v.victim, v.disabler});
  return pairs;
}

class CrossValidation : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    net = std::make_unique<stg::Stg>(net_by_index(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net);
    traversal = traverse(*sym);
    graph = sg::build_state_graph(*net);
    ASSERT_TRUE(graph.complete);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
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
  const sg::PersistencyResult explicit_r = sg::check_signal_persistency(graph);
  const auto symbolic_r = signal_persistency(*sym, traversal.reached);
  EXPECT_EQ(symbolic_r.empty(), explicit_r.persistent);
  EXPECT_EQ(victim_disabler_pairs(symbolic_r),
            victim_disabler_pairs(explicit_r.violations));
}

TEST_P(CrossValidation, TransitionPersistency) {
  if (!traversal.consistent) GTEST_SKIP();
  EXPECT_EQ(victim_disabler_pairs(transition_persistency(*sym, traversal.reached)),
            victim_disabler_pairs(sg::check_transition_persistency(graph)));
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
      check_csc_reducibility(*sym, traversal.reached);
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
  auto symbolic_r = analyze_fake_conflicts(*sym, traversal.reached);
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
  EXPECT_EQ(check_fake_freedom(*sym, traversal.reached).fake_free,
            sg::check_fake_freedom(graph).fake_free);
}

TEST_P(CrossValidation, Deadlocks) {
  if (!traversal.consistent) GTEST_SKIP();
  const double explicit_count =
      static_cast<double>(sg::find_deadlocks(graph).size());
  const bdd::Bdd dead = deadlock_states(*sym, traversal.reached);
  EXPECT_EQ(sym->count_states(dead), explicit_count);
  EXPECT_EQ(dead.is_false(), explicit_count == 0);
}

INSTANTIATE_TEST_SUITE_P(ExampleAndChoiceNets, CrossValidation,
                         ::testing::Range(0, kNetCount + kChoiceNets));

// The choice nets reach both branches of the signal-persistency check:
// some seeds disable a non-input branch signal, some draw two inputs.
TEST(RandomChoiceNets, ReachBothPersistencyVerdicts) {
  std::size_t violating = 0;
  for (int index = kNetCount; index < kNetCount + kChoiceNets; ++index) {
    const stg::Stg net = net_by_index(index);
    SymbolicStg sym(net);
    const TraversalResult t = traverse(sym);
    ASSERT_TRUE(t.ok()) << index;
    if (!signal_persistency(sym, t.reached).empty()) ++violating;
  }
  EXPECT_GT(violating, 0u);
  EXPECT_LT(violating, static_cast<std::size_t>(kChoiceNets));
}

// Orderings must not change any verdict, only BDD sizes.
class OrderingInvariance : public ::testing::TestWithParam<Ordering> {};

TEST_P(OrderingInvariance, VerdictsAreOrderIndependent) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s, GetParam());
  TraversalResult r = traverse(sym);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 32.0);
  EXPECT_FALSE(signal_persistency(sym, r.reached).empty());
  EXPECT_TRUE(check_csc(sym, r.reached).complete_state_coding);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderingInvariance,
                         ::testing::Values(Ordering::kInterleaved,
                                           Ordering::kClustered,
                                           Ordering::kRandom));

// ---------------------------------------------------------------------------
// Engine cross-validation: every ImageEngine backend -- including the
// saturation backend, whose whole fixpoint runs inside one kernel REACH
// operation -- must reach the same fixed point (pass counts aside) on
// every net. All engines share one primed encoding, so the reached sets
// are compared as BDDs, not just counted: bit-identical against the
// cofactor reference means bit-identical against every other backend.
// The checks run on the encoding and the reached set alone, so equal
// reached sets give equal check results by construction.
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

    traversal = traverse(*engine);
    ref_traversal = traverse(*reference);
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<ImageEngine> engine;
  std::unique_ptr<CofactorEngine> reference;
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
  EXPECT_EQ(traversal.consistency_violations,
            ref_traversal.consistency_violations);
  EXPECT_EQ(traversal.safeness_detail, ref_traversal.safeness_detail);
}

INSTANTIATE_TEST_SUITE_P(
    NetsTimesEngines, EngineCrossValidation,
    ::testing::Combine(::testing::Range(0, kNetCount + kChoiceNets),
                       ::testing::Values(EngineKind::kCofactor,
                                         EngineKind::kMonolithicRelation,
                                         EngineKind::kSaturation)));

// ---------------------------------------------------------------------------
// Report parity: every engine must report the same facts, not only reach
// the same BDD, on failing nets as on passing ones. Per net and engine, on
// one shared primed encoding, the check_implementability pipeline: level
// and verdict flags, the reached set as a handle, its state, marking and
// code counts, the consistency list, the safeness detail and the unbound
// signals. Every traversal runs to its fixpoint, so an unsafe or
// inconsistent net gets its full counts and lists, and its state count
// equals the explicit oracle's. The checks take only the encoding and the
// reached set, so their lists are computed once, on that set; each
// witness must lie inside its violation's bad set, recomputed from its
// definition. Nets: every example net, an inconsistent and an unsafe one,
// then random STGs (seeds 1..kRandomNets): token rings over a shared
// signal pool, often inconsistent, all with declared initial values.
// ---------------------------------------------------------------------------

constexpr int kFailingNets = 2;
constexpr int kRandomNets = 48;

stg::Stg parity_net(int index) {
  if (index < kNetCount) return net_by_index(index);
  if (index == kNetCount) return stg::examples::inconsistent_rise_rise();
  if (index == kNetCount + 1) return stg::examples::unsafe_two_token_ring();
  Rng rng(static_cast<std::uint64_t>(index - kNetCount - kFailingNets + 1));
  return testutil::random_stg(rng);
}

/// The explicit oracle's state count under the encoding's firing rule:
/// the states of the explicit state graph reachable from its initial
/// state through firings that leave every place at one token at most and
/// flip their signal. The symbolic image fires nothing else, so on a safe
/// and consistent net this is every state.
double oracle_states(const stg::Stg& net) {
  const sg::StateGraph graph = sg::build_state_graph(net);
  EXPECT_TRUE(graph.complete) << net.name();
  std::vector<bool> seen(graph.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  double count = 0;
  while (!stack.empty()) {
    const std::size_t s = stack.back();
    stack.pop_back();
    ++count;
    for (const sg::SgEdge& e : graph.edges[s]) {
      if (seen[e.target] || graph.markings[e.target].max_tokens() > 1) continue;
      const stg::TransitionLabel& label = net.label(e.transition);
      if (!label.is_dummy() &&
          graph.codes[s][label.signal] == graph.codes[e.target][label.signal]) {
        continue;  // an inconsistent firing leaves its signal as it was
      }
      seen[e.target] = true;
      stack.push_back(e.target);
    }
  }
  return count;
}

/// What one engine's check_implementability run reports about a net.
struct EngineDigest {
  ImplementabilityLevel level = ImplementabilityLevel::kNotImplementable;
  std::vector<bool> verdicts;
  bdd::Bdd reached;
  std::vector<double> counts;  // states, markings, codes
  std::vector<std::string> consistency_violations;
  std::string safeness_detail;
  std::vector<stg::SignalId> unbound_signals;
};

EngineDigest digest(SymbolicStg& sym, EngineKind kind) {
  CheckOptions options;
  options.engine = kind;
  const ImplementabilityReport r = check_implementability(sym, options);
  const TraversalResult& t = r.traversal;
  EngineDigest d;
  d.level = r.level;
  d.verdicts = {r.safe,          r.consistent, r.signal_persistent,
                r.deterministic, r.fake_free,  r.usc,
                r.csc,           r.csc_reducible, r.deadlock_free};
  d.reached = t.reached;
  d.counts = {t.stats.states, t.stats.markings, sym.count_codes(t.reached)};
  d.consistency_violations = t.consistency_violations;
  d.safeness_detail = t.safeness_detail;
  d.unbound_signals = t.unbound_signals;
  return d;
}

/// Every persistency witness is one full state of its violation's bad
/// set; every CSC conflict code set is a non-empty set of reached codes.
void expect_witnesses_inside_bad_sets(SymbolicStg& sym,
                                      const bdd::Bdd& reached) {
  const stg::Stg& net = sym.stg();
  const auto one_state_inside = [&](const bdd::Bdd& w, const bdd::Bdd& bad) {
    return sym.count_states(w) == 1.0 && w.implies(bad);
  };
  for (const SymTransitionPersistencyViolation& v :
       transition_persistency(sym, reached)) {
    // Fig. 6(a): the victim enabled, the disabler fired, the victim gone.
    const bdd::Bdd& e = sym.enabling_cube(v.victim);
    const bdd::Bdd bad = sym.image(reached & e, v.disabler).minus(e);
    EXPECT_TRUE(one_state_inside(
        transition_persistency_witness(sym, reached, v), bad))
        << net.format_label(v.victim);
  }
  for (const SymPersistencyViolation& v : signal_persistency(sym, reached)) {
    // Fig. 6(b): the recorded transition ti of the victim signal enabled,
    // the disabler fired, ti's direction of the signal no longer enabled.
    const stg::TransitionLabel& label = net.label(v.ti);
    ASSERT_EQ(label.signal, v.victim) << net.format_label(v.ti);
    const bdd::Bdd bad =
        sym.image(reached & sym.enabling_cube(v.ti), v.disabler)
            .minus(sym.enabled_signal(v.victim, label.dir));
    EXPECT_TRUE(one_state_inside(
        signal_persistency_witness(sym, reached, v), bad))
        << net.signal_name(v.victim);
  }
  const bdd::Bdd codes = sym.manager().exists(reached, sym.place_cube());
  for (const SymCscResult::Conflict& c : check_csc(sym, reached).conflicts) {
    EXPECT_TRUE(!c.codes.is_false() && c.codes.implies(codes))
        << net.signal_name(c.signal);
  }
}

class ReportParity : public ::testing::TestWithParam<int> {};

TEST_P(ReportParity, EveryEngineReportsTheSameFacts) {
  const stg::Stg net = parity_net(GetParam());
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  const EngineDigest expected = digest(sym, EngineKind::kCofactor);
  EXPECT_DOUBLE_EQ(expected.counts[0], oracle_states(net));
  for (const EngineKind kind :
       {EngineKind::kMonolithicRelation, EngineKind::kSaturation}) {
    const EngineDigest got = digest(sym, kind);
    const std::string engine = to_string(kind);
    EXPECT_EQ(got.level, expected.level) << engine;
    EXPECT_EQ(got.verdicts, expected.verdicts) << engine;
    EXPECT_EQ(got.reached, expected.reached) << engine;
    EXPECT_EQ(got.counts, expected.counts) << engine;
    EXPECT_EQ(got.consistency_violations, expected.consistency_violations)
        << engine;
    EXPECT_EQ(got.safeness_detail, expected.safeness_detail) << engine;
    EXPECT_EQ(got.unbound_signals, expected.unbound_signals) << engine;
  }
  expect_witnesses_inside_bad_sets(sym, expected.reached);
}

INSTANTIATE_TEST_SUITE_P(
    ExampleFailingAndRandomNets, ReportParity,
    ::testing::Range(0, kNetCount + kFailingNets + kRandomNets));

}  // namespace
}  // namespace stgcheck::core
