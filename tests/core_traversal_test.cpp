// Symbolic traversal: fixed points, chaining, consistency and safeness
// on the fly, lazy initial-value binding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "random_stg.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"
#include "util/trace.hpp"

namespace stgcheck::core {
namespace {

TEST(Traversal, PulseCycleReachesFourStates) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  EXPECT_DOUBLE_EQ(r.stats.markings, 4.0);
  EXPECT_TRUE(r.unbound_signals.empty());
}

// Chaining fires each transition from everything found earlier in the
// same pass, so a Muller pipeline of n stages settles in n + 2 passes
// (the last one finds nothing). Frontier firing takes 154 passes on
// muller16, so this fails if a pass ever stops chaining.
TEST(Traversal, ChainingPassesHaveClosedForm) {
  for (const std::size_t n : {4u, 8u, 16u}) {
    stg::Stg s = stg::muller_pipeline(n);
    SymbolicStg sym(s);
    ImageEngine engine(EngineKind::kCofactor, sym);
    TraversalResult r = traverse(engine);
    EXPECT_TRUE(r.ok()) << n;
    EXPECT_EQ(r.stats.passes, n + 2) << n;
  }
}

TEST(Traversal, MatchesExplicitStateCounts) {
  for (const stg::Stg& s :
       {stg::muller_pipeline(4), stg::master_read(3), stg::mutex_arbiter(4),
        stg::select_chain(3), stg::examples::vme_read(),
        stg::examples::input_pulse_counter(), stg::examples::fig3_d1(),
        stg::examples::fig3_d2(), stg::examples::output_cycle()}) {
    SymbolicStg sym(s);
    TraversalResult r = traverse(sym);
    ASSERT_TRUE(r.ok()) << s.name();
    sg::StateGraph g = sg::build_state_graph(s);
    ASSERT_TRUE(g.complete) << s.name();
    EXPECT_DOUBLE_EQ(r.stats.states, static_cast<double>(g.size())) << s.name();
    EXPECT_DOUBLE_EQ(r.stats.markings,
                     static_cast<double>(g.distinct_markings()))
        << s.name();
  }
}

TEST(Traversal, DetectsInconsistency) {
  // The violation does not stop the traversal: b+ -> a+ is explored to
  // the end. The second b+, enabled while b = 1, is never imaged.
  stg::Stg s = stg::examples::inconsistent_rise_rise();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_FALSE(r.consistent);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.consistency_violations.empty());
  EXPECT_NE(r.consistency_violations[0].find("b+"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.stats.states, 3.0);
}

TEST(Traversal, DetectsUnsafeness) {
  stg::Stg s = stg::examples::unsafe_two_token_ring();
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_FALSE(r.safe);
  EXPECT_NE(r.safeness_detail.find("second token"), std::string::npos);
}

TEST(Traversal, LazyBindingInfersInitialValues) {
  // pulse_cycle without explicit initial values: the traversal must bind
  // a=0 (a+ first) and b=0 (b+ first) and reach exactly 4 states.
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  const stg::SignalId b = s.add_signal("b", stg::SignalKind::kOutput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto bp = s.add_transition(b, stg::Dir::kPlus);
  auto bm = s.add_transition(b, stg::Dir::kMinus);
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, bp);
  s.connect(bp, bm);
  s.connect(bm, am);
  s.connect(am, ap, 1);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.unbound_signals.empty());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  // Initial state has a=0: the initial cube with a=0 must be in Reached,
  // with a=1 out.
  EXPECT_TRUE((sym.initial_state() & !sym.signal(a) & !sym.signal(b))
                  .implies(r.reached));
  EXPECT_TRUE((sym.initial_state() & sym.signal(a)).disjoint_with(r.reached));
}

TEST(Traversal, LazyBindingFallingFirst) {
  // First transition of b is b-: its initial value must bind to 1.
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  const stg::SignalId b = s.add_signal("b", stg::SignalKind::kOutput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto bm = s.add_transition(b, stg::Dir::kMinus);
  auto bp = s.add_transition(b, stg::Dir::kPlus);
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, bm);
  s.connect(bm, bp);
  s.connect(bp, am);
  s.connect(am, ap, 1);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.stats.states, 4.0);
  EXPECT_TRUE((sym.initial_state() & !sym.signal(a) & sym.signal(b))
                  .implies(r.reached));
}

TEST(Traversal, StatsArePopulated) {
  stg::Stg s = stg::muller_pipeline(4);
  SymbolicStg sym(s);
  TraversalResult r = traverse(sym);
  EXPECT_GT(r.stats.passes, 0u);
  EXPECT_GT(r.stats.image_computations, 0u);
  EXPECT_GT(r.stats.peak_reached_nodes, 0u);
  EXPECT_GE(r.stats.peak_reached_nodes, r.stats.final_reached_nodes);
  EXPECT_GT(r.stats.states, 0.0);
}

TEST(AutoSiftPolicy, TriggersOnDoublingOnly) {
  // The documented policy: reorder when the live count has more than
  // doubled since the last reorder (not quadrupled -- the doc and the code
  // disagreed once; this pins the doubling rule).
  AutoSiftPolicy policy(100);
  EXPECT_EQ(policy.watermark, 100u);
  EXPECT_FALSE(policy.should_sift(0));
  EXPECT_FALSE(policy.should_sift(200));  // exactly 2x: not yet
  EXPECT_TRUE(policy.should_sift(201));
}

TEST(AutoSiftPolicy, WatermarkFollowsTheLiveCountButNeverTheFloor) {
  AutoSiftPolicy policy(100);
  policy.reset_watermark(500);  // table grew: next trigger at > 1000
  EXPECT_EQ(policy.watermark, 500u);
  EXPECT_FALSE(policy.should_sift(1000));
  EXPECT_TRUE(policy.should_sift(1001));
  policy.reset_watermark(30);  // sift shrank below the floor: clamp up
  EXPECT_EQ(policy.watermark, 100u);
  EXPECT_FALSE(policy.should_sift(150));
}

TEST(AutoSiftPolicy, ZeroFloorSiftsAtTheFirstOpportunity) {
  AutoSiftPolicy policy(0);
  EXPECT_TRUE(policy.should_sift(1));
  policy.reset_watermark(40);
  EXPECT_FALSE(policy.should_sift(80));
  EXPECT_TRUE(policy.should_sift(81));
}

TEST(Traversal, ForcedAutoSiftMatchesBaselineAndActuallyReorders) {
  stg::Stg s = stg::master_read(3);
  SymbolicStg baseline_sym(s);
  TraversalOptions off;
  off.auto_sift = false;
  const TraversalResult baseline = traverse(baseline_sym, off);

  SymbolicStg sym(s);
  TraversalOptions on;
  on.auto_sift = true;
  on.auto_sift_threshold = 0;
  const TraversalResult sifted = traverse(sym, on);
  EXPECT_TRUE(sifted.ok());
  EXPECT_DOUBLE_EQ(sifted.stats.states, baseline.stats.states);
  EXPECT_DOUBLE_EQ(sifted.stats.markings, baseline.stats.markings);
  EXPECT_GT(sym.manager().reorder_epoch(), 0u);
}

TEST(Traversal, DeadlockDetection) {
  stg::Stg live = stg::muller_pipeline(3);
  SymbolicStg sym_live(live);
  TraversalResult r_live = traverse(sym_live);
  EXPECT_TRUE(deadlock_states(sym_live, r_live.reached).is_false());

  stg::Stg dead = stg::examples::fig3_d1();
  SymbolicStg sym_dead(dead);
  TraversalResult r_dead = traverse(sym_dead);
  EXPECT_FALSE(deadlock_states(sym_dead, r_dead.reached).is_false());
}

TEST(Traversal, SaturationTracesTheClosedSetTests) {
  // The closed-set tests and the counts after REACH are named spans, not a
  // gap between the closure and the end of the traversal.
  const stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  TraceRecorder rec;
  TraversalOptions options;
  options.engine = EngineKind::kSaturation;
  options.trace = &rec;
  ASSERT_TRUE(traverse(sym, options).ok());
  std::vector<std::string> names;
  const json::Value doc = rec.to_json();
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    names.push_back(e.at("name").as_string());
  }
  for (const char* name :
       {"reach_fixpoint", "consistency", "safeness", "count"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
  }
}

TEST(Traversal, SaturationReachedSetsHaveClosedForms) {
  // The roster families' reached sets grow linearly in BDD nodes and by
  // a closed form in states. An encoding or ordering change that breaks
  // one of these fails here, not as a drift in a benchmark.
  struct Case {
    stg::Stg net;
    std::size_t nodes;
    double states;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {64u, 128u}) {
    cases.push_back({stg::muller_pipeline(n), 20 * n + 9,
                     std::ldexp(1.0, static_cast<int>(n) + 1)});
  }
  for (const std::size_t n : {24u, 48u, 96u}) {
    cases.push_back({stg::select_chain(n), 33 * n - 6, 7.0 * n});
  }
  for (const Case& c : cases) {
    SymbolicStg sym(c.net, Ordering::kInterleaved, 1 << 14,
                    /*with_primed_vars=*/true);
    TraversalOptions options;
    options.engine = EngineKind::kSaturation;
    const TraversalResult r = traverse(sym, options);
    ASSERT_TRUE(r.ok()) << c.net.name();
    EXPECT_EQ(r.stats.final_reached_nodes, c.nodes) << c.net.name();
    EXPECT_EQ(r.stats.states, c.states) << c.net.name();
  }
}

/// A clock that moves one second on every read, so no two span boundaries
/// coincide and nesting reads off the timestamps exactly.
class TickingClock final : public Clock {
 public:
  double seconds() const override { return now_ += 1.0; }

 private:
  mutable double now_ = 0;
};

TEST(Traversal, StepWiseTracesTheClosedSetTestsOnce) {
  // The cofactor twin of SaturationTracesTheClosedSetTests: the step-wise
  // loop runs consistency and safeness once, on the closed set, after its
  // last pass.
  const stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg sym(s);
  TickingClock clock;
  TraceRecorder rec(&clock);
  TraversalOptions options;
  options.engine = EngineKind::kCofactor;
  options.trace = &rec;
  ASSERT_TRUE(traverse(sym, options).ok());
  double last_pass_end = 0;
  std::vector<double> check_starts;
  const json::Value doc = rec.to_json();
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    const double ts = e.at("ts").as_number();
    const std::string& name = e.at("name").as_string();
    if (name == "pass") {
      last_pass_end = std::max(last_pass_end, ts + e.at("dur").as_number());
    }
    if (name == "consistency" || name == "safeness") check_starts.push_back(ts);
  }
  ASSERT_GT(last_pass_end, 0);
  ASSERT_EQ(check_starts.size(), 2u);
  for (const double ts : check_starts) EXPECT_GT(ts, last_pass_end);
}

// deadlock_states is one implication against SymbolicStg::any_enabled(),
// the balanced union of the enabling cubes. Both must equal the folds
// they replaced, on every example net (fig3_d1 reaches a deadlock) and on
// random STGs.
constexpr int kRandomDeadlockNets = 12;

stg::Stg deadlock_net(int index) {
  if (index < testutil::kExampleNetCount) return testutil::example_net(index);
  Rng rng(static_cast<std::uint64_t>(index - testutil::kExampleNetCount + 1));
  return testutil::random_stg(rng);
}

class DeadlockStates : public ::testing::TestWithParam<int> {};

TEST_P(DeadlockStates, EqualsThePerTransitionFold) {
  const stg::Stg net = deadlock_net(GetParam());
  SymbolicStg sym(net);
  const TraversalResult r = traverse(sym);
  const auto fold = [&](const bdd::Bdd& states) {
    bdd::Bdd dead = states;
    for (pn::TransitionId t = 0; t < net.net().transition_count(); ++t) {
      dead = dead.minus(sym.enabling_cube(t));
    }
    return dead;
  };
  for (const bdd::Bdd& states :
       {r.reached, sym.initial_state(), sym.manager().bdd_true(),
        sym.manager().bdd_false()}) {
    EXPECT_EQ(deadlock_states(sym, states), fold(states)) << net.name();
  }
  if (net.name() == stg::examples::fig3_d1().name()) {
    EXPECT_FALSE(deadlock_states(sym, r.reached).is_false());
  }
}

TEST_P(DeadlockStates, BalancedUnionEqualsLeftFold) {
  const stg::Stg net = deadlock_net(GetParam());
  SymbolicStg sym(net);
  bdd::Bdd fold = sym.manager().bdd_false();
  for (pn::TransitionId t = 0; t < net.net().transition_count(); ++t) {
    fold |= sym.enabling_cube(t);
  }
  const bdd::Bdd& cached = sym.any_enabled();
  EXPECT_EQ(cached, fold) << net.name();
  EXPECT_EQ(&sym.any_enabled(), &cached);  // built once per encoding
}

INSTANTIATE_TEST_SUITE_P(
    Nets, DeadlockStates,
    ::testing::Range(0, testutil::kExampleNetCount + kRandomDeadlockNets));

}  // namespace
}  // namespace stgcheck::core
