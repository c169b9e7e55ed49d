// Resource governance: budgets and cooperative cancellation, kernel to
// session. The contract under test (docs/architecture.md): a tripped
// limit unwinds between kernel operations via CancelledError, leaves the
// manager invariant-clean and reusable, freezes its gauges in the trip,
// and surfaces as a typed event record plus a governed SessionOutcome --
// never as a crash or a failed session. Unit label, so TSan covers the
// concurrent-cancel tests in CI.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/checks.hpp"
#include "core/implementability.hpp"
#include "core/session.hpp"
#include "server/protocol.hpp"
#include "stg/generators.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"

#include "example_nets.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Manager;

// ---- Kernel level --------------------------------------------------------

TEST(Budget, UnlimitedByDefault) {
  ResourceBudget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.max_steps = 1;
  EXPECT_FALSE(budget.unlimited());
}

TEST(Budget, LimitKindNamesRoundTrip) {
  for (const LimitKind kind : {LimitKind::kCancelled, LimitKind::kNodeCap,
                               LimitKind::kDeadline, LimitKind::kStepCap}) {
    const auto parsed = parse_limit_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_limit_kind("never-heard-of-it").has_value());
}

TEST(Budget, CancelTokenTripsNextOperation) {
  Manager m;
  const Bdd a = m.new_var("a");
  const Bdd b = m.new_var("b");

  ResourceBudget budget;
  budget.token = std::make_shared<CancelToken>();
  m.set_budget(budget);
  EXPECT_EQ((a & b), m.ite(a, b, m.bdd_false()));  // armed but not cancelled

  budget.token->cancel();
  try {
    const Bdd unused = a | b;
    (void)unused;
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.trip().kind, LimitKind::kCancelled);
  }

  // The unwind left the manager consistent and reusable.
  EXPECT_NO_THROW(m.check_invariants());
  m.clear_budget();
  EXPECT_EQ((a | b), !(!a & !b));
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Budget, NodeCapCarriesGaugesAndLeavesManagerClean) {
  Manager m;
  std::vector<Bdd> vars;
  for (int i = 0; i < 24; ++i) vars.push_back(m.new_var());

  ResourceBudget budget;
  budget.max_live_nodes = 8;  // far below what the conjunctions need
  m.set_budget(budget);

  Bdd f = m.bdd_true();
  try {
    for (std::size_t i = 0; i + 1 < vars.size(); i += 2) {
      f &= (vars[i] ^ vars[i + 1]);
    }
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.trip().kind, LimitKind::kNodeCap);
    EXPECT_GT(e.trip().live_nodes, 8u);
    EXPECT_GE(e.trip().elapsed_seconds, 0.0);
  }
  EXPECT_NO_THROW(m.check_invariants());

  // Disarmed by the trip: the same operations now run to completion.
  Bdd g = m.bdd_true();
  for (std::size_t i = 0; i + 1 < vars.size(); i += 2) {
    g &= (vars[i] ^ vars[i + 1]);
  }
  EXPECT_FALSE(g.is_false());
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Budget, TripInsideEmptinessTestLeavesManagerClean) {
  // The check phases decide most questions with node-free emptiness tests
  // (disjoint_with / implies). Those poll the budget like every other
  // wrapper: a cancel or an expired deadline landing while they run
  // unwinds cleanly, and the manager answers the same questions the same
  // way once disarmed.
  const stg::Stg net = stg::mutex_arbiter(3);
  SymbolicStg sym(net);
  CofactorEngine engine(sym);
  TraversalOptions options;
  options.abort_on_violation = false;
  const TraversalResult r = traverse(engine, options);
  Manager& m = sym.manager();
  const Bdd& reached = r.reached;
  const Bdd e0 = sym.enabling_cube(0);
  const Bdd any0 = sym.enabled_signal_any(net.label(0).signal);
  const bool disjoint = reached.disjoint_with(e0);
  const bool implies = reached.implies(any0);
  const bool unsafe = !engine.unsafe_states(reached, 0).is_false();

  for (const LimitKind kind : {LimitKind::kCancelled, LimitKind::kDeadline}) {
    ResourceBudget budget;
    if (kind == LimitKind::kCancelled) {
      budget.token = std::make_shared<CancelToken>();
      budget.token->cancel();
    } else {
      budget.max_seconds = 1e-9;  // expired by the first safe point
    }
    const auto expect_trip = [&](const auto& emptiness_test) {
      m.set_budget(budget);
      const std::size_t nodes = m.stats().node_count;
      try {
        emptiness_test();
        FAIL() << "expected CancelledError";
      } catch (const CancelledError& e) {
        EXPECT_EQ(e.trip().kind, kind);
      }
      m.clear_budget();
      EXPECT_EQ(m.stats().node_count, nodes);
      EXPECT_NO_THROW(m.check_invariants());
    };
    expect_trip([&] { (void)reached.disjoint_with(e0); });
    expect_trip([&] { (void)reached.implies(any0); });
    expect_trip([&] { (void)engine.unsafe_states(reached, 0); });
  }

  // Reusable: the same verdicts, and a full check suite still runs.
  EXPECT_EQ(reached.disjoint_with(e0), disjoint);
  EXPECT_EQ(reached.implies(any0), implies);
  EXPECT_EQ(!engine.unsafe_states(reached, 0).is_false(), unsafe);
  EXPECT_FALSE(signal_persistency(engine, reached).empty());
  EXPECT_TRUE(check_csc(sym, reached).complete_state_coding);
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Budget, TripInsideSiftLeavesOrderValidAndManagerClean) {
  // A sift of a large table runs for seconds, so sift() polls the budget
  // between block moves. An armed budget that has already expired trips
  // at the first poll, after exactly one block move: the unwind must
  // leave the table canonical, every twin-pair group contiguous, the
  // caches and reorder epoch coherent, and a later full check on the same
  // manager must reach the same verdicts.
  const stg::Stg net = stg::mutex_arbiter(3);
  SymbolicStg sym(net, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  CheckOptions options;
  options.engine = EngineKind::kSaturation;
  const ImplementabilityReport before = check_implementability(sym, options);
  Manager& m = sym.manager();
  ASSERT_GT(m.group_count(), 0u);

  for (const LimitKind kind : {LimitKind::kCancelled, LimitKind::kDeadline}) {
    ResourceBudget budget;
    if (kind == LimitKind::kCancelled) {
      budget.token = std::make_shared<CancelToken>();
      budget.token->cancel();
    } else {
      budget.max_seconds = 1e-9;
    }
    const std::vector<bdd::Var> order_before = m.current_order();
    const std::size_t epoch_before = m.reorder_epoch();
    m.set_budget(budget);
    try {
      m.sift();
      FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.trip().kind, kind);
    }
    EXPECT_NO_THROW(m.check_invariants());
    for (std::size_t g = 0; g < m.group_count(); ++g) {
      const std::vector<bdd::Var>& members = m.group(g);
      for (std::size_t i = 1; i < members.size(); ++i) {
        EXPECT_EQ(m.level_of_var(members[i]),
                  m.level_of_var(members[i - 1]) + 1)
            << "group " << g << " split by the interrupted sift";
      }
    }
    // Engines resync on an epoch bump; one must happen iff the order moved.
    EXPECT_EQ(m.reorder_epoch() != epoch_before,
              m.current_order() != order_before);
  }

  const ImplementabilityReport after = check_implementability(sym, options);
  EXPECT_EQ(after.level, before.level);
  EXPECT_EQ(after.traversal.reached, before.traversal.reached);
  EXPECT_EQ(after.traversal.stats.states, before.traversal.stats.states);
  EXPECT_EQ(after.safe, before.safe);
  EXPECT_EQ(after.consistent, before.consistent);
  EXPECT_EQ(after.signal_persistent, before.signal_persistent);
  EXPECT_EQ(after.persistency_violations.size(),
            before.persistency_violations.size());
  EXPECT_EQ(after.fake_free, before.fake_free);
  EXPECT_EQ(after.usc, before.usc);
  EXPECT_EQ(after.csc, before.csc);
  EXPECT_EQ(after.deadlock_free, before.deadlock_free);
  EXPECT_NO_THROW(m.check_invariants());
}

// ---- Session level -------------------------------------------------------

/// The comparable part of a report: everything except wall-clock times.
std::string fingerprint(const CheckSession& session) {
  json::Value stripped = json::Value::object();
  const json::Value report =
      server::report_to_json(session.stg(), session.report());
  for (const auto& [key, value] : report.as_object()) {
    if (key != "times") stripped.set(key, value);
  }
  return stripped.dump();
}

TEST(Budget, StepCapStopsSessionWithTypedEventAndCleanManager) {
  SessionOptions options;
  options.limits.max_steps = 1;  // muller_pipeline(5) needs many passes
  CheckSession session(stg::muller_pipeline(5), options);
  EXPECT_NO_THROW(session.run());  // a governed stop, not a failure

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kStepCap);
  EXPECT_GT(session.trip()->steps, 1u);

  // The typed record carries the same gauges the trip froze.
  const EventRecord* record = nullptr;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kResourceExhausted) record = &r;
    EXPECT_NE(r.kind, EventKind::kError);  // governed, not failed
  }
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->label, "step_cap");
  bool saw_steps = false;
  for (const auto& [name, value] : record->metrics) {
    if (name == "steps") {
      saw_steps = true;
      EXPECT_EQ(value, static_cast<double>(session.trip()->steps));
    }
  }
  EXPECT_TRUE(saw_steps);

  ASSERT_NE(session.encoding(), nullptr);
  EXPECT_NO_THROW(session.encoding()->manager().check_invariants());
}

TEST(Budget, NodeCapStopsSessionOnLargerNet) {
  SessionOptions options;
  options.limits.max_live_nodes = 64;  // encoding alone far exceeds this
  CheckSession session(stg::master_read(4), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kNodeCap);
  EXPECT_GT(session.trip()->live_nodes, 64u);
  EXPECT_NO_THROW(session.encoding()->manager().check_invariants());
}

TEST(Budget, DeadlineStopsSession) {
  SessionOptions options;
  options.limits.max_seconds = 1e-9;  // expired by the first safe point
  CheckSession session(stg::master_read(2), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kDeadline);
}

TEST(Budget, PreCancelledTokenYieldsCancelledOutcome) {
  SessionOptions options;
  options.limits.token = std::make_shared<CancelToken>();
  options.limits.token->cancel();
  CheckSession session(stg::muller_pipeline(2), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kCancelled);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kCancelled);
  bool saw_cancelled = false;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kCancelled) saw_cancelled = true;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST(Budget, GenerousLimitsAreBitIdenticalToNoLimits) {
  // Arming a budget must not perturb the computation: a never-tripping
  // budget produces the same report, field for field, as no budget.
  for (const int net : {0, 2, 4, 16}) {
    CheckSession unlimited(testutil::example_net(net));
    unlimited.run();

    SessionOptions governed;
    governed.limits.max_live_nodes = 1u << 30;
    governed.limits.max_seconds = 3600.0;
    governed.limits.max_steps = 1u << 30;
    governed.limits.token = std::make_shared<CancelToken>();
    CheckSession with_budget(testutil::example_net(net), governed);
    with_budget.run();

    EXPECT_EQ(with_budget.outcome(), SessionOutcome::kCompleted);
    EXPECT_EQ(fingerprint(unlimited), fingerprint(with_budget))
        << "budget perturbed the report on net " << net;
  }
}

TEST(Budget, CancelDuringCheckPhasesIsGovernedAndClean) {
  // A cancel landing as each check phase starts (the event sink flips the
  // token on the previous phase's phase_done record) stops the session at
  // the next safe point inside that phase: governed outcome, no verdict
  // from the phase, manager invariant-clean.
  for (const std::string phase : {"traversal", "persistency", "commutativity"}) {
    SessionOptions options;
    options.limits.token = std::make_shared<CancelToken>();
    const std::shared_ptr<CancelToken> token = options.limits.token;
    bool cancelled = false;
    CheckSession session(
        stg::mutex_arbiter(4), std::move(options), nullptr,
        [&](const EventRecord& r) {
          if (r.kind == EventKind::kPhaseDone && r.label == phase) {
            token->cancel();
            cancelled = true;
          }
        });
    EXPECT_NO_THROW(session.run());
    ASSERT_TRUE(cancelled) << phase;
    EXPECT_EQ(session.outcome(), SessionOutcome::kCancelled) << phase;
    ASSERT_TRUE(session.trip().has_value());
    EXPECT_EQ(session.trip()->kind, LimitKind::kCancelled);
    for (const EventRecord& r : session.events().records()) {
      EXPECT_FALSE(r.kind == EventKind::kVerdict && r.label == "csc") << phase;
    }
    ASSERT_NE(session.encoding(), nullptr);
    EXPECT_NO_THROW(session.encoding()->manager().check_invariants());
  }
}

// ---- Concurrent cancellation (TSan-covered) ------------------------------

TEST(Budget, ConcurrentCancelRacingRunningSessionsIsClean) {
  // One cancel thread flips every token while the sessions run. Whichever
  // side wins each race, nothing crashes, every manager stays consistent,
  // and a cancelled session reports the governed outcome.
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<CheckSession>> sessions;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  for (int i = 0; i < kSessions; ++i) {
    SessionOptions options;
    options.limits.token = std::make_shared<CancelToken>();
    tokens.push_back(options.limits.token);
    sessions.push_back(std::make_unique<CheckSession>(
        stg::muller_pipeline(5), std::move(options)));
  }

  std::vector<std::thread> runners;
  runners.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    runners.emplace_back([&, i] { sessions[size_t(i)]->run(); });
  }
  std::thread canceller([&] {
    for (const auto& token : tokens) token->cancel();
  });
  for (std::thread& t : runners) t.join();
  canceller.join();

  for (const auto& session : sessions) {
    EXPECT_TRUE(session->outcome() == SessionOutcome::kCancelled ||
                session->outcome() == SessionOutcome::kCompleted);
    if (session->outcome() == SessionOutcome::kCancelled) {
      ASSERT_TRUE(session->trip().has_value());
      EXPECT_EQ(session->trip()->kind, LimitKind::kCancelled);
    }
    ASSERT_NE(session->encoding(), nullptr);
    EXPECT_NO_THROW(session->encoding()->manager().check_invariants());
  }
}

}  // namespace
}  // namespace stgcheck::core
