// CheckSession: the session owns one check end to end and its event log
// narrates the same facts the report states.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "core/image_engine.hpp"
#include "core/session.hpp"
#include "core/traversal.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::core {
namespace {

TEST(CheckSession, RunProducesReportAndEncoding) {
  CheckSession session(stg::muller_pipeline(2));
  EXPECT_FALSE(session.has_run());
  EXPECT_EQ(session.encoding(), nullptr);

  const ImplementabilityReport& report = session.run();
  EXPECT_TRUE(session.has_run());
  ASSERT_NE(session.encoding(), nullptr);
  EXPECT_EQ(&report, &session.report());
  EXPECT_EQ(report.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_TRUE(report.traversal.ok());
  EXPECT_GT(report.traversal.stats.states, 0u);
}

TEST(CheckSession, RunTwiceThrows) {
  CheckSession session(stg::muller_pipeline(2));
  session.run();
  EXPECT_THROW(session.run(), ModelError);
}

TEST(CheckSession, EventLogBracketsTheRun) {
  CheckSession session(stg::muller_pipeline(2));
  const ImplementabilityReport& report = session.run();

  const std::vector<EventRecord>& records = session.events().records();
  ASSERT_GE(records.size(), 4u);
  EXPECT_EQ(records.front().kind, EventKind::kSessionStart);
  EXPECT_EQ(records.front().label, session.stg().name());
  EXPECT_EQ(records.back().kind, EventKind::kSessionDone);
  EXPECT_TRUE(records.back().has_ok);
  EXPECT_TRUE(records.back().ok);  // gate-implementable
  EXPECT_EQ(records.back().detail, to_string(report.level));

  // One kPass record per traversal pass, one kTraversalDone.
  std::size_t passes = 0;
  std::size_t traversal_done = 0;
  for (const EventRecord& r : records) {
    if (r.kind == EventKind::kPass) ++passes;
    if (r.kind == EventKind::kTraversalDone) ++traversal_done;
  }
  EXPECT_EQ(passes, report.traversal.stats.passes);
  EXPECT_EQ(traversal_done, 1u);
}

TEST(CheckSession, PhasesAreContiguousAndDeadlockHasItsOwn) {
  // Deadlock-freedom is its own phase between the traversal and Fig. 6,
  // so the persistency phase times persistency alone. Every phase_done
  // record carries the report's own time for that phase.
  CheckSession session(stg::examples::vme_read());
  const ImplementabilityReport& report = session.run();
  std::vector<std::string> phases;
  std::vector<double> seconds;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind != EventKind::kPhaseDone) continue;
    phases.push_back(r.label);
    ASSERT_FALSE(r.metrics.empty());
    seconds.push_back(r.metrics.front().second);
  }
  const std::vector<std::string> expected = {
      "traversal", "deadlock", "persistency", "commutativity", "csc"};
  ASSERT_EQ(phases, expected);
  const PhaseTimes& t = report.times;
  EXPECT_EQ(seconds, (std::vector<double>{t.traversal_consistency, t.deadlock,
                                          t.persistency, t.commutativity,
                                          t.csc}));
  EXPECT_LE(t.traversal_consistency + t.deadlock + t.persistency +
                t.commutativity + t.csc,
            t.total + 1e-9);
  EXPECT_NE(report.summary(session.stg()).find("  DL "), std::string::npos);
}

TEST(CheckSession, VerdictRecordsMatchReportFields) {
  CheckSession session(stg::examples::vme_read());  // I/O- but not gate-impl.
  const ImplementabilityReport& report = session.run();
  const EventLog& log = session.events();

  const struct {
    const char* check;
    bool expected;
  } verdicts[] = {
      {"safe", report.safe},
      {"consistent", report.consistent},
      {"deadlock_free", report.deadlock_free},
      {"persistent", report.signal_persistent},
      {"deterministic", report.deterministic},
      {"fake_free", report.fake_free},
      {"usc", report.usc},
      {"csc", report.csc},
  };
  for (const auto& [check, expected] : verdicts) {
    const EventRecord* record = log.find_verdict(check);
    ASSERT_NE(record, nullptr) << check;
    EXPECT_TRUE(record->has_ok) << check;
    EXPECT_EQ(record->ok, expected) << check;
  }
  // vme_read fails CSC, so the reducibility verdict must also be present.
  ASSERT_NE(log.find_verdict("csc_reducible"), nullptr);
  EXPECT_EQ(log.find_verdict("csc_reducible")->ok, report.csc_reducible);
}

TEST(CheckSession, FailedChecksStopEmittingLaterVerdicts) {
  // mutex_arbiter(2) is not persistent: the pipeline still reports every
  // phase it ran, and the persistency verdict carries the violation list.
  CheckSession session(stg::mutex_arbiter(2));
  const ImplementabilityReport& report = session.run();
  EXPECT_FALSE(report.signal_persistent);
  const EventRecord* persistent = session.events().find_verdict("persistent");
  ASSERT_NE(persistent, nullptr);
  EXPECT_FALSE(persistent->ok);
  EXPECT_NE(persistent->detail.find("disabled by"), std::string::npos);
  ASSERT_FALSE(session.events().records().empty());
  EXPECT_FALSE(session.events().records().back().ok);  // not implementable
}

TEST(CheckSession, InjectedClockStampsEveryRecord) {
  ManualClock clock;
  clock.set(41.5);
  CheckSession session(stg::muller_pipeline(2), {}, &clock);
  session.run();
  ASSERT_FALSE(session.events().records().empty());
  for (const EventRecord& r : session.events().records()) {
    EXPECT_EQ(r.at, 41.5);  // time never advanced during the run
  }
}

TEST(CheckSession, SinkStreamsEveryRecordInOrder) {
  std::vector<EventKind> streamed;
  CheckSession session(stg::muller_pipeline(2), {}, nullptr,
                       [&](const EventRecord& r) { streamed.push_back(r.kind); });
  session.run();
  const std::vector<EventRecord>& records = session.events().records();
  ASSERT_EQ(streamed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(streamed[i], records[i].kind);
  }
}

TEST(CheckSession, SessionsDoNotShareState) {
  // Two sessions over the same net: separate managers, identical results,
  // and the second's gauges are unaffected by the first having run.
  CheckSession first(stg::master_read(2));
  CheckSession second(stg::master_read(2));
  const ImplementabilityReport& a = first.run();
  const ImplementabilityReport& b = second.run();
  ASSERT_NE(first.encoding(), nullptr);
  ASSERT_NE(second.encoding(), nullptr);
  EXPECT_NE(&first.encoding()->manager(), &second.encoding()->manager());
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.traversal.stats.states, b.traversal.stats.states);
  EXPECT_EQ(a.traversal.stats.passes, b.traversal.stats.passes);
  EXPECT_EQ(a.traversal.stats.final_reached_nodes,
            b.traversal.stats.final_reached_nodes);
}

TEST(CheckSession, DefaultConfigSaturatesInOnePass) {
  // What stg_check runs without --engine: saturation on a primed
  // encoding, the whole fixpoint in one pass.
  CheckSession session(stg::make_family_instance("muller16"),
                       CheckConfig::from_args({}));
  const ImplementabilityReport& report = session.run();
  EXPECT_EQ(report.engine, EngineKind::kSaturation);
  ASSERT_NE(session.encoding(), nullptr);
  EXPECT_TRUE(session.encoding()->has_primed_vars());
  EXPECT_EQ(report.traversal.stats.passes, 1u);
  EXPECT_EQ(report.level, ImplementabilityLevel::kGateImplementable);
}

TEST(CheckSession, TraversalRecordIsTheTraversalLayer) {
  // bench_check reads the traversal layer off the session's
  // traversal_done record: its peak_live_nodes must be the peak of a bare
  // traversal on an encoding built the way CheckSession::run builds it,
  // and its reached-set sizes the report's.
  const auto metric = [](const EventRecord& r, const std::string& name) {
    for (const auto& [key, value] : r.metrics) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "no metric " << name;
    return -1.0;
  };
  for (const char* family : {"muller16", "mutex12", "select24"}) {
    const stg::Stg net = stg::make_family_instance(family);
    for (const EngineKind kind :
         {EngineKind::kSaturation, EngineKind::kCofactor,
          EngineKind::kMonolithicRelation}) {
      SCOPED_TRACE(std::string(family) + " / " + to_string(kind));
      SessionOptions options;
      options.check.engine = kind;
      CheckSession session(net, options);
      const ImplementabilityReport& report = session.run();
      const EventRecord* done = nullptr;
      for (const EventRecord& r : session.events().records()) {
        if (r.kind == EventKind::kTraversalDone) done = &r;
      }
      ASSERT_NE(done, nullptr);

      SymbolicStg sym(net, options.check.ordering, options.initial_nodes,
                      /*with_primed_vars=*/kind != EngineKind::kCofactor);
      sym.manager().reset_peak_stats();
      const std::unique_ptr<ImageEngine> engine = make_engine(kind, sym);
      TraversalOptions topt;
      topt.engine = kind;
      traverse(*engine, topt);

      const double peak = metric(*done, "peak_live_nodes");
      EXPECT_EQ(peak, static_cast<double>(sym.manager().peak_live_nodes()));
      EXPECT_LE(peak, static_cast<double>(
                          session.encoding()->manager().peak_live_nodes()));
      EXPECT_EQ(metric(*done, "peak_reached_nodes"),
                static_cast<double>(report.traversal.stats.peak_reached_nodes));
      EXPECT_EQ(metric(*done, "final_reached_nodes"),
                static_cast<double>(report.traversal.stats.final_reached_nodes));
    }
  }
}

TEST(CheckSession, OptionsAreResolvedPerSession) {
  SessionOptions options;
  options.check.ordering = Ordering::kClustered;
  CheckSession clustered(stg::muller_pipeline(2), options);
  CheckSession interleaved(stg::muller_pipeline(2));
  const ImplementabilityReport& a = clustered.run();
  const ImplementabilityReport& c = interleaved.run();
  EXPECT_EQ(clustered.options().check.ordering, Ordering::kClustered);
  EXPECT_EQ(interleaved.options().check.ordering, Ordering::kInterleaved);
  // Different orderings, same fixpoint.
  EXPECT_EQ(a.traversal.stats.states, c.traversal.stats.states);
}

}  // namespace
}  // namespace stgcheck::core
