// The top-level implementability verdicts (Def. 2.6 hierarchy).
#include <gtest/gtest.h>

#include "core/implementability.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::core {
namespace {

TEST(Implementability, MullerPipelineIsGateImplementable) {
  ImplementabilityReport r = check_implementability(stg::muller_pipeline(4));
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_TRUE(r.safe);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.signal_persistent);
  EXPECT_TRUE(r.deterministic);
  EXPECT_TRUE(r.fake_free);
  EXPECT_TRUE(r.usc);
  EXPECT_TRUE(r.csc);
  EXPECT_TRUE(r.deadlock_free);
}

TEST(Implementability, MasterReadIsGateImplementable) {
  ImplementabilityReport r = check_implementability(stg::master_read(3));
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, SelectChainGateImplementableWithoutUsc) {
  ImplementabilityReport r = check_implementability(stg::select_chain(3));
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_FALSE(r.usc);
  EXPECT_TRUE(r.csc);
}

TEST(Implementability, MutexNeedsArbitrationDeclared) {
  ImplementabilityReport strict = check_implementability(stg::examples::mutex2());
  EXPECT_EQ(strict.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(strict.signal_persistent);

  CheckOptions options;
  options.arbitration_pairs.push_back({"g1", "g2"});
  ImplementabilityReport relaxed =
      check_implementability(stg::examples::mutex2(), options);
  EXPECT_EQ(relaxed.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, UnknownArbitrationSignalFailsTheCheck) {
  // A misspelled name must not silently drop its pair (which would leave
  // the grant conflict standing and report "not implementable").
  CheckOptions options;
  options.arbitration_pairs.push_back({"g1", "gX"});
  try {
    check_implementability(stg::examples::mutex2(), options);
    ADD_FAILURE() << "no ModelError";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'gX'"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + stg::examples::mutex2().name() + "'"),
              std::string::npos)
        << what;
  }
  // Resolution is all or nothing, and order-preserving when it succeeds.
  const stg::Stg s = stg::examples::mutex2();
  EXPECT_THROW(resolve_arbitration_pairs(s, {{"gX", "g2"}}), ModelError);
  const auto ids = resolve_arbitration_pairs(s, {{"g2", "g1"}});
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0].first, s.find_signal("g2"));
  EXPECT_EQ(ids[0].second, s.find_signal("g1"));
}

TEST(Implementability, OutputCycleIsIoImplementable) {
  // CSC fails but is reducible: an I/O-equivalent circuit exists after
  // inserting an internal signal (output_cycle_resolved proves it).
  ImplementabilityReport r = check_implementability(stg::examples::output_cycle());
  EXPECT_EQ(r.level, ImplementabilityLevel::kIoImplementable);
  EXPECT_FALSE(r.csc);
  EXPECT_TRUE(r.csc_reducible);

  ImplementabilityReport resolved =
      check_implementability(stg::examples::output_cycle_resolved());
  EXPECT_EQ(resolved.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, PulseCycleOnlySiImplementable) {
  // Irreducible CSC: no fixed-interface circuit exists, but the necessary
  // conditions for trace-equivalent (interface-changing) implementation
  // hold.
  ImplementabilityReport r = check_implementability(stg::examples::pulse_cycle());
  EXPECT_EQ(r.level, ImplementabilityLevel::kSiImplementable);
  EXPECT_FALSE(r.csc_reducible);
}

TEST(Implementability, InconsistentIsNotImplementable) {
  ImplementabilityReport r =
      check_implementability(stg::examples::inconsistent_rise_rise());
  EXPECT_EQ(r.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(r.consistent);
}

TEST(Implementability, UnsafeIsNotImplementable) {
  ImplementabilityReport r =
      check_implementability(stg::examples::unsafe_two_token_ring());
  EXPECT_EQ(r.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(r.safe);
}

TEST(Implementability, SymmetricFakeRejected) {
  // fig3_d1 has a symmetric fake conflict: rejected from I/O and gate
  // classes by the Sec. 3.5 rule even though its signals are persistent.
  ImplementabilityReport r = check_implementability(stg::examples::fig3_d1());
  EXPECT_FALSE(r.fake_free);
  EXPECT_EQ(r.level, ImplementabilityLevel::kSiImplementable);
  // The equivalent fake-free D2 is gate-implementable... except that its
  // signals a, b are inputs firing spontaneously; it still satisfies all
  // conditions.
  ImplementabilityReport r2 = check_implementability(stg::examples::fig3_d2());
  EXPECT_TRUE(r2.fake_free);
  EXPECT_EQ(r2.level, ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, TimesAndSummaryPopulated) {
  stg::Stg s = stg::mutex_arbiter(3);
  CheckOptions options;
  options.arbitration_pairs.push_back({"g1", "g2"});
  options.arbitration_pairs.push_back({"g1", "g3"});
  options.arbitration_pairs.push_back({"g2", "g3"});
  ImplementabilityReport r = check_implementability(s, options);
  EXPECT_EQ(r.level, ImplementabilityLevel::kGateImplementable);
  EXPECT_GE(r.times.total, 0.0);
  const std::string text = r.summary(s);
  EXPECT_NE(text.find("gate-implementable"), std::string::npos);
  EXPECT_NE(text.find("states"), std::string::npos);
  EXPECT_NE(text.find("T+C"), std::string::npos);
  EXPECT_NE(text.find("config:            engine saturation, ordering "
                      "interleaved, 0 sift runs"),
            std::string::npos)
      << text;
}

TEST(Implementability, ReportStatesTheEffectiveConfiguration) {
  CheckOptions options;
  options.engine = EngineKind::kCofactor;
  options.ordering = Ordering::kClustered;
  const ImplementabilityReport r =
      check_implementability(stg::muller_pipeline(3), options);
  EXPECT_EQ(r.engine, EngineKind::kCofactor);
  EXPECT_EQ(r.ordering, Ordering::kClustered);
  EXPECT_EQ(r.sift_runs, 0u);  // far below the auto-sift floor

  // Only the check's own sifts count, not the manager's earlier ones.
  SymbolicStg sym(stg::muller_pipeline(3));
  sym.manager().sift();
  ASSERT_EQ(sym.manager().profile().sift_runs, 1u);
  EXPECT_EQ(check_implementability(sym, options).sift_runs, 0u);
}

TEST(Implementability, DefaultEngineIsSaturationOnAPrimedEncoding) {
  const ImplementabilityReport r =
      check_implementability(stg::muller_pipeline(4));
  EXPECT_EQ(r.engine, EngineKind::kSaturation);
  ASSERT_NE(r.encoding, nullptr);
  EXPECT_TRUE(r.encoding->has_primed_vars());
  EXPECT_EQ(r.traversal.stats.passes, 1u);
}

TEST(Implementability, DefaultOnAPlainEncodingThrowsInsteadOfFallingBack) {
  SymbolicStg plain(stg::muller_pipeline(4));
  try {
    check_implementability(plain);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("primed variables"),
              std::string::npos)
        << e.what();
  }
  // The paper's method runs on the plain encoding.
  CheckOptions cofactor;
  cofactor.engine = EngineKind::kCofactor;
  EXPECT_EQ(check_implementability(plain, cofactor).level,
            ImplementabilityLevel::kGateImplementable);
}

TEST(Implementability, FailingMutationIsRejectedAtTheDefaultLikeUnderCofactor) {
  // muller16 with an extra token on <in+,c1+>: saturation closes the set
  // in one call, cofactor in many passes; both must say the same.
  stg::Stg net = stg::muller_pipeline(16);
  net.net().set_initial_tokens(net.net().find_place("<in+,c1+>"), 1);
  CheckOptions paper;
  paper.engine = EngineKind::kCofactor;
  const ImplementabilityReport def = check_implementability(net);
  const ImplementabilityReport cof = check_implementability(net, paper);
  EXPECT_EQ(def.level, ImplementabilityLevel::kNotImplementable);
  EXPECT_FALSE(def.traversal.ok());
  EXPECT_EQ(def.traversal.stats.passes, 1u);
  EXPECT_GT(cof.traversal.stats.passes, 1u);
  EXPECT_EQ(def.level, cof.level);
  EXPECT_EQ(def.safe, cof.safe);
  EXPECT_EQ(def.consistent, cof.consistent);
  EXPECT_EQ(def.traversal.stats.states, cof.traversal.stats.states);
  EXPECT_EQ(def.traversal.stats.markings, cof.traversal.stats.markings);
  EXPECT_EQ(def.traversal.safeness_detail, cof.traversal.safeness_detail);
  EXPECT_EQ(def.traversal.consistency_violations,
            cof.traversal.consistency_violations);
  EXPECT_EQ(def.traversal.unbound_signals, cof.traversal.unbound_signals);
  EXPECT_FALSE(def.traversal.consistency_violations.empty() &&
               def.traversal.safeness_detail.empty());
}

TEST(Implementability, MarkedGraphShortcutSkipsPersistency) {
  CheckOptions with;
  with.exploit_marked_graphs = true;
  CheckOptions without;
  without.exploit_marked_graphs = false;
  ImplementabilityReport r1 = check_implementability(stg::muller_pipeline(3), with);
  ImplementabilityReport r2 =
      check_implementability(stg::muller_pipeline(3), without);
  EXPECT_EQ(r1.level, r2.level);
  EXPECT_TRUE(r1.signal_persistent);
  EXPECT_TRUE(r2.signal_persistent);
}

TEST(Implementability, DeadlockVerdictDoesNotReadTheCount) {
  // Without the arc z0- -> st1 the select chain stops after z0- fires.
  // At 192 stages the state count underflows to 0, so a verdict read off
  // the count would call the net deadlock-free.
  for (const std::size_t n : {24u, 192u}) {
    std::string text = stg::write_astg_string(stg::select_chain(n));
    const std::string arc = "z0-/2 st1\n";
    const std::size_t at = text.find(arc);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, arc.size());
    CheckOptions options;
    options.engine = EngineKind::kSaturation;
    const ImplementabilityReport r =
        check_implementability(stg::parse_astg_string(text), options);
    ASSERT_TRUE(r.traversal.ok()) << n;
    EXPECT_FALSE(r.deadlock_free) << n;
  }
}

TEST(Implementability, UscVerdictDoesNotReadAnInexactCount) {
  // At 270 stages muller's state count underflows to 0 while its code
  // count does not, so comparing the two would call the net non-USC.
  CheckOptions options;
  options.engine = EngineKind::kSaturation;
  const ImplementabilityReport muller =
      check_implementability(stg::muller_pipeline(270), options);
  ASSERT_TRUE(muller.traversal.ok());
  EXPECT_TRUE(muller.usc);
}

TEST(Implementability, LevelToString) {
  EXPECT_EQ(to_string(ImplementabilityLevel::kGateImplementable),
            "gate-implementable");
  EXPECT_EQ(to_string(ImplementabilityLevel::kNotImplementable),
            "not implementable");
}

}  // namespace
}  // namespace stgcheck::core
