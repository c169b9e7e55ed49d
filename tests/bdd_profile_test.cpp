// Kernel observability: the per-op profile (Manager::profile()) and the
// ManagerStats cache-group split.
//
// The load-bearing regression here is the partition law: the cache groups
// (binary ops / REACH, plus the retired permute group, which reads 0) must
// sum to exactly the aggregate cache_lookups / cache_hits. This test pins
// the accounting so no future cache can silently fall outside the groups.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/trace.hpp"

namespace stgcheck::bdd {
namespace {

/// A manager with `pairs` interleaved twin pairs (state var 2i, its
/// next-state twin 2i + 1) and a workload that exercises every live cache
/// group: binary ops and emptiness tests, and the REACH saturation with
/// its in-kernel rel_next firings.
struct Workload {
  Manager m;
  std::vector<Bdd> vars;

  explicit Workload(std::size_t pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      m.new_var("x" + std::to_string(i));
      m.new_var("x" + std::to_string(i) + "'");
    }
    for (Var v = 0; v < m.var_count(); ++v) vars.push_back(m.var(v));
  }

  /// A token-ring transition relation over the twin pairs and an initial
  /// state, driven through reach() -- fires rel_next in-kernel.
  void run_all_ops() {
    const std::size_t pairs = vars.size() / 2;
    // Binary ops + ITE + exists.
    Bdd f = vars[0] ^ vars[2];
    f = m.ite(f, vars[4], !vars[0]);
    f = m.exists(f & vars[2], m.positive_cube({0}));
    // Node-free emptiness tests (the binary group's disjoint traffic),
    // repeated so the second round hits the cache.
    for (int round = 0; round < 2; ++round) {
      (void)f.disjoint_with(vars[2] ^ vars[4]);
      (void)(vars[0] & vars[2]).implies(vars[0] | vars[4]);
    }
    // REACH: token moves around the ring; every rule i moves the token
    // from position i to i + 1 (mod pairs).
    std::vector<ReachRelation> rules;
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::size_t j = (i + 1) % pairs;
      ReachRelation r;
      r.rel = vars[2 * i] & !vars[2 * i + 1] & !vars[2 * j] & vars[2 * j + 1];
      r.support = m.positive_cube({static_cast<Var>(2 * i),
                                   static_cast<Var>(2 * j)});
      rules.push_back(r);
    }
    Bdd init = vars[0];
    for (std::size_t i = 1; i < pairs; ++i) init &= !vars[2 * i];
    (void)m.reach(init, rules);
  }
};

TEST(Profile, CacheGroupsPartitionAggregate) {
  Workload w(4);
  w.run_all_ops();
  const ManagerStats s = w.m.stats();
  // Every live group saw traffic in this workload; the retired permute
  // group never does.
  EXPECT_GT(s.binary_cache_lookups, 0u);
  EXPECT_GT(s.reach_cache_lookups, 0u);
  EXPECT_EQ(s.permute_cache_lookups, 0u);
  EXPECT_EQ(s.permute_cache_hits, 0u);
  // The partition law: the groups sum to exactly the aggregate.
  EXPECT_EQ(s.binary_cache_lookups + s.reach_cache_lookups +
                s.permute_cache_lookups,
            s.cache_lookups);
  EXPECT_EQ(s.binary_cache_hits + s.reach_cache_hits + s.permute_cache_hits,
            s.cache_hits);
  // No group hits more often than it looks up.
  EXPECT_LE(s.binary_cache_hits, s.binary_cache_lookups);
  EXPECT_LE(s.reach_cache_hits, s.reach_cache_lookups);
  EXPECT_LE(s.permute_cache_hits, s.permute_cache_lookups);
}

TEST(Profile, PerOpCallCountsAreUnconditional) {
  Workload w(4);
  ASSERT_FALSE(w.m.profiling());  // disarmed by default
  w.run_all_ops();
  const ManagerProfile prof = w.m.profile();
  EXPECT_FALSE(prof.timings_armed);
  // Calls count even disarmed (they ride the existing counters)...
  EXPECT_GT(prof.op(OpKind::kAnd).calls, 0u);
  EXPECT_GT(prof.op(OpKind::kIte).calls, 0u);
  EXPECT_GT(prof.op(OpKind::kExists).calls, 0u);
  EXPECT_GT(prof.op(OpKind::kReach).calls, 0u);
  // ...including the in-saturation rule firings on the rel_next slot,
  // even though the public rel_next wrapper never ran.
  EXPECT_GT(prof.op(OpKind::kRelNext).calls, 0u);
  EXPECT_GT(prof.op(OpKind::kDisjoint).calls, 0u);
  // ...but the disarmed kernel reads no clock.
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    EXPECT_EQ(prof.ops[k].seconds, 0.0);
  }
  EXPECT_EQ(prof.gc_seconds, 0.0);
  EXPECT_EQ(prof.sift_seconds, 0.0);
  // The retired slots count nothing.
  for (const OpKind kind :
       {OpKind::kRestrict, OpKind::kPermute, OpKind::kAndExistsMulti}) {
    EXPECT_EQ(prof.op(kind).calls, 0u) << to_string(kind);
    EXPECT_EQ(prof.op(kind).cache_lookups, 0u) << to_string(kind);
  }
}

TEST(Profile, ArmedTimingsAccumulate) {
  Workload w(4);
  w.m.set_profiling(true);
  w.run_all_ops();
  (void)w.m.sift();
  const ManagerProfile prof = w.m.profile();
  EXPECT_TRUE(prof.timings_armed);
  EXPECT_GT(prof.op(OpKind::kReach).seconds, 0.0);
  EXPECT_EQ(prof.sift_runs, 1u);
  EXPECT_GT(prof.sift_seconds, 0.0);
}

TEST(Profile, ArmedAndDisarmedResultsIdentical) {
  // set_profiling only reads clocks; results must be bit-identical.
  Workload armed(4);
  armed.m.set_profiling(true);
  Workload plain(4);
  armed.run_all_ops();
  plain.run_all_ops();
  const ManagerStats a = armed.m.stats();
  const ManagerStats b = plain.m.stats();
  EXPECT_EQ(a.live_count, b.live_count);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST(Profile, OpKindNamesAreStable) {
  // The names are schema: the session's metrics snapshot builds counter
  // names from them ("op_calls_rel_next" etc.).
  EXPECT_STREQ(to_string(OpKind::kAnd), "and");
  EXPECT_STREQ(to_string(OpKind::kRelNext), "rel_next");
  EXPECT_STREQ(to_string(OpKind::kReach), "reach");
  EXPECT_STREQ(to_string(OpKind::kDisjoint), "disjoint");
  // Retired slots: kept for the benchmark's per-layer schema, never
  // counted.
  EXPECT_STREQ(to_string(OpKind::kRestrict), "restrict");
  EXPECT_STREQ(to_string(OpKind::kPermute), "permute");
  EXPECT_STREQ(to_string(OpKind::kAndExistsMulti), "and_exists_multi");
}

TEST(Profile, DisjointTrafficCountsInBinaryGroup) {
  // The emptiness tests memoize in the main computed cache, so their
  // lookups and hits belong to the binary group and the partition law
  // above keeps holding with them in the mix.
  Workload w(4);
  w.run_all_ops();
  const ManagerProfile prof = w.m.profile();
  const OpProfile& disjoint = prof.op(OpKind::kDisjoint);
  EXPECT_EQ(disjoint.calls, 4u);
  EXPECT_GT(disjoint.cache_lookups, 0u);
  EXPECT_GT(disjoint.cache_hits, 0u);  // the second round is cached
  const ManagerStats s = w.m.stats();
  std::size_t binary_lookups = 0;
  std::size_t binary_hits = 0;
  for (const OpKind kind : {OpKind::kAnd, OpKind::kXor, OpKind::kIte,
                            OpKind::kExists, OpKind::kAndExists,
                            OpKind::kCofactor, OpKind::kDisjoint}) {
    binary_lookups += prof.op(kind).cache_lookups;
    binary_hits += prof.op(kind).cache_hits;
  }
  EXPECT_EQ(s.binary_cache_lookups, binary_lookups);
  EXPECT_EQ(s.binary_cache_hits, binary_hits);
}

TEST(Profile, TraceSpansRecordGcAndReachFirings) {
  Workload w(4);
  TraceRecorder rec;
  w.m.set_trace(&rec);
  ASSERT_EQ(w.m.trace(), &rec);
  w.run_all_ops();
  w.m.collect_garbage();
  w.m.set_trace(nullptr);
  std::size_t firings = 0;
  std::size_t gcs = 0;
  const json::Value doc = rec.to_json();
  const json::Array& events = doc.at("traceEvents").as_array();
  for (const json::Value& e : events) {
    const std::string name = e.at("name").as_string();
    if (name == "reach_rule") ++firings;
    if (name == "gc") ++gcs;
  }
  EXPECT_GT(firings, 0u);
  EXPECT_GT(gcs, 0u);
  // One span per counted in-saturation firing.
  EXPECT_EQ(firings, w.m.profile().op(OpKind::kRelNext).calls);
}

}  // namespace
}  // namespace stgcheck::bdd
