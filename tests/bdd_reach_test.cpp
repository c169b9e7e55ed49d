// The in-kernel reachability operations: rel_next (the twin-pair
// relational product) against and_exists plus a rename written here,
// reach (the saturation REACH fixpoint) against an explicit iterated
// closure, its own rule order (any caller order gives the same set), the
// operand validation errors, and the exact-key cache across repeated and
// reseeded calls. check_invariants() runs after every operation.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

/// A manager with `pairs` twin pairs interleaved in declaration order:
/// state var i is variable 2i, its next-state twin variable 2i + 1.
struct TwinSpace {
  explicit TwinSpace(std::size_t pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      m.new_var("x" + std::to_string(i));
      m.new_var("x" + std::to_string(i) + "'");
    }
  }

  Var cur(std::size_t i) const { return static_cast<Var>(2 * i); }
  Var nxt(std::size_t i) const { return static_cast<Var>(2 * i + 1); }
  Bdd v(std::size_t i) { return m.var(cur(i)); }
  Bdd vn(std::size_t i) { return m.var(nxt(i)); }

  /// Positive cube of the state vars in `is`.
  Bdd support(const std::vector<std::size_t>& is) {
    std::vector<Var> vars;
    for (std::size_t i : is) vars.push_back(cur(i));
    return m.positive_cube(vars);
  }

  /// rel_next's reference semantics in two products: quantify the
  /// support, then rename each twin back onto its state var as a product
  /// with the identity relation AND_i (cur_i <-> nxt_i) that quantifies
  /// the twins.
  Bdd reference_next(const Bdd& states, const Bdd& rel,
                     const std::vector<std::size_t>& is) {
    const Bdd primed = m.and_exists(states, rel, support(is));
    Bdd identity = m.bdd_true();
    std::vector<Var> twins;
    for (std::size_t i : is) {
      identity &= !(v(i) ^ vn(i));
      twins.push_back(nxt(i));
    }
    return m.and_exists(primed, identity, m.positive_cube(twins));
  }

  Manager m;
};

// ---------------------------------------------------------------------------
// rel_next
// ---------------------------------------------------------------------------

TEST(RelNext, MatchesAndExistsPlusRenameOnRandomRelations) {
  TwinSpace ts(6);
  Rng rng(0xBDD);
  for (int trial = 0; trial < 40; ++trial) {
    // A random relation over a random support: OR of a few transition-like
    // cubes (current-state guard, next-state effect per support var).
    std::vector<std::size_t> is;
    for (std::size_t i = 0; i < 6; ++i) {
      if (rng.flip()) is.push_back(i);
    }
    if (is.empty()) is.push_back(rng.below(6));
    Bdd rel = ts.m.bdd_false();
    for (int cube = 0; cube < 3; ++cube) {
      Bdd term = ts.m.bdd_true();
      for (std::size_t i : is) {
        term &= rng.flip() ? ts.v(i) : !ts.v(i);
        term &= rng.flip() ? ts.vn(i) : !ts.vn(i);
      }
      rel |= term;
    }
    // A random state set over the state vars only.
    Bdd states = ts.m.bdd_false();
    for (int cube = 0; cube < 3; ++cube) {
      Bdd term = ts.m.bdd_true();
      for (std::size_t i = 0; i < 6; ++i) {
        if (rng.below(3) == 0) term &= rng.flip() ? ts.v(i) : !ts.v(i);
      }
      states |= term;
    }
    const Bdd sup = ts.support(is);
    const Bdd fast = ts.m.rel_next(states, rel, sup);
    EXPECT_EQ(fast, ts.reference_next(states, rel, is)) << "trial " << trial;
    ts.m.check_invariants();
  }
}

TEST(RelNext, FrameVariablesFlowThroughUntouched) {
  TwinSpace ts(3);
  // Relation over pair 1 only: x1 := !x1 (a toggle).
  const Bdd rel = (ts.v(1) & !ts.vn(1)) | (!ts.v(1) & ts.vn(1));
  const Bdd sup = ts.support({1});
  // x0 and x2 are frame: their values survive the step.
  const Bdd states = ts.v(0) & !ts.v(1) & !ts.v(2);
  const Bdd next = ts.m.rel_next(states, rel, sup);
  EXPECT_EQ(next, ts.v(0) & ts.v(1) & !ts.v(2));
  ts.m.check_invariants();
}

TEST(RelNext, TerminalCases) {
  TwinSpace ts(2);
  const Bdd rel = ts.v(0) & ts.vn(0);
  const Bdd sup = ts.support({0});
  EXPECT_TRUE(ts.m.rel_next(ts.m.bdd_false(), rel, sup).is_false());
  EXPECT_TRUE(ts.m.rel_next(ts.v(1), ts.m.bdd_false(), sup).is_false());
  // A true relation over an empty support is the identity product.
  EXPECT_EQ(ts.m.rel_next(ts.v(1), ts.m.bdd_true(), ts.m.bdd_true()), ts.v(1));
  ts.m.check_invariants();
}

// ---------------------------------------------------------------------------
// reach
// ---------------------------------------------------------------------------

/// Token-ring relations: rule i moves the token from slot i to slot
/// (i + 1) % n, leaving the other slots framed implicitly (sparse).
std::vector<ReachRelation> ring_rules(TwinSpace& ts, std::size_t n) {
  std::vector<ReachRelation> rules;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    ReachRelation r;
    r.rel = ts.v(i) & !ts.vn(i) & !ts.v(j) & ts.vn(j);
    r.support = ts.support({i, j});
    rules.push_back(r);
  }
  return rules;
}

/// The oracle: iterate rel_next to the fixpoint.
Bdd iterated_closure(Manager& m, Bdd states,
                     const std::vector<ReachRelation>& rules) {
  for (;;) {
    Bdd next = states;
    for (const ReachRelation& r : rules) {
      next |= m.rel_next(next, r.rel, r.support);
    }
    if (next == states) return states;
    states = next;
  }
}

TEST(Reach, TokenRingReachesEveryRotation) {
  TwinSpace ts(4);
  const std::vector<ReachRelation> rules = ring_rules(ts, 4);
  // Start: token in slot 0 only.
  Bdd init = ts.v(0) & !ts.v(1) & !ts.v(2) & !ts.v(3);
  const Bdd closed = ts.m.reach(init, rules);
  ts.m.check_invariants();
  // Exactly the four one-hot states.
  EXPECT_DOUBLE_EQ(ts.m.sat_count(closed, 4), 4.0);
  EXPECT_EQ(closed, iterated_closure(ts.m, init, rules));
}

TEST(Reach, MatchesIteratedClosureOnRandomRelations) {
  Rng rng(0x5A7);
  for (int trial = 0; trial < 25; ++trial) {
    TwinSpace ts(5);
    std::vector<ReachRelation> rules;
    const std::size_t n_rules = 1 + rng.below(4);
    for (std::size_t k = 0; k < n_rules; ++k) {
      std::vector<std::size_t> is;
      for (std::size_t i = 0; i < 5; ++i) {
        if (rng.flip()) is.push_back(i);
      }
      if (is.empty()) is.push_back(rng.below(5));
      Bdd rel = ts.m.bdd_false();
      for (int cube = 0; cube < 2; ++cube) {
        Bdd term = ts.m.bdd_true();
        for (std::size_t i : is) {
          term &= rng.flip() ? ts.v(i) : !ts.v(i);
          term &= rng.flip() ? ts.vn(i) : !ts.vn(i);
        }
        rel |= term;
      }
      rules.push_back(ReachRelation{rel, ts.support(is)});
    }
    Bdd init = ts.m.bdd_true();
    for (std::size_t i = 0; i < 5; ++i) {
      init &= rng.flip() ? ts.v(i) : !ts.v(i);
    }
    const Bdd closed = ts.m.reach(init, rules);
    ts.m.check_invariants();
    EXPECT_EQ(closed, iterated_closure(ts.m, init, rules)) << "trial " << trial;
    // Idempotence: a closed set is its own fixpoint.
    EXPECT_EQ(ts.m.reach(closed, rules), closed) << "trial " << trial;
  }
}

TEST(Reach, TerminalSeedsAndEmptyRuleLists) {
  TwinSpace ts(3);
  const std::vector<ReachRelation> rules = ring_rules(ts, 3);
  EXPECT_TRUE(ts.m.reach(ts.m.bdd_false(), rules).is_false());
  EXPECT_TRUE(ts.m.reach(ts.m.bdd_true(), rules).is_true());
  const Bdd some = ts.v(0) & !ts.v(1);
  EXPECT_EQ(ts.m.reach(some, {}), some);  // no rules: the seed is closed
  // A false relation and an empty-support true relation both fire nothing.
  EXPECT_EQ(ts.m.reach(some, {{ts.m.bdd_false(), ts.support({0, 1})},
                              {ts.m.bdd_true(), ts.m.bdd_true()}}),
            some);
  ts.m.check_invariants();
}

TEST(Reach, RepeatedCallsHitTheDedicatedCache) {
  TwinSpace ts(4);
  const std::vector<ReachRelation> rules = ring_rules(ts, 4);
  const Bdd init = ts.v(0) & !ts.v(1) & !ts.v(2) & !ts.v(3);
  const Bdd first = ts.m.reach(init, rules);
  const std::size_t hits_before = ts.m.stats().cache_hits;
  EXPECT_EQ(ts.m.reach(init, rules), first);
  // The second run resolves from the (states, rule) cache: at least the
  // top-level entry must hit.
  EXPECT_GT(ts.m.stats().cache_hits, hits_before);
}

TEST(Reach, SurvivesSiftingBetweenCalls) {
  TwinSpace ts(4);
  ts.m.group_vars({ts.cur(0), ts.nxt(0)});
  ts.m.group_vars({ts.cur(1), ts.nxt(1)});
  ts.m.group_vars({ts.cur(2), ts.nxt(2)});
  ts.m.group_vars({ts.cur(3), ts.nxt(3)});
  const std::vector<ReachRelation> rules = ring_rules(ts, 4);
  const Bdd init = ts.v(0) & !ts.v(1) & !ts.v(2) & !ts.v(3);
  const Bdd before = ts.m.reach(init, rules);
  const double count = ts.m.sat_count(before);
  ts.m.sift();
  ts.m.check_invariants();
  // Groups kept every twin directly below its variable, so the same call
  // is valid -- and the (reorder-cleared) caches rebuild the same set.
  const Bdd after = ts.m.reach(init, rules);
  EXPECT_EQ(after, before);
  EXPECT_DOUBLE_EQ(ts.m.sat_count(after), count);
  ts.m.check_invariants();
}

TEST(Reach, OrdersItsOwnRules) {
  // reach() sorts its rules by their current top support level (ties in
  // the caller's order), so a caller hands them over in any order: a
  // reversed and a shuffled list give the identical Bdd, before and after
  // the levels move.
  TwinSpace ts(6);
  for (std::size_t i = 0; i < 6; ++i) ts.m.group_vars({ts.cur(i), ts.nxt(i)});
  Rng rng(0x0DE5);
  std::vector<ReachRelation> rules;
  for (std::size_t k = 0; k < 8; ++k) {
    // A six-slot token ring, then two rules from slots 0 and 1 into random
    // slots: several rules share x0's top level, so the lists differ in
    // their tie order too.
    const std::size_t i = k % 6;
    const std::size_t j = k < 6 ? (i + 1) % 6 : rng.below(6);
    ReachRelation r;
    r.rel = ts.v(i) & !ts.vn(i);
    if (j != i) r.rel &= !ts.v(j) & ts.vn(j);
    r.support = ts.support(j != i ? std::vector<std::size_t>{i, j}
                                  : std::vector<std::size_t>{i});
    rules.push_back(r);
  }
  const std::vector<ReachRelation> reversed(rules.rbegin(), rules.rend());
  std::vector<ReachRelation> shuffled = rules;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  const Bdd init = ts.v(0) & ts.v(3) & !ts.v(1) & !ts.v(2) & !ts.v(4) & !ts.v(5);
  const Bdd closed = ts.m.reach(init, rules);
  EXPECT_EQ(closed, iterated_closure(ts.m, init, rules));

  const auto expect_same = [&](const char* when) {
    EXPECT_EQ(ts.m.reach(init, reversed), closed) << when;
    EXPECT_EQ(ts.m.reach(init, shuffled), closed) << when;
    EXPECT_EQ(ts.m.reach(init, rules), closed) << when;
    ts.m.check_invariants();
  };
  expect_same("initial order");
  // Flip the twin blocks end to end, so every rule's top level moves.
  const std::vector<Var> order = ts.m.current_order();
  std::vector<Var> flipped;
  for (std::size_t block = order.size() / 2; block-- > 0;) {
    flipped.push_back(order[2 * block]);
    flipped.push_back(order[2 * block + 1]);
  }
  ts.m.reorder(flipped);
  expect_same("after reorder");
  ts.m.sift();
  expect_same("after sift");
}

// ---------------------------------------------------------------------------
// Operand validation
// ---------------------------------------------------------------------------

TEST(ReachValidation, RejectsNegativeSupportLiterals) {
  TwinSpace ts(2);
  const Bdd rel = ts.v(0) & ts.vn(0);
  EXPECT_THROW(ts.m.rel_next(ts.m.bdd_true(), rel, !ts.v(0)), ModelError);
}

TEST(ReachValidation, RejectsSupportVariableWithoutTwinBelow) {
  Manager m;
  const Bdd x = m.new_var("x");  // bottom of the order: no twin below
  EXPECT_THROW(m.rel_next(m.bdd_true(), x, x), ModelError);
}

TEST(ReachValidation, RejectsAdjacentSupportVariables) {
  TwinSpace ts(2);
  // x0 and its own twin both claimed as support: adjacent levels.
  const Bdd bad_sup = ts.m.positive_cube({ts.cur(0), ts.nxt(0)});
  EXPECT_THROW(ts.m.rel_next(ts.m.bdd_true(), ts.v(0), bad_sup), ModelError);
}

TEST(ReachValidation, RejectsRelationOutsideItsSupportPairs) {
  TwinSpace ts(3);
  const Bdd rel = ts.v(0) & ts.vn(0) & ts.v(2);  // mentions pair 2
  EXPECT_THROW(ts.m.rel_next(ts.m.bdd_true(), rel, ts.support({0})),
               ModelError);
}

TEST(ReachValidation, RejectsStatesMentioningATwin) {
  TwinSpace ts(2);
  const Bdd rel = ts.v(0) & ts.vn(0);
  EXPECT_THROW(ts.m.rel_next(ts.vn(0), rel, ts.support({0})), ModelError);
  EXPECT_THROW(ts.m.reach(ts.vn(0), {{rel, ts.support({0})}}), ModelError);
}

}  // namespace
}  // namespace stgcheck::bdd
