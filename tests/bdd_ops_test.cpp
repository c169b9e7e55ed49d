// Correctness of the Boolean operations on hand-checked formulas, plus a
// property test of the node-free emptiness tests (disjoint_with / implies)
// against their node-building definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/encoding.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

class BddOps : public ::testing::Test {
 protected:
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd c = m.new_var("c");
  Bdd d = m.new_var("d");
};

TEST_F(BddOps, AndOrBasics) {
  EXPECT_EQ(a & m.bdd_true(), a);
  EXPECT_EQ(a & m.bdd_false(), m.bdd_false());
  EXPECT_EQ(a | m.bdd_true(), m.bdd_true());
  EXPECT_EQ(a | m.bdd_false(), a);
  EXPECT_EQ(a & a, a);
  EXPECT_EQ(a | a, a);
}

TEST_F(BddOps, DeMorgan) {
  EXPECT_EQ(!(a & b), !a | !b);
  EXPECT_EQ(!(a | b), !a & !b);
}

TEST_F(BddOps, XorIdentities) {
  EXPECT_EQ(a ^ a, m.bdd_false());
  EXPECT_EQ(a ^ m.bdd_false(), a);
  EXPECT_EQ(a ^ m.bdd_true(), !a);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST_F(BddOps, DistributivityAndAbsorption) {
  EXPECT_EQ(a & (b | c), (a & b) | (a & c));
  EXPECT_EQ(a | (a & b), a);
  EXPECT_EQ(a & (a | b), a);
}

TEST_F(BddOps, IteExpandsToMux) {
  Bdd f = m.ite(a, b, c);
  EXPECT_EQ(f, (a & b) | (!a & c));
  EXPECT_EQ(m.ite(m.bdd_true(), b, c), b);
  EXPECT_EQ(m.ite(m.bdd_false(), b, c), c);
  EXPECT_EQ(m.ite(a, m.bdd_false(), m.bdd_true()), !a);
}

TEST_F(BddOps, CompoundAssignmentOperators) {
  Bdd f = a;
  f &= b;
  EXPECT_EQ(f, a & b);
  f |= c;
  EXPECT_EQ(f, (a & b) | c);
  f ^= f;
  EXPECT_TRUE(f.is_false());
}

TEST_F(BddOps, MinusIsSetDifference) {
  Bdd f = a | b;
  EXPECT_EQ(f.minus(b), a & !b);
  EXPECT_TRUE(a.minus(a).is_false());
}

TEST_F(BddOps, ImpliesIsContainment) {
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
  EXPECT_TRUE(m.bdd_false().implies(a));
  EXPECT_TRUE(a.implies(m.bdd_true()));
}

TEST_F(BddOps, DisjointWith) {
  EXPECT_TRUE((a & b).disjoint_with(a & !b));
  EXPECT_FALSE((a | b).disjoint_with(b));
  EXPECT_TRUE(m.bdd_false().disjoint_with(m.bdd_true()));
  // Agreement with the conjunction on a non-trivial pair.
  Bdd f = (a ^ b) & c;
  Bdd g = (a ^ !b) | !c;
  EXPECT_EQ(f.disjoint_with(g), (f & g).is_false());
}

TEST_F(BddOps, CofactorByPositiveLiteral) {
  Bdd f = (a & b) | (!a & c);
  EXPECT_EQ(m.cofactor(f, a), b);
  EXPECT_EQ(m.cofactor(f, !a), c);
}

TEST_F(BddOps, CofactorByCube) {
  Bdd f = (a & b & c) | (!b & d);
  Bdd cube = a & !b;
  EXPECT_EQ(m.cofactor(f, cube), d);
  EXPECT_EQ(m.cofactor(f, a & b), c);
}

TEST_F(BddOps, CofactorBelowSupportIsIdentity) {
  Bdd f = a | b;
  EXPECT_EQ(m.cofactor(f, c & d), f);
  EXPECT_EQ(m.cofactor(f, m.bdd_true()), f);
}

TEST_F(BddOps, FlipImageFixesPreAndWritesPost) {
  const Bdd f = (a & b & c) | (!b & d);
  const Bdd none = m.bdd_false();
  // b := 1 selects a & c, and b = 0 is written in its place.
  EXPECT_EQ(m.flip_image(f, b, none), a & c & !b);
  // A literal f does not test still writes its flipped literal.
  EXPECT_EQ(m.flip_image(a & b, c & !d, none), a & b & !c & d);
  EXPECT_TRUE(m.flip_image(a & b, !a & b, none).is_false());
  EXPECT_EQ(m.flip_image(f, m.bdd_true(), none), f);
  EXPECT_EQ(m.flip_image(m.bdd_true(), a & !c, none), !a & c);
}

TEST_F(BddOps, FlipImageLeavesOutKnownAtThePostValue) {
  const Bdd f = (a & b & c) | (!b & d);
  // The image a & c & !b lies where b = 0: known is read there, not at
  // the pre value b = 1.
  EXPECT_EQ(m.flip_image(f, b, b), a & c & !b);
  EXPECT_TRUE(m.flip_image(f, b, !b).is_false());
  EXPECT_EQ(m.flip_image(f, b, a & !c), a & c & !b);
  EXPECT_EQ(m.flip_image(f, !b, !d), b & d);
  EXPECT_TRUE(m.flip_image(f, !b, d).is_false());
  EXPECT_TRUE(m.flip_image(f, b, m.bdd_true()).is_false());
  // Below the last flipped variable it is f & !known.
  EXPECT_EQ(m.flip_image(f, a, c), !a & !b & !c & d);
}

TEST_F(BddOps, FlipImageIsOneCofactorCallAndChecksItsCube) {
  const Bdd f = (a ^ b) | (c & d);
  const Bdd pre = a & !c;
  const Bdd post = !a & c;
  const Bdd known = b & d;
  const Bdd expected = (m.cofactor(f, pre) & post).minus(known);
  const ManagerProfile before = m.profile();
  EXPECT_EQ(m.flip_image(f, pre, known), expected);
  const ManagerProfile after = m.profile();
  // One cofactor-slot call, and no conjunction behind it.
  EXPECT_EQ(after.op(OpKind::kCofactor).calls,
            before.op(OpKind::kCofactor).calls + 1);
  EXPECT_EQ(after.op(OpKind::kAnd).calls, before.op(OpKind::kAnd).calls);
  EXPECT_GT(after.op(OpKind::kCofactor).cache_lookups,
            before.op(OpKind::kCofactor).cache_lookups);
  // The flip operand must be a cube.
  EXPECT_THROW(m.flip_image(f, a | b, known), ModelError);
  EXPECT_THROW(m.flip_image(f, a ^ b, known), ModelError);
  EXPECT_THROW(m.flip_image(f, m.bdd_false(), known), ModelError);
}

TEST_F(BddOps, ExistsSingleVariable) {
  Bdd f = (a & b) | (!a & c);
  // exists a: b | c
  EXPECT_EQ(m.exists(f, a), b | c);
}

TEST_F(BddOps, ExistsMultipleVariables) {
  Bdd f = (a & b & c) | (!a & !b & d);
  Bdd cube = m.positive_cube({0, 1});  // quantify a, b
  EXPECT_EQ(m.exists(f, cube), c | d);
}

TEST_F(BddOps, ExistsOfUnsupportedVarIsIdentity) {
  Bdd f = a & b;
  EXPECT_EQ(m.exists(f, c), f);
}

TEST_F(BddOps, ForallSingleVariable) {
  Bdd f = (a & b) | (!a & b);
  EXPECT_EQ(m.forall(f, a), b);
  Bdd g = (a & b) | (!a & c);
  EXPECT_EQ(m.forall(g, a), b & c);
}

TEST_F(BddOps, ForallDualOfExists) {
  Bdd f = (a & b) | (c ^ d);
  Bdd cube = m.positive_cube({0, 2});
  EXPECT_EQ(m.forall(f, cube), !m.exists(!f, cube));
}

TEST_F(BddOps, AndExistsMatchesComposition) {
  Bdd f = (a & b) | (c & d);
  Bdd g = (a ^ c) | (b & !d);
  Bdd cube = m.positive_cube({0, 3});  // quantify a, d
  EXPECT_EQ(m.and_exists(f, g, cube), m.exists(f & g, cube));
}

TEST_F(BddOps, AndExistsTerminalCases) {
  Bdd cube = m.positive_cube({0});
  EXPECT_TRUE(m.and_exists(a, m.bdd_false(), cube).is_false());
  EXPECT_EQ(m.and_exists(a & b, m.bdd_true(), cube), b);
}

TEST_F(BddOps, RestrictAgreesOnCareSet) {
  Bdd f = (a & b) | (!a & c);
  Bdd care = a;
  Bdd r = m.restrict(f, care);
  // On the care set the restriction must equal f.
  EXPECT_EQ(r & care, f & care);
  // And it should not be bigger than f.
  EXPECT_LE(m.count_nodes(r), m.count_nodes(f));
}

TEST_F(BddOps, RestrictOnFullCareIsIdentity) {
  Bdd f = (a ^ b) | (c & d);
  EXPECT_EQ(m.restrict(f, m.bdd_true()), f);
}

TEST_F(BddOps, RestrictSimplifiesAcrossNonSupportCare) {
  // Care set constrains variable c which f never tests.
  Bdd f = (a & b) | (!a & !b);
  Bdd r = m.restrict(f, c | !c);
  EXPECT_EQ(r, f);
}

TEST_F(BddOps, SatCountSmall) {
  // 4 variables total.
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_true()), 16.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_false()), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a & b), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a ^ b), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(a | b | c | d), 15.0);
}

TEST_F(BddOps, SatCountOverSubset) {
  EXPECT_DOUBLE_EQ(m.sat_count_over(a & b, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(m.sat_count_over(a | b, {0, 1, 2}), 6.0);
  EXPECT_THROW(m.sat_count_over(a & d, {0, 1}), ModelError);
}

TEST(BddSatCount, FiniteOverFewVariablesOfAHugeManager) {
  // 2^1100 overflows a double; a count over 3 of those variables must not
  // go through it.
  Manager big;
  for (int i = 0; i < 1100; ++i) big.new_var();
  const Bdd f = big.var(0) & !big.var(1);
  EXPECT_FALSE(std::isfinite(big.sat_count(f)));
  EXPECT_DOUBLE_EQ(big.sat_count(f, 3), 2.0);
  EXPECT_DOUBLE_EQ(big.sat_count_over(f, {0, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(big.sat_count(big.bdd_false(), 3), 0.0);
}

TEST(BddSatCount, ExactnessFlag) {
  Manager m;
  for (int i = 0; i < 61; ++i) m.new_var();
  bool exact = false;
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0) | m.var(1), 61, &exact),
                   3.0 * std::ldexp(1.0, 59));
  EXPECT_TRUE(exact);
  EXPECT_DOUBLE_EQ(m.sat_count(m.bdd_false(), 61, &exact), 0.0);
  EXPECT_TRUE(exact);
  // x0 | (x1 & ... & x60): 2^60 + 1 minterms, one more than a double's
  // 53-bit significand holds next to 2^60, so the walk must round.
  Bdd rest = m.bdd_true();
  for (Var v = 1; v < 61; ++v) rest &= m.var(v);
  exact = true;
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0) | rest, 61, &exact),
                   std::ldexp(1.0, 60));
  EXPECT_FALSE(exact);
  // Finite probability, infinite count: not exact either.
  Manager big;
  for (int i = 0; i < 1100; ++i) big.new_var();
  exact = true;
  EXPECT_FALSE(std::isfinite(big.sat_count(big.var(0), 1100, &exact)));
  EXPECT_FALSE(exact);
  // In a manager past 1023 variables, a cube of 1000 literals has a
  // normal probability, 2^-1000, and an exact count.
  Bdd cube = big.bdd_true();
  for (Var v = 0; v < 1000; ++v) cube &= big.var(v);
  exact = false;
  EXPECT_DOUBLE_EQ(big.sat_count(cube, 1100, &exact), std::ldexp(1.0, 100));
  EXPECT_TRUE(exact);
  // 2^-1080 is below the smallest subnormal: the probability underflows
  // to zero, and the flag says so.
  for (Var v = 1000; v < 1080; ++v) cube &= big.var(v);
  exact = true;
  EXPECT_DOUBLE_EQ(big.sat_count(cube, 1100, &exact), 0.0);
  EXPECT_FALSE(exact);
}

TEST_F(BddOps, SupportIsSortedByLevel) {
  Bdd f = (d & a) | c;
  std::vector<Var> s = m.support(f);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 2u);
  EXPECT_EQ(s[2], 3u);
  EXPECT_TRUE(m.support(m.bdd_true()).empty());
}

TEST_F(BddOps, PickOneMintermIsContainedAndComplete) {
  Bdd f = (a & !b) | (c & d);
  Bdd pick = m.pick_one_minterm(f, {0, 1, 2, 3});
  EXPECT_TRUE(pick.implies(f));
  EXPECT_EQ(m.cube_literals(pick).size(), 4u);
  EXPECT_THROW(m.pick_one_minterm(m.bdd_false(), {0}), ModelError);
}

TEST_F(BddOps, AllSatEnumeratesEveryAssignment) {
  Bdd f = a ^ b;
  auto sols = m.all_sat(f, {0, 1});
  EXPECT_EQ(sols.size(), 2u);
  for (const CubeLiterals& s : sols) {
    std::vector<bool> assignment(4, false);
    for (const Literal& l : s) assignment[l.var] = l.positive;
    EXPECT_TRUE(m.eval(f, assignment));
  }
}

TEST_F(BddOps, AllSatHonorsLimit) {
  Bdd f = m.bdd_true();
  EXPECT_THROW(m.all_sat(f, {0, 1, 2, 3}, 7), LimitError);
}

TEST_F(BddOps, PermuteHandlesLevelReversingRenames) {
  // a -> d and b -> c reverses relative level order (monotone fast path
  // does not apply); the result must still be the plain substitution.
  Bdd f = (a & b) | (!a & !b);
  std::vector<Var> perm{3, 2, 2, 3};
  EXPECT_EQ(m.permute(f, perm), (d & c) | (!d & !c));
  // A 3-cycle a -> b -> c -> a.
  std::vector<Var> cycle{1, 2, 0, 3};
  Bdd g = (a & !b) | c;
  EXPECT_EQ(m.permute(g, cycle), (b & !c) | a);
  EXPECT_EQ(m.permute(m.permute(m.permute(g, cycle), cycle), cycle), g);
}

TEST_F(BddOps, PermuteIdentityReturnsSameNode) {
  Bdd f = (a & b) | c;
  EXPECT_EQ(m.permute(f, {0, 1, 2, 3}), f);
}

TEST_F(BddOps, PermuteRejectsNonInjectiveMaps) {
  // a and b both map to c: a silent merge, reported with the offenders.
  Bdd f = a & b;
  try {
    m.permute(f, {2, 2, 2, 3});
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("injective"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
  }
  // Injective on the support is enough: b -> c with a untouched is fine
  // even though the whole vector maps a and c's slots onto the same ids.
  EXPECT_EQ(m.permute(b, {0, 2, 2, 3}), c);
}

TEST_F(BddOps, PermuteErrorsNameTheVariableAndLevel) {
  try {
    m.permute(c & d, {1, 0});  // support vars c, d not covered
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'c'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("level 2"), std::string::npos) << msg;
  }
  try {
    m.permute(a, {17, 1, 2, 3});  // target does not exist
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v17"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown"), std::string::npos) << msg;
  }
}

TEST_F(BddOps, PermuteAgreesWithEvalUnderReorderedManager) {
  Bdd f = (a & !c) | (b & d);
  std::vector<Var> perm{1, 0, 3, 2};  // swap within both pairs
  const Bdd before = m.permute(f, perm);
  m.reorder({3, 1, 0, 2});  // scramble the levels
  const Bdd after = m.permute(f, perm);
  EXPECT_EQ(before, after);  // same function regardless of current order
  for (int row = 0; row < 16; ++row) {
    std::vector<bool> x(4);
    for (int v = 0; v < 4; ++v) x[v] = (row >> v) & 1;
    // permute substitutes variables: evaluating the result under x equals
    // evaluating f under the pulled-back assignment.
    std::vector<bool> pulled(4);
    for (int v = 0; v < 4; ++v) pulled[v] = x[perm[v]];
    EXPECT_EQ(m.eval(after, x), m.eval(f, pulled)) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Emptiness tests: f.disjoint_with(g) == (f & g).is_false() and
// f.implies(g) == f.minus(g).is_false() on every ordered pair of a pool of
// functions, with the computed cache warm, flushed by GC, flushed by a
// reorder, and on a multi-threaded manager. The tests themselves must
// create no node and leave the table invariant-clean.
// ---------------------------------------------------------------------------

/// A random function of the manager's variables (depth-bounded expression
/// over and / or / xor / ite of literals).
Bdd random_function(Manager& m, Rng& rng, int depth) {
  if (depth == 0 || rng.below(6) == 0) {
    const Bdd v = m.var(static_cast<Var>(rng.below(m.var_count())));
    return rng.flip() ? v : !v;
  }
  const Bdd x = random_function(m, rng, depth - 1);
  const Bdd y = random_function(m, rng, depth - 1);
  switch (rng.below(4)) {
    case 0: return x & y;
    case 1: return x | y;
    case 2: return x ^ y;
    default: return m.ite(random_function(m, rng, depth - 1), x, y);
  }
}

/// Checks both emptiness tests on every ordered pair of `fs` against the
/// node-building definitions, and that the tests add no node.
void expect_emptiness_agrees(Manager& m, const std::vector<Bdd>& fs) {
  const std::size_t n = fs.size();
  // Reference verdicts first: they build the conjunctions the tests avoid.
  std::vector<char> disjoint(n * n);
  std::vector<char> implies(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      disjoint[i * n + j] = (fs[i] & fs[j]).is_false();
      implies[i * n + j] = fs[i].minus(fs[j]).is_false();
    }
  }
  const std::size_t nodes = m.stats().node_count;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(fs[i].disjoint_with(fs[j]), disjoint[i * n + j] != 0)
          << "pair " << i << ", " << j;
      EXPECT_EQ(fs[i].implies(fs[j]), implies[i * n + j] != 0)
          << "pair " << i << ", " << j;
    }
  }
  EXPECT_EQ(m.stats().node_count, nodes);
  EXPECT_NO_THROW(m.check_invariants());
}

/// Runs the agreement check warm, after GC, after a sift and after a
/// reversing reorder.
void expect_emptiness_agrees_across_flushes(Manager& m,
                                            const std::vector<Bdd>& fs) {
  expect_emptiness_agrees(m, fs);
  expect_emptiness_agrees(m, fs);  // second round: verdicts come from cache
  m.collect_garbage();
  expect_emptiness_agrees(m, fs);
  m.sift();
  expect_emptiness_agrees(m, fs);
  std::vector<Var> reversed = m.current_order();
  std::reverse(reversed.begin(), reversed.end());
  m.reorder(reversed);
  expect_emptiness_agrees(m, fs);
}

class EmptinessProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmptinessProperty, RandomFunctions) {
  Manager m;
  for (int v = 0; v < 16; ++v) m.new_var();
  Rng rng(GetParam());
  std::vector<Bdd> fs = {m.bdd_false(), m.bdd_true()};
  while (fs.size() < 14) fs.push_back(random_function(m, rng, 4));
  // Related pairs, so both verdicts occur: subsets, complements.
  fs.push_back(fs[2] & fs[3]);
  fs.push_back(!fs[4]);
  fs.push_back(fs[5] | fs[6]);
  expect_emptiness_agrees_across_flushes(m, fs);
}

TEST_P(EmptinessProperty, RandomStgReachedSets) {
  Rng rng(GetParam());
  const stg::Stg net = testutil::random_stg(rng);
  core::SymbolicStg sym(net);
  const core::TraversalResult r = core::traverse(sym);
  // The sets the checks test: the reached set, enabling cubes, signal
  // regions and their intersections with the reached set.
  std::vector<Bdd> fs = {r.reached, sym.place_cube()};
  for (pn::TransitionId t = 0; t < net.net().transition_count(); ++t) {
    fs.push_back(sym.enabling_cube(t));
    fs.push_back(r.reached & sym.enabling_cube(t));
  }
  for (stg::SignalId s = 0; s < net.signal_count(); ++s) {
    fs.push_back(sym.signal(s));
    fs.push_back(sym.enabled_signal(s, stg::Dir::kPlus) & !sym.signal(s));
    fs.push_back(sym.enabled_signal_any(s));
  }
  expect_emptiness_agrees_across_flushes(sym.manager(), fs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptinessProperty,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{9}));

TEST_F(BddOps, EmptinessTestsCountAsOneOpAndUseTheCache) {
  const Bdd f = (a ^ b) | (c & d);
  const Bdd g = (a & b) ^ (c | !d);
  const ManagerProfile before = m.profile();
  const bool first = f.disjoint_with(g);
  const ManagerProfile warm = m.profile();
  EXPECT_EQ(f.disjoint_with(g), first);
  EXPECT_EQ(f.implies(!g), first);  // f <= !g iff f & g == 0
  const ManagerProfile after = m.profile();
  const OpProfile& b0 = before.op(OpKind::kDisjoint);
  const OpProfile& w = warm.op(OpKind::kDisjoint);
  const OpProfile& a1 = after.op(OpKind::kDisjoint);
  EXPECT_EQ(w.calls, b0.calls + 1);
  EXPECT_EQ(a1.calls, w.calls + 2);
  // The repeats are answered by one cached verdict each at the root.
  EXPECT_GT(w.cache_lookups, b0.cache_lookups);
  EXPECT_EQ(a1.cache_lookups, w.cache_lookups + 2);
  EXPECT_EQ(a1.cache_hits, w.cache_hits + 2);
  // implies() no longer builds f & !g.
  EXPECT_EQ(after.op(OpKind::kAnd).calls, warm.op(OpKind::kAnd).calls);
}

TEST_F(BddOps, CubesMeetingIsOneDisjointCallAndChecksItsVariables) {
  const Bdd f = (a & !b) | (c & d);
  const std::vector<CubeLiterals> cubes{{{0, true}, {1, true}, {2, false}},
                                        {{2, true}},
                                        {{0, false}, {2, true}, {3, false}}};
  const ManagerProfile before = m.profile();
  EXPECT_EQ(m.cubes_meeting(f, cubes), (std::vector<bool>{false, true, false}));
  const ManagerProfile after = m.profile();
  EXPECT_EQ(after.op(OpKind::kDisjoint).calls,
            before.op(OpKind::kDisjoint).calls + 1);
  // The memo is private to the call, not the shared computed cache.
  EXPECT_EQ(after.op(OpKind::kDisjoint).cache_lookups,
            before.op(OpKind::kDisjoint).cache_lookups);
  EXPECT_THROW(m.cubes_meeting(f, {{{Var{4}, true}}}), ModelError);
}

}  // namespace
}  // namespace stgcheck::bdd
