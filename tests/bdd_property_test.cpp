// Property tests: BDD operations are cross-checked against brute-force
// truth-table evaluation on randomly generated expressions. Parameterised
// over seeds so each instantiation exercises a different expression shape.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

constexpr std::size_t kVars = 7;  // 128-row truth tables: cheap but thorough

/// A dense truth table over kVars variables used as the brute-force model.
using Table = std::vector<bool>;

Table table_var(std::size_t v) {
  Table t(std::size_t{1} << kVars);
  for (std::size_t row = 0; row < t.size(); ++row) t[row] = (row >> v) & 1u;
  return t;
}

Table table_apply(const Table& x, const Table& y,
                  const std::function<bool(bool, bool)>& op) {
  Table t(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) t[i] = op(x[i], y[i]);
  return t;
}

Table table_not(const Table& x) {
  Table t(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) t[i] = !x[i];
  return t;
}

/// Builds a random expression simultaneously as a BDD and as a truth table.
struct RandomExpr {
  Bdd f;
  Table table;
};

RandomExpr random_expr(Manager& m, Rng& rng, int depth) {
  if (depth == 0 || rng.below(5) == 0) {
    const std::size_t v = rng.below(kVars);
    if (rng.flip()) return {m.var(static_cast<Var>(v)), table_var(v)};
    return {!m.var(static_cast<Var>(v)), table_not(table_var(v))};
  }
  RandomExpr lhs = random_expr(m, rng, depth - 1);
  RandomExpr rhs = random_expr(m, rng, depth - 1);
  switch (rng.below(3)) {
    case 0:
      return {lhs.f & rhs.f,
              table_apply(lhs.table, rhs.table, std::logical_and<>())};
    case 1:
      return {lhs.f | rhs.f,
              table_apply(lhs.table, rhs.table, std::logical_or<>())};
    default:
      return {lhs.f ^ rhs.f,
              table_apply(lhs.table, rhs.table, std::not_equal_to<>())};
  }
}

bool tables_equal(Manager& m, const Bdd& f, const Table& t) {
  for (std::size_t row = 0; row < t.size(); ++row) {
    std::vector<bool> assignment(kVars);
    for (std::size_t v = 0; v < kVars; ++v) assignment[v] = (row >> v) & 1u;
    if (m.eval(f, assignment) != t[row]) return false;
  }
  return true;
}

class BddRandom : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Manager m;
  Rng rng{GetParam()};

  void SetUp() override {
    for (std::size_t v = 0; v < kVars; ++v) m.new_var("v" + std::to_string(v));
  }
};

TEST_P(BddRandom, ExpressionMatchesTruthTable) {
  for (int round = 0; round < 8; ++round) {
    RandomExpr e = random_expr(m, rng, 5);
    EXPECT_TRUE(tables_equal(m, e.f, e.table));
  }
}

TEST_P(BddRandom, NotIsInvolution) {
  RandomExpr e = random_expr(m, rng, 5);
  EXPECT_EQ(!!e.f, e.f);
  EXPECT_TRUE(tables_equal(m, !e.f, table_not(e.table)));
}

TEST_P(BddRandom, SatCountMatchesTruthTable) {
  RandomExpr e = random_expr(m, rng, 5);
  std::size_t ones = 0;
  for (bool bit : e.table) ones += bit ? 1 : 0;
  EXPECT_DOUBLE_EQ(m.sat_count(e.f), static_cast<double>(ones));
}

TEST_P(BddRandom, ExistsMatchesShannonDisjunction) {
  RandomExpr e = random_expr(m, rng, 4);
  const Var v = static_cast<Var>(rng.below(kVars));
  Bdd expected = m.cofactor(e.f, m.var(v)) | m.cofactor(e.f, !m.var(v));
  EXPECT_EQ(m.exists(e.f, m.var(v)), expected);
}

TEST_P(BddRandom, ForallMatchesShannonConjunction) {
  RandomExpr e = random_expr(m, rng, 4);
  const Var v = static_cast<Var>(rng.below(kVars));
  Bdd expected = m.cofactor(e.f, m.var(v)) & m.cofactor(e.f, !m.var(v));
  EXPECT_EQ(m.forall(e.f, m.var(v)), expected);
}

TEST_P(BddRandom, AndExistsAgreesWithTwoStep) {
  RandomExpr e1 = random_expr(m, rng, 4);
  RandomExpr e2 = random_expr(m, rng, 4);
  std::vector<Var> qs;
  for (Var v = 0; v < kVars; ++v) {
    if (rng.flip()) qs.push_back(v);
  }
  Bdd cube = m.positive_cube(qs);
  EXPECT_EQ(m.and_exists(e1.f, e2.f, cube), m.exists(e1.f & e2.f, cube));
}

TEST_P(BddRandom, CofactorByRandomCube) {
  RandomExpr e = random_expr(m, rng, 4);
  CubeLiterals lits;
  for (Var v = 0; v < kVars; ++v) {
    if (rng.below(3) == 0) lits.push_back(Literal{v, rng.flip()});
  }
  Bdd cube = m.cube(lits);
  Bdd cof = m.cofactor(e.f, cube);
  // Check row-by-row: under assignments compatible with the cube, the
  // cofactor must equal f; the cofactor must not depend on cube variables.
  for (std::size_t row = 0; row < e.table.size(); ++row) {
    std::vector<bool> assignment(kVars);
    for (std::size_t v = 0; v < kVars; ++v) assignment[v] = (row >> v) & 1u;
    bool compatible = true;
    for (const Literal& l : lits) {
      if (assignment[l.var] != l.positive) compatible = false;
    }
    if (compatible) {
      EXPECT_EQ(m.eval(cof, assignment), e.table[row]);
    }
  }
  for (Var v : m.support(cof)) {
    for (const Literal& l : lits) EXPECT_NE(v, l.var);
  }
}

TEST_P(BddRandom, FlipImageIsCofactorThenAndMinusKnown) {
  RandomExpr e = random_expr(m, rng, 5);
  // The same function with the top three variables quantified away, so
  // cube literals fall above, at and below its top.
  const Bdd low = m.exists(e.f, m.positive_cube({0, 1, 2}));
  const std::vector<Bdd> fs = {e.f,  !e.f, low, !low, m.bdd_true(),
                               m.bdd_false()};
  const Bdd other = random_expr(m, rng, 4).f;
  const std::vector<Bdd> knowns = {m.bdd_false(), m.bdd_true(), other, !other,
                                   low};
  const auto check_all = [&] {
    for (const Bdd& f : fs) {
      for (int round = 0; round < 6; ++round) {
        // A random cube and the same cube with every literal negated.
        CubeLiterals pre;
        CubeLiterals post;
        for (Var v = 0; v < kVars; ++v) {
          if (rng.below(3) != 0) continue;
          const bool value = rng.flip();
          pre.push_back({v, value});
          post.push_back({v, !value});
        }
        const Bdd a = m.cube(pre);
        const Bdd b = m.cube(post);
        for (const Bdd& known : knowns) {
          EXPECT_EQ(m.flip_image(f, a, known),
                    (m.cofactor(f, a) & b).minus(known));
          EXPECT_EQ(m.flip_image(f, b, known),
                    (m.cofactor(f, b) & a).minus(known));
        }
      }
    }
  };
  check_all();
  // Levels move under sifting; the cubes are rebuilt in the new order.
  m.sift();
  check_all();
  m.check_invariants();
}

TEST_P(BddRandom, RestrictAgreesOnCareSet) {
  RandomExpr f = random_expr(m, rng, 4);
  RandomExpr care = random_expr(m, rng, 3);
  if (care.f.is_false()) return;  // degenerate care set: nothing to check
  Bdd r = m.restrict(f.f, care.f);
  EXPECT_EQ(r & care.f, f.f & care.f);
}

TEST_P(BddRandom, DisjointMatchesConjunction) {
  RandomExpr e1 = random_expr(m, rng, 4);
  RandomExpr e2 = random_expr(m, rng, 4);
  EXPECT_EQ(e1.f.disjoint_with(e2.f), (e1.f & e2.f).is_false());
}

/// `count` random cubes over the kVars variables: up to four literals
/// each, duplicates allowed, so some are contradictory.
std::vector<CubeLiterals> random_cubes(Rng& rng, std::size_t count) {
  std::vector<CubeLiterals> cubes(count);
  for (CubeLiterals& c : cubes) {
    const std::size_t literals = rng.below(5);
    for (std::size_t i = 0; i < literals; ++i) {
      c.push_back({static_cast<Var>(rng.below(kVars)), rng.flip()});
    }
  }
  return cubes;
}

/// cubes_meeting against one disjoint_with per cube, and the call creates
/// and frees nothing.
void expect_cubes_meeting_exact(Manager& m, const Bdd& f,
                                const std::vector<CubeLiterals>& cubes) {
  const std::size_t live = m.live_nodes();
  const std::size_t nodes = m.stats().node_count;
  const std::vector<bool> meets = m.cubes_meeting(f, cubes);
  EXPECT_EQ(m.live_nodes(), live);
  EXPECT_EQ(m.stats().node_count, nodes);
  ASSERT_EQ(meets.size(), cubes.size());
  for (std::size_t c = 0; c < cubes.size(); ++c) {
    EXPECT_EQ(meets[c], !f.disjoint_with(m.cube(cubes[c]))) << "cube " << c;
  }
}

TEST_P(BddRandom, CubesMeetingMatchesDisjointPerCube) {
  RandomExpr e = random_expr(m, rng, 5);
  // An empty cube meets any non-false f; a contradictory one nothing.
  const CubeLiterals empty;
  const CubeLiterals contradictory{{0, true}, {3, false}, {0, false}};
  std::vector<std::vector<CubeLiterals>> lists{{empty}, {contradictory}};
  for (const std::size_t count : {1u, 63u, 64u, 65u, 200u}) {
    lists.push_back(random_cubes(rng, count));
    if (count > 1) {
      lists.back().front() = empty;
      lists.back().back() = contradictory;
    }
  }
  // Parity reaches both polarities of every node below its root, so the
  // walk memoizes about two edges per node and has to grow its table.
  Bdd parity = m.bdd_false();
  for (Var v = 0; v < kVars; ++v) parity ^= m.var(v);
  for (const std::vector<CubeLiterals>& cubes : lists) {
    for (const Bdd& f : {e.f, !e.f, parity, m.bdd_true(), m.bdd_false()}) {
      expect_cubes_meeting_exact(m, f, cubes);
    }
  }
  // Levels move under sifting; the cube literals name variables.
  m.sift();
  const std::vector<CubeLiterals> cubes = random_cubes(rng, 130);
  expect_cubes_meeting_exact(m, e.f, cubes);
  expect_cubes_meeting_exact(m, !e.f, cubes);
}

TEST_P(BddRandom, GarbageCollectionPreservesFunctions) {
  RandomExpr e1 = random_expr(m, rng, 5);
  RandomExpr e2 = random_expr(m, rng, 5);
  Bdd combined = e1.f & e2.f;
  m.collect_garbage();
  EXPECT_TRUE(tables_equal(m, combined,
                           table_apply(e1.table, e2.table, std::logical_and<>())));
  // Recreating the same function after GC yields the same node.
  EXPECT_EQ(combined, e1.f & e2.f);
}

TEST_P(BddRandom, PickOneMintermSatisfies) {
  RandomExpr e = random_expr(m, rng, 5);
  if (e.f.is_false()) return;
  std::vector<Var> vars;
  for (Var v = 0; v < kVars; ++v) vars.push_back(v);
  Bdd pick = m.pick_one_minterm(e.f, vars);
  EXPECT_TRUE(pick.implies(e.f));
  EXPECT_DOUBLE_EQ(m.sat_count(pick), 1.0);
}

TEST_P(BddRandom, PickOneCommonMintermMatchesConjunction) {
  RandomExpr e1 = random_expr(m, rng, 4);
  RandomExpr e2 = random_expr(m, rng, 4);
  std::vector<Var> vars;
  for (Var v = 0; v < kVars; ++v) vars.push_back(v);
  const Bdd both = e1.f & e2.f;
  if (both.is_false()) {
    EXPECT_THROW(m.pick_one_minterm(e1.f, e2.f, vars), ModelError);
    return;
  }
  // The same minterm the walk over the built conjunction picks.
  EXPECT_EQ(m.pick_one_minterm(e1.f, e2.f, vars),
            m.pick_one_minterm(both, vars));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandom,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

}  // namespace
}  // namespace stgcheck::bdd
