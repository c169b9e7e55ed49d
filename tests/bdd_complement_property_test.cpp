// Property tests for the complement-edge kernel invariants:
//
//   * double negation is pointer equality (negation is an edge flag, so
//     !!f must return the very same edge, and f / !f share one graph)
//   * the regular-then canonical form and the unique-table bookkeeping
//     survive sifting and explicit reordering (Manager::check_invariants)
//   * sat-count, ISOP covers and node counts agree with a non-complemented
//     oracle: a plain ROBDD (no attributed edges) built bottom-up from the
//     truth table through the public eval() API only, on random
//     expressions and on reached state sets of random STGs
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/encoding.hpp"
#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

// ---------------------------------------------------------------------------
// Non-complemented oracle: a classic reduced OBDD with two terminals and
// no attributed edges, built from a truth table over an explicit variable
// order. Independent of the Manager's internals by construction.
// ---------------------------------------------------------------------------

class PlainBdd {
 public:
  static constexpr std::uint32_t kZero = 0;
  static constexpr std::uint32_t kOne = 1;

  std::uint32_t mk(std::uint32_t var, std::uint32_t low, std::uint32_t high) {
    if (low == high) return low;
    const auto key = std::make_tuple(var, low, high);
    const auto it = unique_.find(key);
    if (it != unique_.end()) return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size() + 2);
    nodes_.push_back({var, low, high});
    unique_.emplace(key, id);
    return id;
  }

  /// Builds the reduced OBDD of the truth table (row index bit i = value
  /// of the i-th variable in the chosen order, i = 0 topmost).
  std::uint32_t from_table(const std::vector<bool>& table, std::size_t n_vars,
                           std::size_t var = 0, std::size_t base = 0) {
    if (var == n_vars) return table[base] ? kOne : kZero;
    const std::size_t stride = std::size_t{1} << (n_vars - 1 - var);
    const std::uint32_t low =
        from_table(table, n_vars, var + 1, base);
    const std::uint32_t high =
        from_table(table, n_vars, var + 1, base + stride);
    return mk(static_cast<std::uint32_t>(var), low, high);
  }

  /// Non-terminal node count of the whole store. Every node created while
  /// reducing a single table is reachable from its root, so after one
  /// from_table call this is exactly the plain-BDD size of that function.
  std::size_t node_count() const { return nodes_.size(); }

  std::size_t sat_count(std::uint32_t root, std::size_t n_vars) const {
    std::map<std::uint32_t, double> memo;
    return static_cast<std::size_t>(prob(root, memo) *
                                    static_cast<double>(std::size_t{1} << n_vars));
  }

 private:
  double prob(std::uint32_t id, std::map<std::uint32_t, double>& memo) const {
    if (id == kZero) return 0.0;
    if (id == kOne) return 1.0;
    const auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    const auto& n = nodes_[id - 2];
    const double p = 0.5 * prob(n[1], memo) + 0.5 * prob(n[2], memo);
    memo.emplace(id, p);
    return p;
  }

  std::vector<std::array<std::uint32_t, 3>> nodes_;  // var, low, high
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      unique_;
};

/// Truth table of f over `vars` (listed top-to-bottom in the manager's
/// current order); variables outside `vars` are fixed to 0.
std::vector<bool> truth_table(Manager& m, const Bdd& f,
                              const std::vector<Var>& vars) {
  const std::size_t k = vars.size();
  std::vector<bool> table(std::size_t{1} << k);
  std::vector<bool> assignment(m.var_count(), false);
  for (std::size_t row = 0; row < table.size(); ++row) {
    for (std::size_t i = 0; i < k; ++i) {
      assignment[vars[i]] = ((row >> (k - 1 - i)) & 1u) != 0;
    }
    table[row] = m.eval(f, assignment);
  }
  return table;
}

/// Evaluates an ISOP cover as a sum of products.
bool eval_cover(const std::vector<CubeLiterals>& cover,
                const std::vector<bool>& assignment) {
  for (const CubeLiterals& cube : cover) {
    bool all = true;
    for (const Literal& l : cube) {
      if (assignment[l.var] != l.positive) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// Checks f against the plain (non-complemented) oracle: sat count, plain
/// node count dominates the complement-edge count, and the ISOP cover of
/// f denotes exactly f.
void expect_matches_oracle(Manager& m, const Bdd& f) {
  const std::vector<Var> sup = m.support(f);
  ASSERT_LE(sup.size(), 16u) << "oracle truth table would be too large";
  const std::vector<bool> table = truth_table(m, f, sup);

  PlainBdd plain;
  const std::uint32_t root = plain.from_table(table, sup.size());

  // SAT count over the support agrees with the truth table oracle.
  EXPECT_DOUBLE_EQ(m.sat_count(f, sup.size()),
                   static_cast<double>(plain.sat_count(root, sup.size())));

  // A complement-edge BDD is never larger than the plain BDD of the same
  // function (it merges every node with its negation), and never smaller
  // than half of it.
  EXPECT_LE(m.count_nodes(f), plain.node_count());
  EXPECT_GE(2 * m.count_nodes(f) + 1, plain.node_count());

  // The ISOP cover of [f, f] is exactly f, row by row.
  Bdd cover_fn;
  const std::vector<CubeLiterals> cover = m.isop(f, f, &cover_fn);
  EXPECT_EQ(cover_fn, f);
  const std::size_t k = sup.size();
  std::vector<bool> assignment(m.var_count(), false);
  for (std::size_t row = 0; row < table.size(); ++row) {
    for (std::size_t i = 0; i < k; ++i) {
      assignment[sup[i]] = ((row >> (k - 1 - i)) & 1u) != 0;
    }
    EXPECT_EQ(eval_cover(cover, assignment), table[row]) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Random expressions
// ---------------------------------------------------------------------------

constexpr std::size_t kVars = 9;

Bdd random_expr(Manager& m, Rng& rng, int depth) {
  if (depth == 0 || rng.below(5) == 0) {
    const Var v = static_cast<Var>(rng.below(kVars));
    return rng.flip() ? m.var(v) : !m.var(v);
  }
  Bdd lhs = random_expr(m, rng, depth - 1);
  Bdd rhs = random_expr(m, rng, depth - 1);
  switch (rng.below(3)) {
    case 0: return lhs & rhs;
    case 1: return lhs | rhs;
    default: return lhs ^ rhs;
  }
}

class ComplementEdgeRandom : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Manager m;
  Rng rng{GetParam()};

  void SetUp() override {
    for (std::size_t v = 0; v < kVars; ++v) {
      m.new_var("v" + std::to_string(v));
    }
  }
};

TEST_P(ComplementEdgeRandom, DoubleNegationIsPointerEqual) {
  for (int i = 0; i < 16; ++i) {
    Bdd f = random_expr(m, rng, 5);
    Bdd nf = !f;
    EXPECT_EQ((!nf).ref(), f.ref());          // same edge, not just same function
    EXPECT_EQ(nf.ref(), bdd_not(f.ref()));    // negation is the edge flag
    if (!f.is_terminal()) EXPECT_NE(nf.ref(), f.ref());
    EXPECT_EQ(m.count_nodes(f), m.count_nodes(nf));  // one shared graph
  }
}

TEST_P(ComplementEdgeRandom, NegationAllocatesNothing) {
  Bdd f = random_expr(m, rng, 6);
  const std::size_t before = m.stats().node_count;
  Bdd nf = !f;
  Bdd back = !nf;
  EXPECT_EQ(m.stats().node_count, before);
  EXPECT_EQ(back, f);
}

TEST_P(ComplementEdgeRandom, InvariantsHoldAfterOpsSiftAndReorder) {
  std::vector<Bdd> keep;
  for (int i = 0; i < 8; ++i) keep.push_back(random_expr(m, rng, 5));
  m.check_invariants();

  m.sift();
  m.check_invariants();

  // Explicit reorder to a random shuffle (no groups registered here).
  std::vector<Var> order = m.current_order();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  m.reorder(order);
  m.check_invariants();

  // Functions survive both reorders semantically.
  for (Bdd& f : keep) {
    Bdd nf = !f;
    EXPECT_EQ((!nf).ref(), f.ref());
  }
  m.collect_garbage();
  m.check_invariants();
}

TEST_P(ComplementEdgeRandom, AgreesWithPlainOracle) {
  for (int i = 0; i < 8; ++i) {
    Bdd f = random_expr(m, rng, 5);
    expect_matches_oracle(m, f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplementEdgeRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Regression: sat counting must push complement flags down to the
// terminals. Evaluating a complemented edge as 1 - p(node) cancels to
// zero once the function is sparser than double precision (n > 53
// variables: 1 - 2^-n rounds to exactly 1.0), which is precisely the
// regime of the paper's 80-odd-variable encodings.
TEST(ComplementEdgeDeep, SatCountSurvivesDeepComplementedPaths) {
  Manager m;
  constexpr std::size_t kDeep = 81;
  CubeLiterals lits;
  for (std::size_t v = 0; v < kDeep; ++v) {
    m.new_var();
    lits.push_back(Literal{static_cast<Var>(v), v % 2 == 0});
  }
  Bdd cube = m.cube(lits);  // alternating polarities: complement-edge heavy
  EXPECT_DOUBLE_EQ(m.sat_count(cube), 1.0);
}

// The complement count is only checkable at depths where 2^n - 1 is an
// exact double (n <= 52); past that the subtraction rounds away and any
// implementation would pass.
TEST(ComplementEdgeDeep, ComplementSatCountExactBelowDoublePrecision) {
  Manager m;
  constexpr std::size_t kDeep = 50;
  CubeLiterals lits;
  for (std::size_t v = 0; v < kDeep; ++v) {
    m.new_var();
    lits.push_back(Literal{static_cast<Var>(v), v % 2 == 0});
  }
  Bdd cube = m.cube(lits);
  EXPECT_DOUBLE_EQ(m.sat_count(cube), 1.0);
  EXPECT_DOUBLE_EQ(m.sat_count(!cube),
                   std::pow(2.0, static_cast<double>(kDeep)) - 1.0);
}

// ---------------------------------------------------------------------------
// Random STGs: the reached state sets of real traversals obey the same
// invariants and agree with the oracle.
// ---------------------------------------------------------------------------

class ComplementEdgeStg : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComplementEdgeStg, ReachedSetsMatchOracleAndStayCanonical) {
  Rng rng{GetParam()};
  const stg::Stg s = testutil::random_stg(rng);
  core::SymbolicStg sym(s);
  core::ImageEngine engine(core::EngineKind::kCofactor, sym);
  core::TraversalOptions options;
  options.auto_sift = true;
  const core::TraversalResult r = core::traverse(engine, options);
  Manager& m = sym.manager();

  m.check_invariants();

  const Bdd& reached = r.reached;
  EXPECT_EQ((!(!reached)).ref(), reached.ref());
  EXPECT_EQ(m.count_nodes(reached), m.count_nodes(!reached));

  // The reached set itself when small enough, else its projection onto
  // the signal variables (the paper's binary codes), which always is.
  if (m.support(reached).size() <= 14) {
    expect_matches_oracle(m, reached);
  }
  const Bdd codes = m.exists(reached, sym.place_cube());
  if (!codes.is_terminal()) expect_matches_oracle(m, codes);

  // A forced sift must preserve canonical form and the reached set.
  const double states_before = sym.count_states(reached);
  m.sift();
  m.check_invariants();
  EXPECT_DOUBLE_EQ(sym.count_states(reached), states_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplementEdgeStg,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace stgcheck::bdd
