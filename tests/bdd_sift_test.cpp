// Dynamic reordering: sifting must preserve every externally referenced
// function while (usually) shrinking the node table.
#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stgcheck::bdd {
namespace {

/// Dense truth-table signature of f over the manager's n <= 16 variables.
std::vector<bool> signature(Manager& m, const Bdd& f) {
  const std::size_t n = m.var_count();
  std::vector<bool> sig(std::size_t{1} << n);
  for (std::size_t row = 0; row < sig.size(); ++row) {
    std::vector<bool> assignment(n);
    for (std::size_t v = 0; v < n; ++v) assignment[v] = (row >> v) & 1u;
    sig[row] = m.eval(f, assignment);
  }
  return sig;
}

TEST(BddSift, PreservesSimpleFunctions) {
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd c = m.new_var("c");
  Bdd f = (a & b) | (!b & c);
  auto sig_before = signature(m, f);
  m.sift();
  EXPECT_EQ(signature(m, f), sig_before);
}

TEST(BddSift, ShrinksInterleavedComparator) {
  // f = (a0&b0) | (a1&b1) | ... with the bad order a0..an b0..bn has
  // exponential size; sifting must interleave the pairs and shrink it.
  Manager m;
  constexpr std::size_t kPairs = 6;
  std::vector<Bdd> as;
  std::vector<Bdd> bs;
  for (std::size_t i = 0; i < kPairs; ++i) as.push_back(m.new_var("a" + std::to_string(i)));
  for (std::size_t i = 0; i < kPairs; ++i) bs.push_back(m.new_var("b" + std::to_string(i)));
  Bdd f = m.bdd_false();
  for (std::size_t i = 0; i < kPairs; ++i) f |= as[i] & bs[i];

  const std::size_t before = m.count_nodes(f);
  auto sig_before = signature(m, f);
  // Sifting is a local search; iterate to convergence for a fair bound.
  std::size_t prev = m.stats().live_count;
  for (int pass = 0; pass < 5; ++pass) {
    const std::size_t cur = m.sift();
    if (cur >= prev) break;
    prev = cur;
  }
  const std::size_t after = m.count_nodes(f);
  EXPECT_LT(after * 2, before);       // at least halves the exponential order
  EXPECT_EQ(signature(m, f), sig_before);
}

TEST(BddSift, PreservesManyRandomFunctions) {
  Manager m;
  constexpr std::size_t kVars = 9;
  for (std::size_t v = 0; v < kVars; ++v) m.new_var("v" + std::to_string(v));
  Rng rng(42);
  std::vector<Bdd> fs;
  std::vector<std::vector<bool>> sigs;
  for (int i = 0; i < 12; ++i) {
    Bdd f = m.bdd_false();
    for (int cube = 0; cube < 6; ++cube) {
      Bdd term = m.bdd_true();
      for (Var v = 0; v < kVars; ++v) {
        if (rng.below(3) == 0) term &= rng.flip() ? m.var(v) : !m.var(v);
      }
      f |= term;
    }
    fs.push_back(f);
    sigs.push_back(signature(m, f));
  }
  m.sift();
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(signature(m, fs[i]), sigs[i]) << "function " << i;
  }
  // The order is now a permutation of all variables.
  std::vector<Var> order = m.current_order();
  std::vector<bool> seen(kVars, false);
  ASSERT_EQ(order.size(), kVars);
  for (Var v : order) {
    ASSERT_LT(v, kVars);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(BddSift, IdempotentOnAlreadyGoodOrder) {
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd f = a & b;
  const std::size_t size1 = m.sift();
  const std::size_t size2 = m.sift();
  EXPECT_EQ(size1, size2);
  EXPECT_EQ(f, a & b);
}

TEST(BddSift, OperationsStayCorrectAfterSift) {
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd c = m.new_var("c");
  Bdd d = m.new_var("d");
  Bdd f = (a & b) | (c & d);
  m.sift();
  // Fresh operations after reordering must still be canonical and correct.
  EXPECT_EQ(m.exists(f, m.positive_cube({0})), b | (c & d));
  EXPECT_EQ(f & !f, m.bdd_false());
  EXPECT_EQ(m.cofactor(f, a & b), m.bdd_true());
}

TEST(BddSift, SingleVariableManagerIsNoop) {
  Manager m;
  Bdd a = m.new_var("a");
  EXPECT_NO_THROW(m.sift());
  EXPECT_EQ(a, m.var(0));
}

TEST(BddSift, EmptyManagerIsNoop) {
  Manager m;
  EXPECT_NO_THROW(m.sift());
}

// ---------------------------------------------------------------------------
// Variable groups
// ---------------------------------------------------------------------------

TEST(BddGroups, GroupVarsValidatesItsInput) {
  Manager m;
  m.new_var("a");
  m.new_var("b");
  m.new_var("c");
  EXPECT_THROW(m.group_vars({0}), ModelError);        // too small
  EXPECT_THROW(m.group_vars({0, 2}), ModelError);     // not adjacent
  EXPECT_THROW(m.group_vars({1, 0}), ModelError);     // wrong direction
  EXPECT_THROW(m.group_vars({0, 7}), ModelError);     // unknown variable
  m.group_vars({0, 1});
  EXPECT_THROW(m.group_vars({1, 2}), ModelError);     // already grouped
  ASSERT_EQ(m.group_count(), 1u);
  EXPECT_EQ(m.group(0), (std::vector<Var>{0, 1}));
}

TEST(BddGroups, SiftKeepsGroupedPairsAdjacentAndPreservesFunctions) {
  // The comparator with pairs declared apart (a0..an then b0..bn) forces
  // sifting to move variables far; grouping creation-order neighbours
  // makes those moves happen in blocks, which must stay intact wherever
  // they settle.
  Manager m;
  constexpr std::size_t kPairs = 5;
  std::vector<Bdd> as;
  std::vector<Bdd> bs;
  for (std::size_t i = 0; i < kPairs; ++i) as.push_back(m.new_var("a" + std::to_string(i)));
  for (std::size_t i = 0; i < kPairs; ++i) bs.push_back(m.new_var("b" + std::to_string(i)));
  // Group each (a_i, a_{i+1}) creation-order pair and each (b_i, b_{i+1}).
  for (std::size_t i = 0; i + 1 < kPairs; i += 2) m.group_vars({static_cast<Var>(i), static_cast<Var>(i + 1)});
  for (std::size_t i = 0; i + 1 < kPairs; i += 2) {
    m.group_vars({static_cast<Var>(kPairs + i), static_cast<Var>(kPairs + i + 1)});
  }
  Bdd f = m.bdd_false();
  for (std::size_t i = 0; i < kPairs; ++i) f |= as[i] & bs[i];
  const auto sig_before = signature(m, f);
  const std::size_t epoch_before = m.reorder_epoch();
  m.sift();
  EXPECT_EQ(signature(m, f), sig_before);
  EXPECT_GT(m.reorder_epoch(), epoch_before);
  for (std::size_t g = 0; g < m.group_count(); ++g) {
    const std::vector<Var>& members = m.group(g);
    for (std::size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(m.level_of_var(members[i]), m.level_of_var(members[i - 1]) + 1)
          << "group " << g << " split by sifting";
    }
  }
}

TEST(BddGroups, GroupedSiftStillShrinksTheComparator) {
  // Pair each a_i with its b_i AFTER moving them adjacent via reorder();
  // grouped sifting must then keep every (a_i, b_i) block intact while
  // still escaping the exponential order.
  Manager m;
  constexpr std::size_t kPairs = 6;
  std::vector<Bdd> as;
  std::vector<Bdd> bs;
  for (std::size_t i = 0; i < kPairs; ++i) as.push_back(m.new_var("a" + std::to_string(i)));
  for (std::size_t i = 0; i < kPairs; ++i) bs.push_back(m.new_var("b" + std::to_string(i)));
  Bdd f = m.bdd_false();
  for (std::size_t i = 0; i < kPairs; ++i) f |= as[i] & bs[i];
  const std::size_t bad_order_size = m.count_nodes(f);
  const auto sig_before = signature(m, f);

  // Interleave, group the pairs, then scramble back to the bad order --
  // blocks intact -- and let grouped sifting recover the good one.
  std::vector<Var> interleaved;
  for (std::size_t i = 0; i < kPairs; ++i) {
    interleaved.push_back(static_cast<Var>(i));
    interleaved.push_back(static_cast<Var>(kPairs + i));
  }
  m.reorder(interleaved);
  for (std::size_t i = 0; i < kPairs; ++i) {
    m.group_vars({static_cast<Var>(i), static_cast<Var>(kPairs + i)});
  }
  // Back to a bad order, as blocks: (a0 b0) (a1 b1) ... (a5 b5) reversed.
  std::vector<Var> reversed_blocks;
  for (std::size_t i = kPairs; i-- > 0;) {
    reversed_blocks.push_back(static_cast<Var>(i));
    reversed_blocks.push_back(static_cast<Var>(kPairs + i));
  }
  m.reorder(reversed_blocks);
  EXPECT_EQ(signature(m, f), sig_before);

  std::size_t prev = m.stats().live_count;
  for (int pass = 0; pass < 5; ++pass) {
    const std::size_t cur = m.sift();
    if (cur >= prev) break;
    prev = cur;
  }
  EXPECT_EQ(signature(m, f), sig_before);
  EXPECT_LT(m.count_nodes(f) * 2, bad_order_size);
  for (std::size_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(m.level_of_var(static_cast<Var>(kPairs + i)),
              m.level_of_var(static_cast<Var>(i)) + 1)
        << "pair " << i << " split";
  }
}

// ---------------------------------------------------------------------------
// Explicit reorder
// ---------------------------------------------------------------------------

TEST(BddReorder, AppliesAnExactOrderAndPreservesFunctions) {
  Manager m;
  Bdd a = m.new_var("a");
  Bdd b = m.new_var("b");
  Bdd c = m.new_var("c");
  Bdd d = m.new_var("d");
  Bdd f = (a & b) | (!c & d);
  const auto sig_before = signature(m, f);
  m.reorder({3, 0, 2, 1});
  EXPECT_EQ(m.current_order(), (std::vector<Var>{3, 0, 2, 1}));
  EXPECT_EQ(m.level_of_var(3), 0u);
  EXPECT_EQ(m.var_at_level(3), 1u);
  EXPECT_EQ(signature(m, f), sig_before);
  // Fresh operations after the reorder are still canonical.
  EXPECT_EQ(f & !f, m.bdd_false());
  EXPECT_EQ(m.exists(f, m.positive_cube({0})), b | (!c & d));
}

TEST(BddReorder, ValidatesPermutationsAndGroups) {
  Manager m;
  m.new_var("a");
  m.new_var("b");
  m.new_var("c");
  m.new_var("d");
  EXPECT_THROW(m.reorder({0, 1, 2}), ModelError);     // wrong size
  EXPECT_THROW(m.reorder({0, 1, 2, 2}), ModelError);  // duplicate
  EXPECT_THROW(m.reorder({0, 1, 2, 9}), ModelError);  // unknown
  m.group_vars({1, 2});
  EXPECT_THROW(m.reorder({1, 0, 2, 3}), ModelError);  // splits the group
  EXPECT_THROW(m.reorder({0, 2, 1, 3}), ModelError);  // reverses the group
  EXPECT_NO_THROW(m.reorder({3, 1, 2, 0}));           // block kept intact
  EXPECT_EQ(m.level_of_var(2), m.level_of_var(1) + 1);
}

TEST(BddReorder, NoopOrderDoesNotBumpTheEpoch) {
  Manager m;
  m.new_var("a");
  m.new_var("b");
  const std::size_t epoch = m.reorder_epoch();
  m.reorder({0, 1});
  EXPECT_EQ(m.reorder_epoch(), epoch);
  m.reorder({1, 0});
  EXPECT_EQ(m.reorder_epoch(), epoch + 1);
}

}  // namespace
}  // namespace stgcheck::bdd
