// Utility helpers, parser robustness against malformed input, the CLI
// name parser for --engine (unknown values must fail with the full list of
// valid names, not a bare error), and a GC/cache stress run of the BDD
// manager.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "core/image_engine.hpp"
#include "stg/astg_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stgcheck {
namespace {

// ---------------------------------------------------------------------------
// String helpers
// ---------------------------------------------------------------------------

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("  leading"), (std::vector<std::string>{"leading"}));
  EXPECT_EQ(split_ws("trailing  "), (std::vector<std::string>{"trailing"}));
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws(" \t\n ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".model foo", ".model"));
  EXPECT_FALSE(starts_with(".mod", ".model"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(format_count(12.0), "12");
  EXPECT_EQ(format_count(1e18), "1.000e+18");
  EXPECT_EQ(format_count(std::numeric_limits<double>::infinity()), "inf");
}

// ---------------------------------------------------------------------------
// Rng determinism
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---------------------------------------------------------------------------
// CLI name parsing: stg_check --engine
// ---------------------------------------------------------------------------

TEST(CliNames, EngineKindsRoundTripThroughParse) {
  for (core::EngineKind kind :
       {core::EngineKind::kCofactor, core::EngineKind::kMonolithicRelation,
        core::EngineKind::kSaturation}) {
    const auto parsed = core::parse_engine_kind(core::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << core::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(CliNames, UnknownNamesAreRejectedNotGuessed) {
  EXPECT_FALSE(core::parse_engine_kind("bogus").has_value());
  EXPECT_FALSE(core::parse_engine_kind("").has_value());
  EXPECT_FALSE(core::parse_engine_kind("cofactorr").has_value());
}

TEST(CliNames, ValidNameListsCoverEveryKind) {
  // The strings the CLI prints on an unknown value must name every kind,
  // so a user can recover without reading the source.
  const std::string engines = core::valid_engine_kind_names();
  for (const char* name : {"cofactor", "monolithic", "saturation"}) {
    EXPECT_NE(engines.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(engines, "cofactor, monolithic, saturation");
}

// ---------------------------------------------------------------------------
// Parser robustness: malformed inputs raise ParseError, never crash
// ---------------------------------------------------------------------------

class ParserRobustness : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRobustness, MalformedInputThrowsCleanly) {
  EXPECT_THROW(stg::parse_astg_string(GetParam()), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ParserRobustness,
    ::testing::Values(
        "garbage before any directive\n",            // stray text
        ".inputs a\n.inputs a\n.graph\np a+\na+ p\n.end\n",  // dup signal
        ".inputs a+b\n.graph\np q\n.end\n",          // reserved char in name
        ".marking { p }\n",                          // marking of unknown place
        ".inputs a\n.graph\np a+\na+ p\n.marking { p=999 }\n.end\n",  // count
        ".inputs a\n.graph\np a+\na+ p\n.marking no-braces\n.end\n",
        // Marking of an implicit place that was never drawn (reversed pair).
        ".inputs a b\n.graph\na+ b+\n.marking { <b+,a+> }\n.end\n"));

TEST(ParserRobustness, DegenerateButLegalShapesParse) {
  // An empty .graph section and self-loop arcs are structurally legal
  // (they fail later checks, not the parser).
  EXPECT_NO_THROW(stg::parse_astg_string(".graph\n"));
  EXPECT_NO_THROW(
      stg::parse_astg_string(".inputs a\n.graph\na+ a+\n.end\n"));
  EXPECT_NO_THROW(stg::parse_astg_string(".dummy d\n.graph\nd d\n.end\n"));
}

TEST(ParserRobustness, EmptyInputYieldsEmptyModel) {
  // An empty file parses to an empty STG; validation then rejects it
  // downstream where context exists.
  stg::Stg s = stg::parse_astg_string("");
  EXPECT_EQ(s.signal_count(), 0u);
  EXPECT_EQ(s.net().transition_count(), 0u);
}

TEST(ParserRobustness, CommentsAndBlankLinesIgnored)
{
  stg::Stg s = stg::parse_astg_string(
      "# leading comment\n"
      "\n"
      ".model withcomments  # trailing comment\n"
      ".inputs a   # declares a\n"
      ".graph\n"
      "p a+   # arc\n"
      "a+ p\n"
      "\n"
      ".marking { p }  # one token\n"
      ".end\n"
      "trailing junk is ignored after .end\n");
  EXPECT_EQ(s.name(), "withcomments");
  EXPECT_EQ(s.signal_count(), 1u);
}

// ---------------------------------------------------------------------------
// BDD stress: sustained garbage pressure with verification
// ---------------------------------------------------------------------------

TEST(BddStress, SustainedChurnKeepsCanonicity) {
  bdd::Manager m(1 << 10);  // deliberately small: forces growth + GC
  constexpr std::size_t kVars = 20;
  for (std::size_t v = 0; v < kVars; ++v) m.new_var();
  Rng rng(99);

  // A long-lived function that must survive all collections.
  bdd::Bdd anchor = m.bdd_false();
  for (bdd::Var v = 0; v + 1 < kVars; v += 2) {
    anchor |= m.var(v) & !m.var(v + 1);
  }
  const double anchor_count = m.sat_count(anchor);

  for (int round = 0; round < 60; ++round) {
    // Generate garbage: random SOPs combined and dropped.
    bdd::Bdd f = m.bdd_false();
    for (int c = 0; c < 12; ++c) {
      bdd::Bdd term = m.bdd_true();
      for (bdd::Var v = 0; v < kVars; ++v) {
        if (rng.below(4) == 0) term &= rng.flip() ? m.var(v) : !m.var(v);
      }
      f |= term;
    }
    // Mix with the anchor, then forget: f dies at scope exit.
    bdd::Bdd mixed = (f & anchor) | (!f & !anchor);
    EXPECT_EQ((mixed ^ !anchor), f);  // algebra must hold under churn
  }
  m.collect_garbage();
  // The anchor is intact and canonical after heavy churn.
  EXPECT_DOUBLE_EQ(m.sat_count(anchor), anchor_count);
  bdd::Bdd rebuilt = m.bdd_false();
  for (bdd::Var v = 0; v + 1 < kVars; v += 2) {
    rebuilt |= m.var(v) & !m.var(v + 1);
  }
  EXPECT_EQ(rebuilt, anchor);
  EXPECT_GT(m.stats().gc_runs, 0u);
}

TEST(BddStress, TableAndCacheGrowth) {
  bdd::Manager m(1 << 10);  // small initial table: forces doublings
  constexpr std::size_t kVars = 28;
  for (std::size_t v = 0; v < kVars; ++v) m.new_var();
  // A comparator with its operands maximally separated in the order is
  // exponentially wide: guaranteed to grow the table past its start size.
  bdd::Bdd f = m.bdd_false();
  for (bdd::Var v = 0; v < kVars / 2; ++v) {
    f |= m.var(v) & m.var(v + kVars / 2);
  }
  EXPECT_GT(m.count_nodes(f), 2000u);
  // Canonicity sanity after growth: double negation restores f.
  EXPECT_EQ(!!f, f);
  // And sifting still recovers the linear interleaved order.
  const std::size_t before = m.count_nodes(f);
  m.sift();
  EXPECT_LT(m.count_nodes(f), before);
}

}  // namespace
}  // namespace stgcheck
