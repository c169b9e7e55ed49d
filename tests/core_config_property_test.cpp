// Property test for the unified CheckConfig (core/config.hpp): for
// randomly generated configurations, both wire forms are lossless --
// from_json(to_json(c)) == c and from_args(to_args(c)) == c -- defaults
// render as the empty object / empty flag list, and unknown keys, flags
// and malformed values are rejected with ModelError rather than silently
// ignored. Deterministic seed: a failure reproduces byte-for-byte.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace stgcheck::core {
namespace {

using json::Value;

CheckConfig random_config(std::mt19937& rng) {
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  CheckConfig config;
  config.check.ordering = static_cast<Ordering>(pick(5));
  config.check.strategy = static_cast<TraversalStrategy>(pick(3));
  config.check.engine = static_cast<EngineKind>(pick(4));
  config.check.engine_options.schedule = static_cast<ScheduleKind>(pick(3));
  config.check.engine_options.relation_templates =
      static_cast<TemplateMode>(pick(3));
  const int pairs = pick(3);
  for (int p = 0; p < pairs; ++p) {
    config.check.arbitration_pairs.emplace_back(
        "g" + std::to_string(pick(9)), "h" + std::to_string(pick(9)));
  }
  config.initial_nodes = std::size_t{1} << (4 + pick(16));
  config.limits.max_live_nodes = static_cast<std::size_t>(rng() % 1000000);
  config.limits.max_steps = static_cast<std::size_t>(rng() % 100000);
  // Arbitrary non-negative finite doubles: both wire forms promise exact
  // round-trip (%.17g / precision-escalating formatter), so no "nice"
  // values needed.
  std::uniform_real_distribution<double> seconds(0.0, 1e6);
  config.limits.max_seconds = seconds(rng);
  return config;
}

TEST(CheckConfigProperty, JsonAndArgsRoundTripsAreLossless) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const CheckConfig config = random_config(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 config.to_json().dump());

    const CheckConfig via_json = CheckConfig::from_json(config.to_json());
    EXPECT_EQ(via_json, config);

    const CheckConfig via_args = CheckConfig::from_args(config.to_args());
    EXPECT_EQ(via_args, config);
  }
}

TEST(CheckConfigProperty, DefaultsRenderEmpty) {
  const CheckConfig defaults;
  EXPECT_TRUE(defaults.to_json().as_object().empty());
  EXPECT_TRUE(defaults.to_args().empty());
  EXPECT_EQ(CheckConfig::from_json(Value::object()), defaults);
  EXPECT_EQ(CheckConfig::from_args({}), defaults);
}

TEST(CheckConfigProperty, RoundTripPreservesEquality) {
  // Two distinct configs stay distinct through the wire: the round-trip
  // is injective over what it serializes.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const CheckConfig a = random_config(rng);
    const CheckConfig b = random_config(rng);
    EXPECT_EQ(a == b, a.to_json().dump() == b.to_json().dump());
  }
}

TEST(CheckConfigProperty, ThreadsKeyAcceptsOnlyTheSequentialKernel) {
  // "threads":1 / --threads 1 stay accepted for older clients and are
  // discarded: the config they yield is the default, which renders empty.
  Value one = Value::object();
  one.set("threads", Value(1.0));
  EXPECT_EQ(CheckConfig::from_json(one), CheckConfig{});
  EXPECT_EQ(CheckConfig::from_args({"--threads", "1"}), CheckConfig{});
  EXPECT_TRUE(CheckConfig::from_json(one).to_json().as_object().empty());
  EXPECT_TRUE(CheckConfig::from_args({"--threads", "1"}).to_args().empty());

  // Any other count fails loudly and says why.
  const auto expect_sequential_error = [](const auto& parse) {
    try {
      parse();
      ADD_FAILURE() << "threads 4 was accepted";
    } catch (const ModelError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("BDD kernel is sequential"), std::string::npos)
          << what;
      EXPECT_NE(what.find("--threads is the daemon's worker count"),
                std::string::npos)
          << what;
    }
  };
  Value four = Value::object();
  four.set("threads", Value(4.0));
  expect_sequential_error([&] { return CheckConfig::from_json(four); });
  expect_sequential_error(
      [] { return CheckConfig::from_args({"--threads", "4"}); });
}

TEST(CheckConfigProperty, TokenNeverSerializes) {
  CheckConfig config;
  config.limits.token = std::make_shared<CancelToken>();
  EXPECT_TRUE(config.to_json().as_object().empty());
  EXPECT_TRUE(config.to_args().empty());
  // ...and does not participate in equality.
  EXPECT_EQ(config, CheckConfig{});
}

TEST(CheckConfigProperty, UnknownKeysAndFlagsAreRejected) {
  Value obj = Value::object();
  obj.set("orderng", Value(std::string("interleaved")));  // typo'd key
  EXPECT_THROW(CheckConfig::from_json(obj), ModelError);

  EXPECT_THROW(CheckConfig::from_args({"--orderng", "interleaved"}),
               ModelError);
  EXPECT_THROW(CheckConfig::from_args({"not-a-flag"}), ModelError);
}

TEST(CheckConfigProperty, BadValuesAreRejected) {
  const auto bad_json = [](const std::string& key, Value value) {
    Value obj = Value::object();
    obj.set(key, std::move(value));
    EXPECT_THROW(CheckConfig::from_json(obj), ModelError) << key;
  };
  bad_json("ordering", Value(std::string("sideways")));
  bad_json("strategy", Value(std::string("guess")));
  bad_json("engine", Value(std::string("steam")));
  bad_json("schedule", Value(std::string("sometimes")));
  bad_json("relation_templates", Value(std::string("maybe")));
  bad_json("threads", Value(0.0));
  bad_json("threads", Value(1.5));
  bad_json("initial_nodes", Value(0.0));
  bad_json("max_seconds", Value(-1.0));
  bad_json("max_live_nodes", Value(-3.0));
  {
    Value pair = Value::array();
    pair.push_back(Value(std::string("only-one-side")));
    Value arbitrate = Value::array();
    arbitrate.push_back(std::move(pair));
    Value obj = Value::object();
    obj.set("arbitrate", std::move(arbitrate));
    EXPECT_THROW(CheckConfig::from_json(obj), ModelError);
  }

  EXPECT_THROW(CheckConfig::from_args({"--relation-templates", "perhaps"}),
               ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--threads", "zero"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--threads"}), ModelError);  // no value
  EXPECT_THROW(CheckConfig::from_args({"--max-seconds", "-2"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", "lonely"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", ",b"}), ModelError);
}

TEST(CheckConfigProperty, FlagSpellingMatchesWireSpelling) {
  // The same names work dashed on the CLI and underscored on the wire.
  const CheckConfig from_flags = CheckConfig::from_args(
      {"--ordering", "signals-first", "--engine", "partitioned",
       "--schedule", "support-overlap", "--relation-templates", "auto",
       "--max-live-nodes", "4096"});
  Value obj = Value::object();
  obj.set("ordering", Value(std::string("signals_first")));
  obj.set("engine", Value(std::string("partitioned")));
  obj.set("schedule", Value(std::string("support_overlap")));
  obj.set("relation_templates", Value(std::string("auto")));
  obj.set("max_live_nodes", Value(4096.0));
  EXPECT_EQ(from_flags, CheckConfig::from_json(obj));
}

}  // namespace
}  // namespace stgcheck::core
