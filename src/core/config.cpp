#include "core/config.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "core/encoding.hpp"
#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "util/error.hpp"

namespace stgcheck::core {

using json::Value;

namespace {

[[noreturn]] void bad(const std::string& what) { throw ModelError(what); }

/// Whole non-negative integer out of a JSON number, or a loud failure.
/// A double at or above 2^64 has no size_t value (the cast would be
/// undefined), so it fails like a fraction does.
std::size_t json_size(const Value& value, const std::string& key) {
  const double n = value.as_number();
  const double size_limit =
      std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(n >= 0 && n < size_limit) || n != std::floor(n)) {
    bad(key + " must be a non-negative integer below 2^" +
        std::to_string(std::numeric_limits<std::size_t>::digits));
  }
  return static_cast<std::size_t>(n);
}

/// Whole non-negative integer out of a flag value string.
std::size_t arg_size(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || text[0] == '-') {
    bad(flag + " expects a non-negative integer, got '" + text + "'");
  }
  if (errno == ERANGE || n > std::numeric_limits<std::size_t>::max()) {
    bad(flag + " value '" + text + "' does not fit in a size_t");
  }
  return static_cast<std::size_t>(n);
}

double arg_double(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  const double n = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    bad(flag + " expects a number, got '" + text + "'");
  }
  return n;
}

/// Shortest decimal that parses back to exactly the same double.
std::string format_double(double v) {
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

Ordering parse_ordering_or_die(const std::string& name) {
  const auto o = parse_ordering(name);
  if (!o) {
    bad("unknown ordering '" + name + "' (valid: " + valid_ordering_names() +
        ")");
  }
  return *o;
}

TraversalStrategy parse_strategy_or_die(const std::string& name) {
  const auto s = parse_traversal_strategy(name);
  if (!s) {
    bad("unknown strategy '" + name + "' (valid: " +
        valid_traversal_strategy_names() + ")");
  }
  return *s;
}

EngineKind parse_engine_or_die(const std::string& name) {
  const auto e = parse_engine_kind(name);
  if (!e) {
    bad("unknown engine '" + name + "' (valid: " + valid_engine_kind_names() +
        ")");
  }
  return *e;
}

/// The "threads" key and --threads flag configure nothing (the kernel is
/// sequential). They stay accepted with the value 1 so existing requests
/// keep working; any other value fails loudly.
void check_sequential_threads(std::size_t threads) {
  if (threads != 1) {
    bad("threads " + std::to_string(threads) +
        " is not supported: the BDD kernel is sequential, so only 1 is "
        "accepted (--threads is the daemon's worker count: stg_checkd "
        "--threads N)");
  }
}

std::pair<std::string, std::string> parse_arbitrate_pair(
    const std::string& text) {
  const std::size_t comma = text.find(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 == text.size()) {
    bad("--arbitrate expects A,B got '" + text + "'");
  }
  return {text.substr(0, comma), text.substr(comma + 1)};
}

}  // namespace

void CheckConfig::validate() const {
  if (initial_nodes == 0) bad("initial_nodes must be at least 1");
  if (initial_nodes > bdd::Manager::kMaxNodes) {
    bad("initial_nodes must be at most " +
        std::to_string(bdd::Manager::kMaxNodes) +
        ", the BDD node table's limit");
  }
  if (!(limits.max_seconds >= 0) || !std::isfinite(limits.max_seconds)) {
    bad("max_seconds must be a finite non-negative number");
  }
  for (const auto& [a, b] : check.arbitration_pairs) {
    if (a.empty() || b.empty()) bad("arbitration pair with an empty name");
  }
}

CheckConfig CheckConfig::from_json(const json::Value& obj) {
  CheckConfig config;
  for (const auto& [key, value] : obj.as_object()) {
    if (key == "ordering") {
      config.check.ordering = parse_ordering_or_die(value.as_string());
    } else if (key == "strategy") {
      config.check.strategy = parse_strategy_or_die(value.as_string());
    } else if (key == "engine") {
      config.check.engine = parse_engine_or_die(value.as_string());
    } else if (key == "threads") {
      check_sequential_threads(json_size(value, key));
    } else if (key == "arbitrate") {
      for (const Value& entry : value.as_array()) {
        const auto& pair = entry.as_array();
        if (pair.size() != 2) bad("arbitrate entries must be [A, B] pairs");
        config.check.arbitration_pairs.push_back(
            {pair[0].as_string(), pair[1].as_string()});
      }
    } else if (key == "initial_nodes") {
      config.initial_nodes = json_size(value, key);
    } else if (key == "max_live_nodes") {
      config.limits.max_live_nodes = json_size(value, key);
    } else if (key == "max_seconds") {
      config.limits.max_seconds = value.as_number();
    } else if (key == "max_steps") {
      config.limits.max_steps = json_size(value, key);
    } else if (key == "trace") {
      config.trace_path = value.as_string();
    } else if (key == "profile") {
      config.profile = value.as_bool();
    } else {
      bad("unknown option '" + key + "'");
    }
  }
  config.validate();
  return config;
}

json::Value CheckConfig::to_json() const {
  const CheckConfig defaults;
  Value obj = Value::object();
  if (check.ordering != defaults.check.ordering) {
    obj.set("ordering", Value(std::string(to_string(check.ordering))));
  }
  if (check.engine != defaults.check.engine) {
    obj.set("engine", Value(std::string(to_string(check.engine))));
  }
  if (!check.arbitration_pairs.empty()) {
    Value pairs = Value::array();
    for (const auto& [a, b] : check.arbitration_pairs) {
      Value pair = Value::array();
      pair.push_back(Value(a));
      pair.push_back(Value(b));
      pairs.push_back(std::move(pair));
    }
    obj.set("arbitrate", std::move(pairs));
  }
  if (initial_nodes != defaults.initial_nodes) {
    obj.set("initial_nodes", Value(initial_nodes));
  }
  if (limits.max_live_nodes != 0) {
    obj.set("max_live_nodes", Value(limits.max_live_nodes));
  }
  if (limits.max_seconds != 0.0) {
    obj.set("max_seconds", Value(limits.max_seconds));
  }
  if (limits.max_steps != 0) {
    obj.set("max_steps", Value(limits.max_steps));
  }
  if (!trace_path.empty()) {
    obj.set("trace", Value(trace_path));
  }
  if (profile) {
    obj.set("profile", Value(true));
  }
  return obj;
}

bool CheckConfig::consume_flag(const std::vector<std::string>& args,
                               std::size_t& i) {
  const std::string& arg = args[i];
  const auto value = [&]() -> const std::string& {
    if (i + 1 >= args.size()) bad(arg + " expects a value");
    return args[++i];
  };
  if (arg == "--ordering") {
    check.ordering = parse_ordering_or_die(value());
  } else if (arg == "--strategy") {
    check.strategy = parse_strategy_or_die(value());
  } else if (arg == "--engine") {
    check.engine = parse_engine_or_die(value());
  } else if (arg == "--threads") {
    check_sequential_threads(arg_size(value(), arg));
  } else if (arg == "--arbitrate") {
    check.arbitration_pairs.push_back(parse_arbitrate_pair(value()));
  } else if (arg == "--initial-nodes") {
    initial_nodes = arg_size(value(), arg);
  } else if (arg == "--max-live-nodes") {
    limits.max_live_nodes = arg_size(value(), arg);
  } else if (arg == "--max-seconds") {
    limits.max_seconds = arg_double(value(), arg);
  } else if (arg == "--max-steps") {
    limits.max_steps = arg_size(value(), arg);
  } else if (arg == "--trace") {
    trace_path = value();
    if (trace_path.empty()) bad("--trace expects a non-empty path");
  } else if (arg == "--profile") {
    profile = true;  // valueless flag
  } else {
    return false;
  }
  return true;
}

CheckConfig CheckConfig::from_args(const std::vector<std::string>& args) {
  CheckConfig config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!config.consume_flag(args, i)) bad("unknown flag '" + args[i] + "'");
  }
  config.validate();
  return config;
}

std::vector<std::string> CheckConfig::to_args() const {
  const CheckConfig defaults;
  std::vector<std::string> args;
  const auto flag = [&](const char* name, std::string value) {
    args.push_back(name);
    args.push_back(std::move(value));
  };
  if (check.ordering != defaults.check.ordering) {
    flag("--ordering", to_string(check.ordering));
  }
  if (check.engine != defaults.check.engine) {
    flag("--engine", to_string(check.engine));
  }
  for (const auto& [a, b] : check.arbitration_pairs) {
    flag("--arbitrate", a + "," + b);
  }
  if (initial_nodes != defaults.initial_nodes) {
    flag("--initial-nodes", std::to_string(initial_nodes));
  }
  if (limits.max_live_nodes != 0) {
    flag("--max-live-nodes", std::to_string(limits.max_live_nodes));
  }
  if (limits.max_seconds != 0.0) {
    flag("--max-seconds", format_double(limits.max_seconds));
  }
  if (limits.max_steps != 0) {
    flag("--max-steps", std::to_string(limits.max_steps));
  }
  if (!trace_path.empty()) {
    flag("--trace", trace_path);
  }
  if (profile) {
    args.push_back("--profile");
  }
  return args;
}

bool operator==(const CheckConfig& a, const CheckConfig& b) {
  return a.check.ordering == b.check.ordering &&
         a.check.engine == b.check.engine &&
         a.check.arbitration_pairs == b.check.arbitration_pairs &&
         a.initial_nodes == b.initial_nodes &&
         a.limits.max_live_nodes == b.limits.max_live_nodes &&
         a.limits.max_seconds == b.limits.max_seconds &&
         a.limits.max_steps == b.limits.max_steps &&
         a.trace_path == b.trace_path && a.profile == b.profile;
}

}  // namespace stgcheck::core
