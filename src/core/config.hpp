// The one check configuration, from CLI flag to wire to session.
//
// PRs 1-7 grew three places that each parsed and rendered the same knobs:
// stg_check's argv loop, the daemon's "options" JSON object, and the
// SessionOptions struct the session layer consumed. CheckConfig collapses
// them: one layered value (check pipeline options + manager sizing +
// resource limits) with one validate(), one JSON round-trip and one flag
// round-trip, so a knob added here is immediately parseable everywhere
// and a typo fails loudly on every path.
//
// Layers:
//   check          -- everything check_implementability takes (ordering,
//                     engine, arbitration pairs), minus the
//                     event log the session injects;
//   initial_nodes  -- initial node capacity of the session's manager;
//   limits         -- the resource budget (util/budget.hpp) the session
//                     arms on its manager for the duration of the check.
//
// Wire form (the daemon's "options" object and `stg_check --json` input;
// all members optional, unknown keys rejected). The engine defaults to
// saturation; "engine":"cofactor" selects the paper's method (Fig. 5
// chaining over the cofactor image) and is emitted like any non-default:
//   {"ordering":"interleaved","engine":"cofactor",
//    "arbitrate":[["g1","g2"]],"initial_nodes":16384,"max_live_nodes":0,
//    "max_seconds":0,"max_steps":0,"trace":"out.json","profile":true}
//
// The BDD kernel is sequential. For older clients, "threads":1 (and the
// flag --threads 1) is still accepted and discarded; any other count
// throws ModelError, and neither form is ever emitted. Likewise
// "strategy":"chaining" (--strategy chaining), the only traversal; any
// other name throws. ROADMAP item 1's benchmark batch deletes both.
//
// to_json()/to_args() emit only non-default members, so defaults
// round-trip as the empty object / empty flag list and rendered requests
// stay minimal.
//
// The CancelToken inside `limits` never serializes: it is an in-process
// handle the owner (daemon registry, test) installs after parsing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/implementability.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"

namespace stgcheck::core {

struct CheckConfig {
  /// Everything check_implementability takes, minus the event log (the
  /// session injects its own).
  CheckOptions check;
  /// Initial node capacity of the session's manager.
  std::size_t initial_nodes = 1 << 14;
  /// Resource governance: 0 / null members mean unlimited (see
  /// util/budget.hpp). Armed on the session's manager around the check.
  ResourceBudget limits;
  /// When non-empty, the session records Chrome trace_event spans and
  /// writes the document here before CheckSession::run returns.
  std::string trace_path;
  /// Arms kernel wall-clock profiling (per-op/GC/sift timings in
  /// Manager::profile()). Off by default: the disarmed kernel reads no
  /// clock, so default runs stay bit-identical and overhead-free.
  bool profile = false;

  /// Throws ModelError when a member is out of range (initial_nodes zero
  /// or above bdd::Manager::kMaxNodes, negative or non-finite max_seconds,
  /// empty arbitration signal name).
  void validate() const;

  // -- JSON round-trip (the wire "options" object) --------------------

  /// Parses the wire object. Missing members keep defaults; unknown keys
  /// and bad values throw ModelError with a message naming the valid
  /// choices. Calls validate().
  static CheckConfig from_json(const json::Value& obj);
  /// Renders only non-default members; from_json(to_json()) == *this.
  json::Value to_json() const;

  // -- Flag round-trip (shared by stg_check and stg_checkd_client) -----

  /// If args[i] is a config flag, consumes it (and its value, advancing
  /// i) and returns true; returns false on anything else. Throws
  /// ModelError on a missing or malformed value. Flags:
  ///   --ordering --strategy (chaining only) --engine --threads (1 only)
  ///   --arbitrate --initial-nodes --max-live-nodes --max-seconds
  ///   --max-steps --trace --profile
  bool consume_flag(const std::vector<std::string>& args, std::size_t& i);

  /// Parses a vector that must consist solely of config flags. Throws
  /// ModelError on anything consume_flag rejects. Calls validate().
  static CheckConfig from_args(const std::vector<std::string>& args);
  /// Renders only non-default members; from_args(to_args()) == *this.
  std::vector<std::string> to_args() const;
};

/// Member-wise equality over everything that serializes (the CancelToken
/// handle is ignored, like the wire forms ignore it).
bool operator==(const CheckConfig& a, const CheckConfig& b);
inline bool operator!=(const CheckConfig& a, const CheckConfig& b) {
  return !(a == b);
}

}  // namespace stgcheck::core
