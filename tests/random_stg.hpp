// Shared random-STG generators for property tests (image engines, dynamic
// reordering, the explicit-oracle cross-validation). Kept out of any
// test's anonymous namespace so every suite draws from the same
// distributions.
#pragma once

#include <string>
#include <vector>

#include "stg/stg.hpp"
#include "util/rng.hpp"

namespace stgcheck::testutil {

/// A random safe STG: a few token rings (one token each, so the net is a
/// safe marked graph) whose transitions draw from a shared signal pool
/// with alternating directions per signal.
inline stg::Stg random_stg(Rng& rng) {
  stg::Stg s;
  s.set_name("random");
  const std::size_t n_signals = 2 + rng.below(4);
  std::vector<stg::SignalId> sigs;
  for (std::size_t i = 0; i < n_signals; ++i) {
    sigs.push_back(s.add_signal("s" + std::to_string(i),
                                rng.flip() ? stg::SignalKind::kInput
                                           : stg::SignalKind::kOutput));
  }
  std::vector<stg::Dir> next_dir(n_signals, stg::Dir::kPlus);
  std::size_t round_robin = 0;
  const std::size_t n_rings = 1 + rng.below(3);
  for (std::size_t ring = 0; ring < n_rings; ++ring) {
    const std::size_t len = 2 + rng.below(5);
    std::vector<pn::TransitionId> ts;
    for (std::size_t j = 0; j < len; ++j) {
      // Guarantee every signal is used before going fully random.
      const stg::SignalId sid = round_robin < n_signals
                                    ? sigs[round_robin++]
                                    : sigs[rng.below(n_signals)];
      const stg::Dir dir = next_dir[sid];
      next_dir[sid] =
          dir == stg::Dir::kPlus ? stg::Dir::kMinus : stg::Dir::kPlus;
      ts.push_back(s.add_transition(sid, dir));
    }
    for (std::size_t j = 0; j < len; ++j) {
      s.connect(ts[j], ts[(j + 1) % len], j == 0 ? 1 : 0);
    }
  }
  // Known initial values (first occurrence of each signal is a rise).
  for (stg::SignalId sid : sigs) s.set_initial_value(sid, false);
  return s;
}

/// A random safe STG with one free choice: a ring through a marked choice
/// place whose two branches each fire a rise and a fall of their own
/// signal, then join in one place; a tail of one or two further signals
/// leads back to the choice. Every signal's kind is drawn at random, so a
/// branch signal disabled by the other branch is a signal-persistency
/// violation unless both are inputs.
inline stg::Stg random_choice_stg(Rng& rng) {
  stg::Stg s;
  s.set_name("random_choice");
  const auto random_kind = [&] {
    switch (rng.below(3)) {
      case 0: return stg::SignalKind::kInput;
      case 1: return stg::SignalKind::kOutput;
      default: return stg::SignalKind::kInternal;
    }
  };
  const pn::PlaceId choice = s.add_place("choice", 1);
  const pn::PlaceId join = s.add_place("join");
  for (const char* name : {"a", "b"}) {
    const stg::SignalId sig = s.add_signal(name, random_kind());
    const pn::TransitionId rise = s.add_transition(sig, stg::Dir::kPlus);
    const pn::TransitionId fall = s.add_transition(sig, stg::Dir::kMinus);
    s.arc_pt(choice, rise);
    s.connect(rise, fall);
    s.arc_tp(fall, join);
  }
  // The tail: every rise, then every fall, or each rise followed by its
  // own fall.
  const std::size_t n_tail = 1 + rng.below(2);
  std::vector<stg::SignalId> tail;
  for (std::size_t i = 0; i < n_tail; ++i) {
    tail.push_back(s.add_signal("c" + std::to_string(i), random_kind()));
  }
  std::vector<pn::TransitionId> order;
  if (rng.flip()) {
    for (stg::SignalId sig : tail) order.push_back(s.add_transition(sig, stg::Dir::kPlus));
    for (stg::SignalId sig : tail) order.push_back(s.add_transition(sig, stg::Dir::kMinus));
  } else {
    for (stg::SignalId sig : tail) {
      order.push_back(s.add_transition(sig, stg::Dir::kPlus));
      order.push_back(s.add_transition(sig, stg::Dir::kMinus));
    }
  }
  s.arc_pt(join, order.front());
  for (std::size_t j = 0; j + 1 < order.size(); ++j) {
    s.connect(order[j], order[j + 1]);
  }
  s.arc_tp(order.back(), choice);
  for (stg::SignalId sig = 0; sig < s.signal_count(); ++sig) {
    s.set_initial_value(sig, false);
  }
  return s;
}

}  // namespace stgcheck::testutil
