#include "stg/stg.hpp"

#include <array>

#include "util/error.hpp"

namespace stgcheck::stg {

namespace {

constexpr std::string_view kReserved = "+-/<>,=";

bool has_reserved_char(const std::string& name) {
  return name.find_first_of(kReserved) != std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

SignalId Stg::add_signal(const std::string& name, SignalKind kind) {
  if (name.empty()) throw ModelError("signal name must not be empty");
  if (has_reserved_char(name)) {
    throw ModelError("signal name contains a reserved character: " + name);
  }
  if (signal_index_.count(name) != 0) {
    throw ModelError("duplicate signal name: " + name);
  }
  const SignalId s = static_cast<SignalId>(signal_names_.size());
  signal_names_.push_back(name);
  signal_kinds_.push_back(kind);
  signal_index_.emplace(name, s);
  initial_values_.emplace_back();
  instance_counts_.push_back({0, 0});
  return s;
}

SignalId Stg::find_signal(const std::string& name) const {
  auto it = signal_index_.find(name);
  return it == signal_index_.end() ? kNoSignal : it->second;
}

std::vector<SignalId> Stg::signals_of_kind(SignalKind kind) const {
  std::vector<SignalId> result;
  for (SignalId s = 0; s < signal_count(); ++s) {
    if (signal_kinds_[s] == kind) result.push_back(s);
  }
  return result;
}

std::vector<SignalId> Stg::noninput_signals() const {
  std::vector<SignalId> result;
  for (SignalId s = 0; s < signal_count(); ++s) {
    if (signal_kinds_[s] != SignalKind::kInput) result.push_back(s);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Transitions and places
// ---------------------------------------------------------------------------

std::string Stg::label_string(SignalId signal, Dir dir, std::uint32_t instance) const {
  std::string text = signal_names_.at(signal);
  text += dir == Dir::kPlus ? '+' : '-';
  if (instance != 1) {
    text += '/';
    text += std::to_string(instance);
  }
  return text;
}

pn::TransitionId Stg::add_transition(SignalId signal, Dir dir) {
  if (signal >= signal_count()) throw ModelError("unknown signal");
  const std::uint32_t next =
      instance_counts_[signal][static_cast<int>(dir)] + 1;
  return add_transition(signal, dir, next);
}

pn::TransitionId Stg::add_transition(SignalId signal, Dir dir,
                                     std::uint32_t instance) {
  if (signal >= signal_count()) throw ModelError("unknown signal");
  if (instance == 0) throw ModelError("instance indices are 1-based");
  const pn::TransitionId t =
      net_.add_transition(label_string(signal, dir, instance));
  labels_.push_back(TransitionLabel{signal, dir, instance});
  auto& count = instance_counts_[signal][static_cast<int>(dir)];
  count = std::max(count, instance);
  return t;
}

pn::TransitionId Stg::add_dummy(const std::string& name) {
  if (name.empty()) throw ModelError("dummy name must not be empty");
  const pn::TransitionId t = net_.add_transition(name);
  labels_.push_back(TransitionLabel{});  // kNoSignal
  return t;
}

pn::PlaceId Stg::add_place(const std::string& name, std::uint8_t tokens) {
  return net_.add_place(name, tokens);
}

pn::PlaceId Stg::connect(pn::TransitionId from, pn::TransitionId to,
                         std::uint8_t tokens) {
  const std::string name =
      "<" + net_.transition_name(from) + "," + net_.transition_name(to) + ">";
  const pn::PlaceId p = net_.add_place(name, tokens);
  net_.add_arc_tp(from, p);
  net_.add_arc_pt(p, to);
  return p;
}

void Stg::arc_pt(pn::PlaceId from, pn::TransitionId to) { net_.add_arc_pt(from, to); }

void Stg::arc_tp(pn::TransitionId from, pn::PlaceId to) { net_.add_arc_tp(from, to); }

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

std::string Stg::format_label(pn::TransitionId t) const {
  return net_.transition_name(t);
}

std::vector<pn::TransitionId> Stg::transitions_of_signal(SignalId s) const {
  std::vector<pn::TransitionId> result;
  for (pn::TransitionId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].signal == s) result.push_back(t);
  }
  return result;
}

std::vector<pn::TransitionId> Stg::transitions_of(SignalId s, Dir dir) const {
  std::vector<pn::TransitionId> result;
  for (pn::TransitionId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].signal == s && labels_[t].dir == dir) result.push_back(t);
  }
  return result;
}

pn::TransitionId Stg::find_transition(SignalId s, Dir dir,
                                      std::uint32_t instance) const {
  for (pn::TransitionId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].signal == s && labels_[t].dir == dir &&
        labels_[t].instance == instance) {
      return t;
    }
  }
  return pn::kNoId;
}

// ---------------------------------------------------------------------------
// Initial values
// ---------------------------------------------------------------------------

void Stg::set_initial_value(SignalId s, bool value) {
  if (s >= signal_count()) throw ModelError("unknown signal");
  initial_values_[s] = value;
}

std::optional<bool> Stg::initial_value(SignalId s) const {
  return initial_values_.at(s);
}

bool Stg::all_initial_values_known() const {
  for (const auto& v : initial_values_) {
    if (!v.has_value()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void Stg::validate() const {
  net_.validate();
  if (labels_.size() != net_.transition_count()) {
    throw ModelError("internal error: unlabeled net transitions");
  }
  for (SignalId s = 0; s < signal_count(); ++s) {
    if (transitions_of_signal(s).empty()) {
      throw ModelError("signal " + signal_name(s) + " has no transitions");
    }
  }
}

// ---------------------------------------------------------------------------
// Label text parsing
// ---------------------------------------------------------------------------

std::optional<ParsedLabel> parse_label_text(const std::string& text) {
  // Grammar: <name><'+'|'-'>['/'<digits>]
  const std::size_t sign = text.find_first_of("+-");
  if (sign == std::string::npos || sign == 0) return std::nullopt;
  ParsedLabel result;
  result.signal = text.substr(0, sign);
  result.dir = text[sign] == '+' ? Dir::kPlus : Dir::kMinus;
  result.instance = 1;
  if (sign + 1 == text.size()) return result;
  if (text[sign + 1] != '/') return std::nullopt;
  const std::string digits = text.substr(sign + 2);
  if (digits.empty()) return std::nullopt;
  std::uint32_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
    if (value > 1'000'000) return std::nullopt;
  }
  if (value == 0) return std::nullopt;
  result.instance = value;
  return result;
}

}  // namespace stgcheck::stg
