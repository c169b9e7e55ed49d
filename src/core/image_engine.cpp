#include "core/image_engine.hpp"

#include <numeric>

#include "core/relation.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace stgcheck::core {

using bdd::Bdd;

namespace {

/// The single source for parse_engine_kind and valid_engine_kind_names.
constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kCofactor,
    EngineKind::kMonolithicRelation,
    EngineKind::kSaturation,
};

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCofactor: return "cofactor";
    case EngineKind::kMonolithicRelation: return "monolithic";
    case EngineKind::kSaturation: return "saturation";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  for (const EngineKind kind : kAllEngineKinds) {
    if (names_equal_dashed(name, to_string(kind))) return kind;
  }
  return std::nullopt;
}

std::string valid_engine_kind_names() {
  std::string names;
  for (const EngineKind kind : kAllEngineKinds) {
    if (!names.empty()) names += ", ";
    names += to_string(kind);
  }
  return names;
}

ImageEngine::ImageEngine(EngineKind kind, SymbolicStg& sym)
    : kind_(kind),
      sym_(sym),
      transitions_(sym.stg().net().transition_count()) {
  std::iota(transitions_.begin(), transitions_.end(), pn::TransitionId{0});
  bdd::Manager& m = sym.manager();
  switch (kind_) {
    case EngineKind::kCofactor:
      break;
    case EngineKind::kMonolithicRelation:
      monolithic_ = m.bdd_false();
      for (const pn::TransitionId t : transitions_) {
        monolithic_ |= build_full_relation(sym, t);
      }
      stats_.relation_nodes = m.count_nodes(monolithic_);
      break;
    case EngineKind::kSaturation: {
      // One relation per transition, never merged: the kernel REACH
      // saturates per relation, so merging buys no locality, and the
      // padded-disjunction construction of merged relations (select24:
      // ~350k transient live nodes) would dominate the whole fixpoint's
      // footprint.
      rules_.reserve(transitions_.size());
      std::vector<Bdd> rels;
      rels.reserve(transitions_.size());
      for (const pn::TransitionId t : transitions_) {
        SparseRelation r = build_sparse_relation(sym, t);
        rels.push_back(r.rel);
        rules_.push_back(bdd::ReachRelation{std::move(r.rel),
                                            std::move(r.quant_cube)});
      }
      stats_.relation_nodes = m.count_nodes(rels);
      break;
    }
  }
}

std::size_t ImageEngine::unit_count() const {
  return kind_ == EngineKind::kMonolithicRelation ? 1 : transitions_.size();
}

std::span<const pn::TransitionId> ImageEngine::unit_transitions(
    std::size_t u) const {
  if (kind_ == EngineKind::kMonolithicRelation) return transitions_;
  return {&transitions_[u], 1};
}

Bdd ImageEngine::fresh_unit(const Bdd& states, std::size_t u,
                            const Bdd& known) {
  ++stats_.image_calls;
  bdd::Manager& m = sym_.manager();
  switch (kind_) {
    case EngineKind::kCofactor:
      return sym_.fresh_image(states, static_cast<pn::TransitionId>(u), known);
    case EngineKind::kMonolithicRelation:
      // rel_next quantifies every state variable and renames every twin
      // back in one recursion.
      return m.rel_next(states, monolithic_, sym_.state_cube()).minus(known);
    case EngineKind::kSaturation:
      // The step-wise loop a net with unbound initial values falls back to.
      return m.rel_next(states, rules_[u].rel, rules_[u].support).minus(known);
  }
  throw ModelError("unknown engine kind");
}

Bdd ImageEngine::reach_fixpoint(const Bdd& from) {
  if (kind_ != EngineKind::kSaturation) {
    throw ModelError(std::string(to_string(kind_)) +
                     " engine does not compute whole-space fixpoints");
  }
  ++stats_.image_calls;
  return sym_.manager().reach(from, rules_);
}

std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions&) {
  return std::make_unique<ImageEngine>(kind, sym);
}

}  // namespace stgcheck::core
