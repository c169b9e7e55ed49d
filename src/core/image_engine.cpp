#include "core/image_engine.hpp"

#include <numeric>

#include "core/relation.hpp"
#include "core/saturation.hpp"
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

// ---------------------------------------------------------------------------
// ImageEngine base
// ---------------------------------------------------------------------------

ImageEngine::ImageEngine(SymbolicStg& sym)
    : sym_(sym), transitions_(sym.stg().net().transition_count()) {
  std::iota(transitions_.begin(), transitions_.end(), pn::TransitionId{0});
}

Bdd ImageEngine::image_unit(const Bdd& states, std::size_t u) {
  ++stats_.image_calls;
  return sym_.image(states, static_cast<pn::TransitionId>(u));
}

Bdd ImageEngine::fresh_unit(const Bdd& states, std::size_t u,
                            const Bdd& known) {
  return image_unit(states, u).minus(known);
}

Bdd CofactorEngine::fresh_unit(const Bdd& states, std::size_t u,
                               const Bdd& known) {
  ++stats_.image_calls;
  return sym_.fresh_image(states, static_cast<pn::TransitionId>(u), known);
}

Bdd ImageEngine::reach_fixpoint(const Bdd&) {
  throw ModelError(std::string(name()) +
                   " engine does not compute whole-space fixpoints "
                   "(computes_global_fixpoint() is false)");
}

// ---------------------------------------------------------------------------
// MonolithicRelationEngine
// ---------------------------------------------------------------------------

MonolithicRelationEngine::MonolithicRelationEngine(SymbolicStg& sym)
    : ImageEngine(sym) {
  const pn::PetriNet& net = sym.stg().net();
  monolithic_ = sym.manager().bdd_false();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    monolithic_ |= build_full_relation(sym, t);
  }
  stats_.relation_nodes = sym.manager().count_nodes(monolithic_);
}

Bdd MonolithicRelationEngine::image_unit(const Bdd& states, std::size_t) {
  ++stats_.image_calls;
  return sym_.manager().rel_next(states, monolithic_, sym_.state_cube());
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions&) {
  switch (kind) {
    case EngineKind::kCofactor:
      return std::make_unique<CofactorEngine>(sym);
    case EngineKind::kMonolithicRelation:
      return std::make_unique<MonolithicRelationEngine>(sym);
    case EngineKind::kSaturation:
      return std::make_unique<SaturationEngine>(sym);
  }
  throw ModelError("unknown engine kind");
}

}  // namespace stgcheck::core
