// The pluggable traversal layer: one interface, three backends.
//
// An ImageEngine computes the reached set and nothing else: traverse()
// (core/traversal.hpp) drives it unit by unit, or in one call for a
// backend that computes the whole fixpoint. Everything after the
// traversal -- the implementability checks, witnesses, the
// CSC-reducibility closure -- works on the encoding alone, through
// SymbolicStg's cofactor image and fire guards. That keeps the paper's
// central claim (the per-transition cofactor image beats transition
// relations) a swappable, benchmarkable choice for the traversal.
//
//   * CofactorEngine           -- the paper's delta_N (Sec. 4) as one
//                                 flip_image walk per transition
//                                 (SymbolicStg::image), fired straight
//                                 into the unreached states
//                                 (fresh_unit); no relation ever built.
//   * MonolithicRelationEngine -- the textbook baseline: one relation
//                                 T(V, V') = OR_t T_t, applied by one
//                                 twin-pair product (rel_next) per step.
//   * SaturationEngine         -- the in-kernel fixpoint (saturation.hpp)
//                                 over one sparse relation per transition.
//                                 traverse() detects it
//                                 (computes_global_fixpoint) and replaces
//                                 its pass loop with reach_fixpoint calls.
//
// traverse() fires "units", the indivisible steps a backend offers: by
// default unit u is transition u, imaged by one flip_image walk (the
// paper's Fig. 5 inner loop); saturation images it by its relation, and
// the monolithic backend offers one unit for all transitions. Chaining
// asks a unit only for the states it adds (fresh_unit), and it and lazy
// binding run unchanged on every backend.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoding.hpp"

namespace stgcheck::core {

/// Which backend computes images; TraversalOptions::engine selects one.
enum class EngineKind {
  kCofactor,            ///< the paper's delta_N, one flip_image walk
  kMonolithicRelation,  ///< one relation over (V, V')
  kSaturation,          ///< in-kernel REACH fixpoint over per-transition
                        ///< sparse relations (core/saturation.hpp)
};

const char* to_string(EngineKind kind);

/// Parses an engine name as printed by to_string ('-' and '_' are
/// interchangeable, so the CLI spellings work too); nullopt for unknown
/// names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);
/// Every valid engine name, comma-separated -- for CLI error messages.
std::string valid_engine_kind_names();

/// No backend takes options; kept empty so existing callers still compile.
struct EngineOptions {};

struct ImageEngineStats {
  std::size_t image_calls = 0;     ///< image_unit / reach_fixpoint calls
  std::size_t relation_nodes = 0;  ///< BDD size of the backend's relations
                                   ///< at construction (0 for cofactor)
};

/// Abstract traversal substrate over one SymbolicStg encoding.
class ImageEngine {
 public:
  virtual ~ImageEngine() = default;

  virtual const char* name() const = 0;
  virtual EngineKind kind() const = 0;

  // ---- Firing units (traversal granularity) -------------------------------
  // Default: one unit per transition, unit u = {u}.

  virtual std::size_t unit_count() const { return transitions_.size(); }
  /// The transitions unit `u` fires (for lazy binding and safeness
  /// attribution in the traversal).
  virtual std::span<const pn::TransitionId> unit_transitions(std::size_t u) const {
    return {&transitions_[u], 1};
  }
  /// Successors of `states` under every transition of unit `u`. The
  /// default is the encoding's image of transition u (SymbolicStg::image,
  /// one flip_image walk).
  virtual bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u);
  /// image_unit(states, u) minus `known`: the fresh states a chained
  /// firing adds. The default builds the image and subtracts; the
  /// cofactor engine fires into the complement of `known` in one walk.
  virtual bdd::Bdd fresh_unit(const bdd::Bdd& states, std::size_t u,
                              const bdd::Bdd& known);

  // ---- Whole-space fixpoints ----------------------------------------------

  /// True when the backend computes the whole reachability least fixpoint
  /// in one in-kernel operation (SaturationEngine). traverse() then
  /// replaces its pass/unit loop with a single reach_fixpoint call --
  /// but only when no lazy initial-value binding remains after the
  /// initial-state pass (binding needs the temporal order of first
  /// enablings, which a closed set has erased); a net with an undeclared,
  /// not-initially-enabled signal runs the step-wise unit loop instead.
  virtual bool computes_global_fixpoint() const { return false; }
  /// The least fixpoint of `from` under every transition. Engines that
  /// return true above must override; the default throws ModelError.
  virtual bdd::Bdd reach_fixpoint(const bdd::Bdd& from);

  SymbolicStg& sym() { return sym_; }
  const ImageEngineStats& stats() const { return stats_; }

 protected:
  explicit ImageEngine(SymbolicStg& sym);

  SymbolicStg& sym_;
  ImageEngineStats stats_;
  /// Every transition id in order: the storage unit_transitions() views.
  std::vector<pn::TransitionId> transitions_;
};

/// The paper's engine: one flip_image walk per transition, one unit per
/// transition, no relations. Works on any encoding (primed or not).
class CofactorEngine final : public ImageEngine {
 public:
  explicit CofactorEngine(SymbolicStg& sym) : ImageEngine(sym) {}

  const char* name() const override { return "cofactor"; }
  EngineKind kind() const override { return EngineKind::kCofactor; }

  /// SymbolicStg::fresh_image of transition u: the successor set is never
  /// built.
  bdd::Bdd fresh_unit(const bdd::Bdd& states, std::size_t u,
                      const bdd::Bdd& known) override;
};

/// The textbook baseline: full-frame per-transition relations ORed into
/// one monolithic relation; one rel_next over every state variable per
/// step. Requires an encoding with primed variables.
class MonolithicRelationEngine final : public ImageEngine {
 public:
  explicit MonolithicRelationEngine(SymbolicStg& sym);

  const char* name() const override { return "monolithic"; }
  EngineKind kind() const override { return EngineKind::kMonolithicRelation; }

  std::size_t unit_count() const override { return 1; }
  std::span<const pn::TransitionId> unit_transitions(std::size_t) const override {
    return transitions_;
  }
  /// Successors of `states` under every transition:
  /// rel_next(states, T, state_cube), which quantifies every state
  /// variable and renames every twin back in one recursion.
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

 private:
  bdd::Bdd monolithic_;
};

/// Builds the requested backend. The relational backends throw ModelError
/// unless `sym` was built with primed variables.
std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& options = {});

}  // namespace stgcheck::core
