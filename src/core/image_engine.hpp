// The traversal layer: one engine class over three image backends.
//
// An ImageEngine computes the reached set and nothing else: traverse()
// (core/traversal.hpp) drives it unit by unit, or in one call under
// saturation. Everything after the traversal -- the implementability
// checks, witnesses, the CSC-reducibility closure -- works on the
// encoding alone, through SymbolicStg's cofactor image and fire guards.
// That keeps the paper's central claim (the per-transition cofactor image
// beats transition relations) a selectable, benchmarkable choice for the
// traversal. The engine's EngineKind picks the backend:
//
//   * kCofactor           -- the paper's delta_N (Sec. 4) as one
//                            flip_image walk per transition, fired
//                            straight into the unreached states
//                            (SymbolicStg::fresh_image); no relation is
//                            ever built.
//   * kMonolithicRelation -- the textbook baseline: one relation
//                            T(V, V') = OR_t T_t, applied by one twin-pair
//                            product (rel_next) per step.
//   * kSaturation         -- the in-kernel fixpoint (Manager::reach, after
//                            Brand-Baeck-Laarman, arXiv:2212.03684) over
//                            one sparse relation per transition.
//                            traverse() replaces its pass loop with one
//                            reach_fixpoint call.
//
// traverse() fires "units": unit u is transition u, except under the
// monolithic relation, whose one unit fires every transition. Chaining
// asks a unit only for the states it adds (fresh_unit), and it and lazy
// binding run unchanged on every kind.
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
                        ///< sparse relations (core/relation.hpp)
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
  std::size_t image_calls = 0;     ///< fresh_unit / reach_fixpoint calls
  std::size_t relation_nodes = 0;  ///< BDD size of the relations built at
                                   ///< construction (0 for cofactor)
};

/// The traversal substrate over one SymbolicStg encoding.
class ImageEngine {
 public:
  /// Builds what `kind` needs: nothing for cofactor, the monolithic
  /// relation, or one REACH rule per transition for saturation. The
  /// relational kinds throw ModelError unless `sym` was built with
  /// primed variables.
  ImageEngine(EngineKind kind, SymbolicStg& sym);

  EngineKind kind() const { return kind_; }

  /// Firing units: one per transition, or one for every transition under
  /// the monolithic relation.
  std::size_t unit_count() const;
  /// The transitions unit `u` fires (for lazy binding in the traversal).
  std::span<const pn::TransitionId> unit_transitions(std::size_t u) const;
  /// The successors of `states` under every transition of unit `u`, minus
  /// `known`: the fresh states a chained firing adds. The cofactor kind
  /// fires into the complement of `known` in one walk; the relational
  /// kinds build the image by rel_next and subtract.
  bdd::Bdd fresh_unit(const bdd::Bdd& states, std::size_t u,
                      const bdd::Bdd& known);

  /// The least fixpoint of `from` under every transition, in one kernel
  /// reach() call. Saturation only; the other kinds throw ModelError.
  /// traverse() calls it only when no lazy initial-value binding remains
  /// after the initial state (binding needs the order of first
  /// enablings, which a closed set has erased); a net with an undeclared,
  /// not-initially-enabled signal runs the step-wise unit loop instead.
  bdd::Bdd reach_fixpoint(const bdd::Bdd& from);

  SymbolicStg& sym() { return sym_; }
  const ImageEngineStats& stats() const { return stats_; }

 private:
  EngineKind kind_;
  SymbolicStg& sym_;
  ImageEngineStats stats_;
  /// Every transition id in order: the storage unit_transitions() views.
  std::vector<pn::TransitionId> transitions_;
  bdd::Bdd monolithic_;  ///< kMonolithicRelation: OR of the full relations
  /// kSaturation: one sparse relation per transition, in transition order
  /// (Manager::reach sorts its rules by top support level itself).
  std::vector<bdd::ReachRelation> rules_;
};

/// Builds the engine of `kind` on `sym` (see the constructor).
std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& options = {});

}  // namespace stgcheck::core
