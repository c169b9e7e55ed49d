// The pluggable image-computation layer: one interface, four backends.
//
// Everything above the encoding -- traversal, the implementability checks,
// the benches -- computes successor/predecessor sets through an
// ImageEngine, never through SymbolicStg directly. That makes the paper's
// central claim (the per-transition cofactor pipeline beats transition
// relations) a swappable, benchmarkable choice instead of a hard-wired
// code path, and it opens encodings the cofactor trick cannot express
// (k-bounded places, multi-token arcs) as future backends behind the same
// interface.
//
//   * CofactorEngine          -- the paper's delta_N pipeline (Sec. 4):
//                                four cube operations per transition, no
//                                relation ever built.
//   * MonolithicRelationEngine -- the textbook baseline: one relation
//                                T(V, V') = OR_t T_t. Without a schedule
//                                it is applied by a single relational
//                                product per step; with a schedule
//                                (EngineOptions::schedule != kNone) the
//                                monolithic BDD is never materialized --
//                                each step runs the support-ordered
//                                cluster list through the n-ary
//                                and_exists_multi kernel, so the
//                                accumulate-then-quantify intermediates of
//                                the single big product never exist.
//   * PartitionedRelationEngine -- the fair modern baseline: sparse
//                                per-transition relations clustered by
//                                shared support up to a node cap, each
//                                cluster applied with an early
//                                quantification cube covering exactly its
//                                own support (a ConjunctSchedule; see
//                                core/conjunct_schedule.hpp). Under the
//                                chaining strategy the clusters fire
//                                disjunctively in sequence, each from the
//                                set enriched by its predecessors.
//   * SaturationEngine         -- the in-kernel fixpoint (saturation.hpp):
//                                the same support-clustered sparse
//                                relations, partitioned by the level of
//                                their top support variable and handed to
//                                the kernel's REACH operation, which
//                                saturates low variables before high ones
//                                ever see a frontier. traverse() detects
//                                it (computes_global_fixpoint) and
//                                replaces its pass loop with whole-space
//                                reach_fixpoint calls.
//
// Traversal granularity is expressed as "units": the indivisible firing
// steps a backend offers. The cofactor backend has one unit per
// transition (the paper's Fig. 5 inner loop), the monolithic backend a
// single unit, the partitioned backend one unit per cluster. traverse()
// iterates units, so chaining, lazy initial-value binding and the on-the-
// fly safeness/consistency checks run unchanged on every backend.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/conjunct_schedule.hpp"
#include "core/encoding.hpp"
#include "core/relation.hpp"

namespace stgcheck::core {

/// Which backend computes images; TraversalOptions::engine selects one.
enum class EngineKind {
  kCofactor,            ///< the paper's delta_N pipeline
  kMonolithicRelation,  ///< one relation over (V, V')
  kPartitionedRelation, ///< support-clustered relations, early quantification
  kSaturation,          ///< in-kernel REACH fixpoint over level-partitioned
                        ///< clusters (core/saturation.hpp)
};

const char* to_string(EngineKind kind);

/// Parses an engine name as printed by to_string ('-' and '_' are
/// interchangeable, so the CLI spellings work too); nullopt for unknown
/// names.
std::optional<EngineKind> parse_engine_kind(std::string_view name);
/// Every valid engine name, comma-separated -- for CLI error messages.
std::string valid_engine_kind_names();

/// Whether the saturation backend shares one template body across
/// structurally isomorphic relations (core/relation.hpp,
/// detect_relation_templates) instead of retaining every instance's BDD.
enum class TemplateMode {
  kOff,   ///< classic path: every relation keeps its own BDD (default)
  kOn,    ///< always detect and share; harmless when nothing is isomorphic
  kAuto,  ///< detect, then share only if some group has >= 2 members --
          ///< otherwise drop back to the bit-identical classic path
};

const char* to_string(TemplateMode mode);
/// Parses 'off' / 'on' / 'auto'; nullopt for unknown names.
std::optional<TemplateMode> parse_template_mode(std::string_view name);
/// Every valid mode name, comma-separated -- for CLI error messages.
std::string valid_template_mode_names();

struct EngineOptions {
  /// Relational backends: stop growing a cluster once its relation BDD
  /// exceeds this many nodes. A single transition whose sparse relation is
  /// already larger stays a singleton cluster (a cap cannot split one
  /// transition).
  std::size_t cluster_node_cap = 2000;
  /// Conjunct scheduling for the relational backends
  /// (core/conjunct_schedule.hpp). kNone keeps the classic pipelines (the
  /// monolithic engine materializes its OR, the partitioned engine fires
  /// clusters in construction order with binary products); any other kind
  /// orders the cluster list by support overlap and drives every
  /// relational product through the n-ary and_exists_multi kernel, and the
  /// monolithic engine stops materializing its relation entirely. The
  /// cofactor backend ignores this (it has no relations to schedule).
  ScheduleKind schedule = ScheduleKind::kNone;
  /// Self-tuning fallback for the monolithic engine under
  /// ScheduleKind::kBoundedLookahead: the engine predicts the peak of
  /// materializing its monolithic relation from the sparse relation node
  /// counts (each full-frame operand is its sparse core plus ~3 nodes per
  /// untouched twin pair; the OR-accumulation overshoots the operand
  /// total by roughly 10x on the bench families) and, when the prediction
  /// is below this many nodes, falls back to the unscheduled path: the
  /// relation is cheap to build and one big product per step beats
  /// per-cluster renames (mread8: 251k vs 301k peak live). The default
  /// sits between mread8's 72k prediction (falls back, measured peak 80k)
  /// and mutex12's 103k (stays scheduled, measured peak 149k). 0 disables
  /// the fallback; other schedule kinds never fall back.
  std::size_t monolithic_fallback_nodes = 90'000;
  /// Isomorphism-exploiting relation templates (saturation backend only;
  /// the other backends ignore it). kOff keeps the classic per-relation
  /// BDDs, bit-identical to every pre-template baseline.
  TemplateMode relation_templates = TemplateMode::kOff;
};

struct ImageEngineStats {
  std::size_t image_calls = 0;     ///< image / image_via / image_unit calls
  std::size_t preimage_calls = 0;
  std::size_t relation_nodes = 0;  ///< BDD size of the backend's relations (0 for cofactor)
  std::size_t units = 0;           ///< firing units the backend exposes
  /// Worst transient overhead of a single image/preimage step: the live-
  /// node high-water mark inside the step minus the live count entering
  /// it, maximized over all steps. This is where and_exists intermediates
  /// show up (the reached set and the relations are part of the entering
  /// count, so they do not pollute it).
  std::size_t peak_intermediate_nodes = 0;
  /// Total conjunct positions across the backend's schedules (the factor
  /// lists its scheduled image steps hand to the n-ary kernel); 0 when
  /// running unscheduled.
  std::size_t scheduled_conjuncts = 0;
  /// Relation-template sharing (saturation backend with
  /// EngineOptions::relation_templates enabled; 0 everywhere else).
  /// Isomorphism groups actually shared (>= 2 members each).
  std::size_t template_groups = 0;
  /// Relations served by a template body they do not own.
  std::size_t template_instances = 0;
  /// Estimated BDD nodes the per-instance construction would have
  /// retained beyond the shared bodies: sum over shared groups of
  /// (body nodes) x (members - 1), under the current variable order.
  std::size_t template_saved_nodes = 0;
};

/// Abstract image substrate over one SymbolicStg encoding.
class ImageEngine {
 public:
  virtual ~ImageEngine() = default;

  virtual const char* name() const = 0;
  virtual EngineKind kind() const = 0;

  /// Successors of `states` under every transition (one full step).
  virtual bdd::Bdd image(const bdd::Bdd& states);
  /// Predecessors of `states` under every transition.
  virtual bdd::Bdd preimage(const bdd::Bdd& states);
  /// Successors of `states` under one transition.
  virtual bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) = 0;
  /// Predecessors of `states` under one transition.
  virtual bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) = 0;

  // ---- Firing units (traversal granularity) -------------------------------

  virtual std::size_t unit_count() const = 0;
  /// The transitions unit `u` fires (for lazy binding and safeness
  /// attribution in the traversal).
  virtual const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const = 0;
  /// Successors of `states` under every transition of unit `u`.
  virtual bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) = 0;

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

  /// The conjunct schedule the backend is *effectively* running (kNone for
  /// backends without one, and for a scheduled engine that fell back --
  /// see EngineOptions::monolithic_fallback_nodes). The benches report
  /// this instead of the requested kind.
  virtual ScheduleKind schedule_kind() const { return ScheduleKind::kNone; }

  // ---- Shared helpers -----------------------------------------------------

  /// States of `states` from which firing `t` would deposit a second token
  /// on a successor place. Every backend excludes such firings from its
  /// image; this reports them so the traversal can flag the violation.
  bdd::Bdd unsafe_states(const bdd::Bdd& states, pn::TransitionId t);

  /// The states every backend fires `t` from: E(t), no successor-only
  /// place marked, and t's signal at its pre-firing value. Firings that
  /// would be unsafe or inconsistent are never imaged, on any backend.
  const bdd::Bdd& fire_guard(pn::TransitionId t);
  /// `predicate` read one firing of `t` ahead: the states whose successor
  /// under t satisfies it (the preset-only places fixed to 0, the postset
  /// to 1, t's signal to its post-firing value). So a state predicate P is
  /// tested against an image without computing it:
  ///   image_via(S, t) <= P  iff  S disjoint from fire_guard(t) & !after_firing(P, t)
  ///   image_via(S, t) & P   iff  S meets      fire_guard(t) &  after_firing(P, t)
  bdd::Bdd after_firing(const bdd::Bdd& predicate, pn::TransitionId t);

  SymbolicStg& sym() { return sym_; }
  const ImageEngineStats& stats() const { return stats_; }

 protected:
  explicit ImageEngine(SymbolicStg& sym);

  /// Call at the top of an image/preimage computation: when the manager's
  /// variable order changed since the last call (Manager::reorder_epoch),
  /// lets the backend refresh order-dependent metadata via on_reorder().
  /// The cached cubes and relation BDDs themselves survive a reorder --
  /// sifting rewrites nodes in place, preserving every external handle --
  /// but anything derived from the *shape* of the order (node-count
  /// statistics, level-sorted supports) goes stale.
  void sync_with_order();
  /// Backend hook invoked by sync_with_order() after a reorder.
  virtual void on_reorder() {}

  /// RAII gauge around one image/preimage step: rearms the manager's
  /// step-local live-node watermark on entry and folds (peak - live at
  /// entry) into stats_.peak_intermediate_nodes on exit. Nested gauges
  /// (image() looping image_unit()) measure once, at the outermost level.
  class StepGauge {
   public:
    explicit StepGauge(ImageEngine& engine);
    ~StepGauge();
    StepGauge(const StepGauge&) = delete;
    StepGauge& operator=(const StepGauge&) = delete;

   private:
    ImageEngine& engine_;
    bool outermost_;
    std::size_t live_before_ = 0;
  };

  SymbolicStg& sym_;
  ImageEngineStats stats_;

 private:
  std::size_t gauge_depth_ = 0;
  /// Lazily built per transition (invalid until first use): E(t) & (OR
  /// of strict-postset place literals), the states unsafe_states()
  /// intersects with.
  std::vector<bdd::Bdd> unsafe_guard_;
  /// Lazily built per transition, like unsafe_guard_: fire_guard() and the
  /// post-firing assignment cube after_firing() cofactors by.
  std::vector<bdd::Bdd> fire_guard_;
  std::vector<bdd::Bdd> firing_cube_;
  std::size_t order_epoch_;
};

// ---------------------------------------------------------------------------
// The delta_N pipeline (extracted out of SymbolicStg; SymbolicStg::image
// and ::preimage delegate here for compatibility).
// ---------------------------------------------------------------------------

/// delta_D(states, t): ((states_E(t) . NPM(t))_NSM(t) . ASM(t) plus the
/// fired signal's bit flip. If `unsafe_out` is non-null it receives the
/// subset of `states` from which firing t would violate safeness (those
/// states are excluded from the image).
bdd::Bdd cofactor_image(const SymbolicStg& sym, const bdd::Bdd& states,
                        pn::TransitionId t, bdd::Bdd* unsafe_out = nullptr);
/// Exact inverse of cofactor_image on consistently-encoded safe states.
bdd::Bdd cofactor_preimage(const SymbolicStg& sym, const bdd::Bdd& states,
                           pn::TransitionId t);

/// The paper's engine: per-transition cofactor pipeline, one unit per
/// transition, no relations. Works on any encoding (primed or not).
class CofactorEngine final : public ImageEngine {
 public:
  explicit CofactorEngine(SymbolicStg& sym);

  const char* name() const override { return "cofactor"; }
  EngineKind kind() const override { return EngineKind::kCofactor; }

  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  std::size_t unit_count() const override { return units_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return units_[u];
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

 private:
  std::vector<std::vector<pn::TransitionId>> units_;  // one transition each
};

/// The textbook baseline: full-frame per-transition relations ORed into
/// one monolithic relation; a single relational product per step. With a
/// schedule (EngineOptions::schedule != kNone) neither the full relations
/// nor the monolithic OR are ever materialized: the engine keeps sparse
/// relations clustered by support, orders the clusters with a
/// ConjunctSchedule, and each step runs every cluster's factor list
/// through the n-ary and_exists_multi kernel -- still one unit per step,
/// so traversal strategies see unchanged monolithic semantics. Requires an
/// encoding with primed variables.
class MonolithicRelationEngine final : public ImageEngine {
 public:
  explicit MonolithicRelationEngine(SymbolicStg& sym,
                                    const EngineOptions& options = {});

  const char* name() const override { return "monolithic"; }
  EngineKind kind() const override { return EngineKind::kMonolithicRelation; }

  bdd::Bdd image(const bdd::Bdd& states) override;
  bdd::Bdd preimage(const bdd::Bdd& states) override;
  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  std::size_t unit_count() const override { return 1; }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t) const override {
    return all_transitions_;
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  ScheduleKind schedule_kind() const override { return schedule_kind_; }
  /// Clusters behind the scheduled path (0 when unscheduled).
  std::size_t scheduled_cluster_count() const { return clusters_.size(); }
  /// True when kBoundedLookahead predicted a cheap monolithic construction
  /// and the engine dropped to the unscheduled path
  /// (EngineOptions::monolithic_fallback_nodes).
  bool schedule_fell_back() const { return fell_back_; }
  /// The construction-peak prediction the fallback decision used (0 when
  /// no prediction ran).
  std::size_t predicted_construction_peak() const { return predicted_peak_; }

  /// The full-frame relation of one transition. Only the unscheduled
  /// engine materializes these; throws ModelError otherwise.
  const bdd::Bdd& relation(pn::TransitionId t) const;
  /// The monolithic relation (disjunction over all transitions). Only the
  /// unscheduled engine materializes it; throws ModelError otherwise.
  const bdd::Bdd& monolithic() const;

 protected:
  void on_reorder() override;

 private:
  bdd::Bdd apply(const bdd::Bdd& states, const bdd::Bdd& relation);
  bdd::Bdd scheduled_image(const bdd::Bdd& states);
  bdd::Bdd scheduled_preimage(const bdd::Bdd& states);
  const SparseApplyData& sparse_apply(pn::TransitionId t);

  ScheduleKind schedule_kind_;
  bool fell_back_ = false;
  std::size_t predicted_peak_ = 0;
  std::vector<pn::TransitionId> all_transitions_;

  // Unscheduled path.
  std::vector<bdd::Bdd> relations_;
  bdd::Bdd monolithic_;

  // Scheduled path.
  std::vector<TransitionRelation> sparse_;   // indexed by transition
  std::vector<SparseApplyData> sparse_apply_;  // per transition, lazily built
  std::vector<RelationCluster> clusters_;
  ConjunctSchedule schedule_;  // cluster firing order + quant sets
};

/// Sparse per-transition relations clustered by shared support up to a
/// node cap; each cluster carries an early-quantification cube covering
/// exactly its own support, so untouched variables are never quantified
/// at all. With a schedule the clusters fire in support-overlap order and
/// every product goes through the n-ary kernel on the cluster's factor
/// list. Requires an encoding with primed variables.
class PartitionedRelationEngine final : public ImageEngine {
 public:
  PartitionedRelationEngine(SymbolicStg& sym, const EngineOptions& options = {});

  const char* name() const override { return "partitioned"; }
  EngineKind kind() const override { return EngineKind::kPartitionedRelation; }

  bdd::Bdd preimage(const bdd::Bdd& states) override;
  bdd::Bdd image_via(const bdd::Bdd& states, pn::TransitionId t) override;
  bdd::Bdd preimage_via(const bdd::Bdd& states, pn::TransitionId t) override;

  // Units follow the schedule's firing order (identity when unscheduled).
  std::size_t unit_count() const override { return clusters_.size(); }
  const std::vector<pn::TransitionId>& unit_transitions(std::size_t u) const override {
    return clusters_[unit_cluster(u)].transitions;
  }
  bdd::Bdd image_unit(const bdd::Bdd& states, std::size_t u) override;

  // ---- Introspection (tests, benches, docs) ------------------------------

  std::size_t cluster_count() const { return clusters_.size(); }
  const std::vector<pn::TransitionId>& cluster_transitions(std::size_t c) const {
    return clusters_[c].transitions;
  }
  /// BDD size of one cluster's relation.
  std::size_t cluster_nodes(std::size_t c) const;
  /// The quantification schedule: for each cluster (in cluster-index
  /// order), the unprimed state variables its image step quantifies (== the
  /// cluster's support, sorted by id). Every variable a transition touches
  /// is quantified in the cluster owning that transition and nowhere else
  /// -- the earliest legal point for a disjunctive partition. Derived from
  /// the engine's ConjunctSchedule.
  std::vector<std::vector<bdd::Var>> quantification_schedule() const;
  std::size_t cluster_node_cap() const { return cap_; }
  ScheduleKind schedule_kind() const override { return schedule_kind_; }
  /// The cluster firing order and per-position quantification sets.
  const ConjunctSchedule& schedule() const { return schedule_; }

 protected:
  void on_reorder() override;

 private:
  std::size_t unit_cluster(std::size_t u) const {
    return schedule_.positions[u].conjunct;
  }
  bdd::Bdd apply_cluster(const bdd::Bdd& states, const RelationCluster& c);

  std::size_t cap_;
  ScheduleKind schedule_kind_;
  std::vector<TransitionRelation> sparse_;       // indexed by transition
  std::vector<SparseApplyData> sparse_apply_;    // per transition, lazily built
  std::vector<RelationCluster> clusters_;
  ConjunctSchedule schedule_;  // cluster firing order + quant sets
  const SparseApplyData& sparse_apply(pn::TransitionId t);
};

/// Builds the requested backend. The relational backends throw ModelError
/// unless `sym` was built with primed variables.
std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& options = {});

/// Compatibility alias: the class previously living in core/relation.hpp.
using RelationalEngine = MonolithicRelationEngine;

}  // namespace stgcheck::core
