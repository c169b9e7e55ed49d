#include "core/image_engine.hpp"

#include <algorithm>

#include "core/saturation.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

namespace {

/// The single source for parse_engine_kind and valid_engine_kind_names.
constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kCofactor,
    EngineKind::kMonolithicRelation,
    EngineKind::kPartitionedRelation,
    EngineKind::kSaturation,
};

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCofactor: return "cofactor";
    case EngineKind::kMonolithicRelation: return "monolithic";
    case EngineKind::kPartitionedRelation: return "partitioned";
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

namespace {

constexpr TemplateMode kAllTemplateModes[] = {
    TemplateMode::kOff,
    TemplateMode::kOn,
    TemplateMode::kAuto,
};

}  // namespace

const char* to_string(TemplateMode mode) {
  switch (mode) {
    case TemplateMode::kOff: return "off";
    case TemplateMode::kOn: return "on";
    case TemplateMode::kAuto: return "auto";
  }
  return "?";
}

std::optional<TemplateMode> parse_template_mode(std::string_view name) {
  for (const TemplateMode mode : kAllTemplateModes) {
    if (names_equal_dashed(name, to_string(mode))) return mode;
  }
  return std::nullopt;
}

std::string valid_template_mode_names() {
  std::string names;
  for (const TemplateMode mode : kAllTemplateModes) {
    if (!names.empty()) names += ", ";
    names += to_string(mode);
  }
  return names;
}

// ---------------------------------------------------------------------------
// The delta_N pipeline
// ---------------------------------------------------------------------------

namespace {

/// BDD operations mutate only the manager's caches; the encoding itself is
/// logically const. (SymbolicStg::image was a const member for the same
/// reason.)
bdd::Manager& mgr(const SymbolicStg& sym) {
  return const_cast<SymbolicStg&>(sym).manager();
}

/// OR of the place literals a firing of `t` produces into without
/// consuming from: the states where those are already marked are exactly
/// the safeness violations of `t`.
Bdd marked_successor_cube(const SymbolicStg& sym, pn::TransitionId t) {
  bdd::Manager& m = mgr(sym);
  const pn::PetriNet& net = sym.stg().net();
  const std::vector<pn::PlaceId>& pre = net.preset(t);
  Bdd marked = m.bdd_false();
  for (pn::PlaceId p : net.postset(t)) {
    if (std::find(pre.begin(), pre.end(), p) != pre.end()) continue;
    marked |= m.var(sym.place_var(p));
  }
  return marked;
}

/// Keep the consistent half of `set` and flip the fired signal's bit.
/// States with the signal already at its post-transition value would be
/// inconsistent firings; the consistency check reports them, the image
/// simply never creates them (Sec. 5.1).
Bdd signal_flip_forward(const SymbolicStg& sym, const Bdd& set,
                        pn::TransitionId t) {
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (label.is_dummy()) return set;
  bdd::Manager& m = mgr(sym);
  const Bdd sig = m.var(sym.signal_var(label.signal));
  if (label.dir == stg::Dir::kPlus) {
    return m.cofactor(set, !sig) & sig;
  }
  return m.cofactor(set, sig) & !sig;
}

/// The scheduled relational products both relational engines share: the
/// image conjoins {states} with the factor list through the n-ary kernel,
/// quantifies the support and renames the primed twins back; the preimage
/// renames into the primed frame first and quantifies the twins.
Bdd multi_product_image(SymbolicStg& sym, const Bdd& states,
                        const std::vector<Bdd>& factors,
                        const Bdd& quant_cube) {
  bdd::Manager& m = sym.manager();
  std::vector<Bdd> ops;
  ops.reserve(factors.size() + 1);
  ops.push_back(states);
  ops.insert(ops.end(), factors.begin(), factors.end());
  const Bdd next_primed = m.and_exists_multi(ops, quant_cube);
  return m.permute(next_primed, sym.from_primed());
}

Bdd multi_product_preimage(SymbolicStg& sym, const Bdd& states,
                           const std::vector<Bdd>& factors,
                           const std::vector<Var>& rename_to_primed,
                           const Bdd& primed_quant_cube) {
  bdd::Manager& m = sym.manager();
  std::vector<Bdd> ops;
  ops.reserve(factors.size() + 1);
  ops.push_back(m.permute(states, rename_to_primed));
  ops.insert(ops.end(), factors.begin(), factors.end());
  return m.and_exists_multi(ops, primed_quant_cube);
}

}  // namespace

Bdd cofactor_image(const SymbolicStg& sym, const Bdd& states,
                   pn::TransitionId t, Bdd* unsafe_out) {
  // The paper's pipeline: select the enabled part and drop the preset
  // variables (cofactor by E(t)), set the preset to empty, check/cofactor
  // the postset empty, then set the postset full.
  bdd::Manager& m = mgr(sym);
  if (unsafe_out != nullptr) {
    *unsafe_out = states & sym.enabling_cube(t) & marked_successor_cube(sym, t);
  }
  Bdd step = m.cofactor(states, sym.enabling_cube(t));
  step &= sym.npm_cube(t);
  step = m.cofactor(step, sym.nsm_cube(t));
  step &= sym.asm_cube(t);
  if (step.is_false()) return step;
  return signal_flip_forward(sym, step, t);
}

Bdd cofactor_preimage(const SymbolicStg& sym, const Bdd& states,
                      pn::TransitionId t) {
  // The exact inverse: swap the roles of the four cubes and flip the
  // signal the other way.
  bdd::Manager& m = mgr(sym);
  Bdd step = m.cofactor(states, sym.asm_cube(t));
  step &= sym.nsm_cube(t);
  step = m.cofactor(step, sym.npm_cube(t));
  step &= sym.enabling_cube(t);
  if (step.is_false()) return step;
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (label.is_dummy()) return step;
  const Bdd sig = m.var(sym.signal_var(label.signal));
  if (label.dir == stg::Dir::kPlus) {
    return m.cofactor(step, sig) & !sig;  // a was 0 before a+
  }
  return m.cofactor(step, !sig) & sig;  // a was 1 before a-
}

// ---------------------------------------------------------------------------
// ImageEngine base
// ---------------------------------------------------------------------------

ImageEngine::ImageEngine(SymbolicStg& sym)
    : sym_(sym),
      unsafe_guard_(sym.stg().net().transition_count()),
      fire_guard_(sym.stg().net().transition_count()),
      firing_cube_(sym.stg().net().transition_count()),
      order_epoch_(sym.manager().reorder_epoch()) {}

void ImageEngine::sync_with_order() {
  const std::size_t epoch = sym_.manager().reorder_epoch();
  if (epoch != order_epoch_) {
    order_epoch_ = epoch;
    on_reorder();
  }
}

ImageEngine::StepGauge::StepGauge(ImageEngine& engine) : engine_(engine) {
  outermost_ = engine_.gauge_depth_++ == 0;
  if (outermost_) {
    bdd::Manager& m = engine_.sym_.manager();
    live_before_ = m.live_nodes();
    m.reset_peak_window();
  }
}

ImageEngine::StepGauge::~StepGauge() {
  --engine_.gauge_depth_;
  if (!outermost_) return;
  const std::size_t peak = engine_.sym_.manager().window_peak_live();
  if (peak > live_before_) {
    engine_.stats_.peak_intermediate_nodes =
        std::max(engine_.stats_.peak_intermediate_nodes, peak - live_before_);
  }
}

Bdd ImageEngine::image(const Bdd& states) {
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  for (std::size_t u = 0; u < unit_count(); ++u) {
    result |= image_unit(states, u);
  }
  return result;
}

Bdd ImageEngine::preimage(const Bdd& states) {
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  const pn::PetriNet& net = sym_.stg().net();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    result |= preimage_via(states, t);
  }
  return result;
}

Bdd ImageEngine::reach_fixpoint(const Bdd&) {
  throw ModelError(std::string(name()) +
                   " engine does not compute whole-space fixpoints "
                   "(computes_global_fixpoint() is false)");
}

Bdd ImageEngine::unsafe_states(const Bdd& states, pn::TransitionId t) {
  Bdd& guard = unsafe_guard_[t];
  if (!guard.valid()) {
    guard = sym_.enabling_cube(t) & marked_successor_cube(sym_, t);
  }
  // The usual answer is "none": decide that without building anything.
  if (states.disjoint_with(guard)) return sym_.manager().bdd_false();
  return states & guard;
}

const Bdd& ImageEngine::fire_guard(pn::TransitionId t) {
  Bdd& guard = fire_guard_[t];
  if (!guard.valid()) {
    // The three selections of cofactor_image (E(t), NSM after the preset
    // is emptied, the signal flip) and of the relations' core constraints.
    guard = sym_.enabling_cube(t).minus(marked_successor_cube(sym_, t));
    const stg::TransitionLabel& label = sym_.stg().label(t);
    if (!label.is_dummy()) {
      const Bdd sig = sym_.signal(label.signal);
      guard &= label.dir == stg::Dir::kPlus ? !sig : sig;
    }
  }
  return guard;
}

Bdd ImageEngine::after_firing(const Bdd& predicate, pn::TransitionId t) {
  Bdd& cube = firing_cube_[t];
  if (!cube.valid()) {
    // The assignment cofactor_image leaves: postset full (ASM), preset
    // empty (NPM) except for places the firing also produces into.
    bdd::Manager& m = sym_.manager();
    cube = sym_.asm_cube(t) & m.exists(sym_.npm_cube(t), sym_.asm_cube(t));
    const stg::TransitionLabel& label = sym_.stg().label(t);
    if (!label.is_dummy()) {
      const Bdd sig = sym_.signal(label.signal);
      cube &= label.dir == stg::Dir::kPlus ? sig : !sig;
    }
  }
  return sym_.manager().cofactor(predicate, cube);
}

// ---------------------------------------------------------------------------
// CofactorEngine
// ---------------------------------------------------------------------------

CofactorEngine::CofactorEngine(SymbolicStg& sym) : ImageEngine(sym) {
  const std::size_t n = sym.stg().net().transition_count();
  units_.reserve(n);
  for (pn::TransitionId t = 0; t < n; ++t) {
    units_.push_back({t});
  }
  stats_.units = n;
}

Bdd CofactorEngine::image_via(const Bdd& states, pn::TransitionId t) {
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return cofactor_image(sym_, states, t);
}

Bdd CofactorEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  return cofactor_preimage(sym_, states, t);
}

Bdd CofactorEngine::image_unit(const Bdd& states, std::size_t u) {
  return image_via(states, units_[u][0]);
}

// ---------------------------------------------------------------------------
// MonolithicRelationEngine
// ---------------------------------------------------------------------------

MonolithicRelationEngine::MonolithicRelationEngine(SymbolicStg& sym,
                                                   const EngineOptions& options)
    : ImageEngine(sym), schedule_kind_(options.schedule) {
  const pn::PetriNet& net = sym.stg().net();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    all_transitions_.push_back(t);
  }
  stats_.units = 1;
  if (schedule_kind_ != ScheduleKind::kNone) {
    // Scheduled: neither the full relations nor the monolithic OR are ever
    // built. Sparse relations are clustered by support, the clusters
    // ordered by the schedule, and each step products them through the
    // n-ary kernel.
    sparse_.reserve(net.transition_count());
    for (pn::TransitionId t : all_transitions_) {
      sparse_.push_back(build_sparse_relation(sym, t));
    }
    if (schedule_kind_ == ScheduleKind::kBoundedLookahead) {
      // Self-tuning: predict the peak of OR-accumulating the full-frame
      // relations from the sparse node counts. Each full relation is its
      // sparse core plus a frame chain over the untouched (v, v') pairs
      // (~3 nodes per pair), and partial disjunctions of near-disjoint
      // frames overshoot the operand total by roughly an order of
      // magnitude -- measured on the bench families the x10 estimate
      // lands within 2x of the real peak (mread8 72k vs 80k, mutex12
      // 103k vs 149k) while select24's genuine blowup (1.4M vs 6.0M) is
      // far past any threshold. When the prediction is small (mread8),
      // the relation is cheap to build and one big product per step
      // beats per-cluster renames, so drop to the unscheduled path. The
      // prediction runs *before* clustering: a fallen-back engine must
      // not pay the clustered build's padded-disjunction transient.
      const std::size_t pairs = sym.manager().var_count() / 2;
      std::size_t operand_total = 0;
      for (const TransitionRelation& r : sparse_) {
        operand_total += sym.manager().count_nodes(r.rel) +
                         3 * (pairs - r.support.size());
      }
      predicted_peak_ = 10 * operand_total;
      if (options.monolithic_fallback_nodes > 0 &&
          predicted_peak_ < options.monolithic_fallback_nodes) {
        fell_back_ = true;
        schedule_kind_ = ScheduleKind::kNone;
      }
    }
  }
  if (schedule_kind_ != ScheduleKind::kNone) {
    sparse_apply_.resize(net.transition_count());
    clusters_ = cluster_relations(sym, sparse_, options.cluster_node_cap);
  }
  if (schedule_kind_ == ScheduleKind::kNone) {
    relations_.reserve(net.transition_count());
    monolithic_ = sym.manager().bdd_false();
    for (pn::TransitionId t : all_transitions_) {
      // A fallen-back engine already built the sparse relations for its
      // prediction; frame them instead of rebuilding from the net.
      relations_.push_back(fell_back_
                               ? build_full_relation(sym, sparse_[t])
                               : build_full_relation(sym, t));
      monolithic_ |= relations_.back();
    }
    sparse_.clear();
    stats_.relation_nodes = sym.manager().count_nodes(monolithic_);
    return;
  }
  std::vector<std::vector<Var>> supports;
  supports.reserve(clusters_.size());
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) {
    supports.push_back(c.support);
    rels.push_back(c.rel);
    stats_.scheduled_conjuncts += c.factors.size();
  }
  schedule_ = ConjunctSchedule::disjunctive(supports, schedule_kind_);
  stats_.relation_nodes = sym.manager().count_nodes(rels);
}

const Bdd& MonolithicRelationEngine::relation(pn::TransitionId t) const {
  if (schedule_kind_ != ScheduleKind::kNone) {
    throw ModelError("the scheduled monolithic engine never materializes "
                     "full per-transition relations");
  }
  return relations_[t];
}

const Bdd& MonolithicRelationEngine::monolithic() const {
  if (schedule_kind_ != ScheduleKind::kNone) {
    throw ModelError("the scheduled monolithic engine never materializes "
                     "the monolithic relation");
  }
  return monolithic_;
}

void MonolithicRelationEngine::on_reorder() {
  // The relation handles survive a reorder (sifting rewrites nodes in
  // place), but their node counts -- reported by the benches -- do not.
  if (schedule_kind_ == ScheduleKind::kNone) {
    stats_.relation_nodes = sym_.manager().count_nodes(monolithic_);
    return;
  }
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) rels.push_back(c.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

Bdd MonolithicRelationEngine::apply(const Bdd& states, const Bdd& relation) {
  bdd::Manager& m = sym_.manager();
  const Bdd next_primed = m.and_exists(states, relation, sym_.state_cube());
  return m.permute(next_primed, sym_.from_primed());
}

Bdd MonolithicRelationEngine::scheduled_image(const Bdd& states) {
  // One monolithic step, but the product runs cluster by cluster in
  // schedule order: each position quantifies exactly its own support
  // through the n-ary kernel, so the big accumulate-then-quantify
  // intermediate of and_exists(S, T, V) never exists. Variables outside a
  // cluster's support flow through `states` untouched -- the frame the
  // full relations encoded explicitly, for free.
  Bdd result = sym_.manager().bdd_false();
  for (const ConjunctSchedule::Position& pos : schedule_.positions) {
    const RelationCluster& c = clusters_[pos.conjunct];
    result |= multi_product_image(sym_, states, c.factors, c.quant_cube);
  }
  return result;
}

Bdd MonolithicRelationEngine::scheduled_preimage(const Bdd& states) {
  Bdd result = sym_.manager().bdd_false();
  for (const ConjunctSchedule::Position& pos : schedule_.positions) {
    const RelationCluster& c = clusters_[pos.conjunct];
    result |= multi_product_preimage(sym_, states, c.factors,
                                     c.rename_to_primed, c.primed_quant_cube);
  }
  return result;
}

const SparseApplyData& MonolithicRelationEngine::sparse_apply(
    pn::TransitionId t) {
  SparseApplyData& a = sparse_apply_[t];
  if (!a.built) a = build_sparse_apply(sym_, sparse_[t].support);
  return a;
}

Bdd MonolithicRelationEngine::image(const Bdd& states) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  if (schedule_kind_ != ScheduleKind::kNone) return scheduled_image(states);
  return apply(states, monolithic_);
}

Bdd MonolithicRelationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  if (schedule_kind_ != ScheduleKind::kNone) {
    return multi_product_image(sym_, states, sparse_[t].factors,
                               sparse_apply(t).quant_cube);
  }
  return apply(states, relations_[t]);
}

Bdd MonolithicRelationEngine::preimage(const Bdd& states) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  if (schedule_kind_ != ScheduleKind::kNone) return scheduled_preimage(states);
  bdd::Manager& m = sym_.manager();
  const Bdd primed_states = m.permute(states, sym_.to_primed());
  return m.and_exists(primed_states, monolithic_, sym_.primed_cube());
}

Bdd MonolithicRelationEngine::preimage_via(const Bdd& states,
                                           pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  if (schedule_kind_ != ScheduleKind::kNone) {
    const SparseApplyData& a = sparse_apply(t);
    return multi_product_preimage(sym_, states, sparse_[t].factors,
                                  a.rename_to_primed, a.primed_quant_cube);
  }
  bdd::Manager& m = sym_.manager();
  const Bdd primed_states = m.permute(states, sym_.to_primed());
  return m.and_exists(primed_states, relations_[t], sym_.primed_cube());
}

Bdd MonolithicRelationEngine::image_unit(const Bdd& states, std::size_t) {
  return image(states);
}

// ---------------------------------------------------------------------------
// PartitionedRelationEngine
// ---------------------------------------------------------------------------

PartitionedRelationEngine::PartitionedRelationEngine(SymbolicStg& sym,
                                                     const EngineOptions& options)
    : ImageEngine(sym),
      cap_(options.cluster_node_cap),
      schedule_kind_(options.schedule) {
  const pn::PetriNet& net = sym.stg().net();
  sparse_.reserve(net.transition_count());
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    sparse_.push_back(build_sparse_relation(sym, t));
  }
  sparse_apply_.resize(net.transition_count());
  clusters_ = cluster_relations(sym, sparse_, cap_);
  std::vector<std::vector<Var>> supports;
  supports.reserve(clusters_.size());
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) {
    supports.push_back(c.support);
    rels.push_back(c.rel);
    if (schedule_kind_ != ScheduleKind::kNone) {
      stats_.scheduled_conjuncts += c.factors.size();
    }
  }
  schedule_ = ConjunctSchedule::disjunctive(supports, schedule_kind_);
  stats_.units = clusters_.size();
  stats_.relation_nodes = sym.manager().count_nodes(rels);
}

Bdd PartitionedRelationEngine::apply_cluster(const Bdd& states,
                                             const RelationCluster& c) {
  // Early quantification: only the variables the cluster constrains are
  // quantified; everything else flows through `states` untouched, which is
  // the frame condition for free. Scheduled runs hand the factor list to
  // the n-ary kernel; unscheduled runs keep the classic binary product.
  if (schedule_kind_ != ScheduleKind::kNone) {
    return multi_product_image(sym_, states, c.factors, c.quant_cube);
  }
  bdd::Manager& m = sym_.manager();
  const Bdd next_primed = m.and_exists(states, c.rel, c.quant_cube);
  return m.permute(next_primed, sym_.from_primed());
}

void PartitionedRelationEngine::on_reorder() {
  std::vector<Bdd> rels;
  rels.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) rels.push_back(c.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

Bdd PartitionedRelationEngine::image_unit(const Bdd& states, std::size_t u) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return apply_cluster(states, clusters_[unit_cluster(u)]);
}

const SparseApplyData& PartitionedRelationEngine::sparse_apply(
    pn::TransitionId t) {
  SparseApplyData& a = sparse_apply_[t];
  if (!a.built) a = build_sparse_apply(sym_, sparse_[t].support);
  return a;
}

Bdd PartitionedRelationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const Bdd next_primed =
      m.and_exists(states, sparse_[t].rel, sparse_apply(t).quant_cube);
  return m.permute(next_primed, sym_.from_primed());
}

Bdd PartitionedRelationEngine::preimage_via(const Bdd& states,
                                            pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const SparseApplyData& a = sparse_apply(t);
  const Bdd primed_states = m.permute(states, a.rename_to_primed);
  return m.and_exists(primed_states, sparse_[t].rel, a.primed_quant_cube);
}

Bdd PartitionedRelationEngine::preimage(const Bdd& states) {
  sync_with_order();
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  bdd::Manager& m = sym_.manager();
  for (const ConjunctSchedule::Position& pos : schedule_.positions) {
    const RelationCluster& c = clusters_[pos.conjunct];
    ++stats_.preimage_calls;
    if (schedule_kind_ != ScheduleKind::kNone) {
      result |= multi_product_preimage(sym_, states, c.factors,
                                       c.rename_to_primed, c.primed_quant_cube);
    } else {
      const Bdd primed_states = m.permute(states, c.rename_to_primed);
      result |= m.and_exists(primed_states, c.rel, c.primed_quant_cube);
    }
  }
  return result;
}

std::size_t PartitionedRelationEngine::cluster_nodes(std::size_t c) const {
  return sym_.manager().count_nodes(clusters_[c].rel);
}

std::vector<std::vector<Var>> PartitionedRelationEngine::quantification_schedule()
    const {
  // Cluster-index order, independent of the firing order: for a
  // disjunctive partition each position quantifies exactly its own
  // support, which is what the ConjunctSchedule's positions record.
  std::vector<std::vector<Var>> schedule(clusters_.size());
  for (const ConjunctSchedule::Position& pos : schedule_.positions) {
    schedule[pos.conjunct] = pos.quantify;
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kCofactor:
      return std::make_unique<CofactorEngine>(sym);
    case EngineKind::kMonolithicRelation:
      return std::make_unique<MonolithicRelationEngine>(sym, options);
    case EngineKind::kPartitionedRelation:
      return std::make_unique<PartitionedRelationEngine>(sym, options);
    case EngineKind::kSaturation:
      return std::make_unique<SaturationEngine>(sym, options);
  }
  throw ModelError("unknown engine kind");
}

}  // namespace stgcheck::core
