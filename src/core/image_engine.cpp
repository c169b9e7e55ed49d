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

MonolithicRelationEngine::MonolithicRelationEngine(SymbolicStg& sym)
    : ImageEngine(sym) {
  const pn::PetriNet& net = sym.stg().net();
  relations_.reserve(net.transition_count());
  monolithic_ = sym.manager().bdd_false();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    all_transitions_.push_back(t);
    relations_.push_back(build_full_relation(sym, t));
    monolithic_ |= relations_.back();
  }
  stats_.units = 1;
  stats_.relation_nodes = sym.manager().count_nodes(monolithic_);
}

void MonolithicRelationEngine::on_reorder() {
  // The relation handles survive a reorder (sifting rewrites nodes in
  // place), but their node counts -- reported by the benches -- do not.
  stats_.relation_nodes = sym_.manager().count_nodes(monolithic_);
}

Bdd MonolithicRelationEngine::apply(const Bdd& states, const Bdd& relation) {
  bdd::Manager& m = sym_.manager();
  const Bdd next_primed = m.and_exists(states, relation, sym_.state_cube());
  return m.permute(next_primed, sym_.from_primed());
}

Bdd MonolithicRelationEngine::image(const Bdd& states) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return apply(states, monolithic_);
}

Bdd MonolithicRelationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return apply(states, relations_[t]);
}

Bdd MonolithicRelationEngine::preimage(const Bdd& states) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  const Bdd primed_states = m.permute(states, sym_.to_primed());
  return m.and_exists(primed_states, monolithic_, sym_.primed_cube());
}

Bdd MonolithicRelationEngine::preimage_via(const Bdd& states,
                                           pn::TransitionId t) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
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
    : ImageEngine(sym), cap_(options.cluster_node_cap) {
  const pn::PetriNet& net = sym.stg().net();
  sparse_.reserve(net.transition_count());
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    sparse_.push_back(build_sparse_relation(sym, t));
  }
  sparse_apply_.resize(net.transition_count());
  clusters_ = cluster_relations(sym, sparse_, cap_);
  stats_.units = clusters_.size();
  on_reorder();
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
  // Early quantification: only the variables the cluster constrains are
  // quantified; everything else flows through `states` untouched, which is
  // the frame condition for free.
  const RelationCluster& c = clusters_[u];
  bdd::Manager& m = sym_.manager();
  const Bdd next_primed = m.and_exists(states, c.rel, c.quant_cube);
  return m.permute(next_primed, sym_.from_primed());
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
  for (const RelationCluster& c : clusters_) {
    ++stats_.preimage_calls;
    const Bdd primed_states = m.permute(states, c.rename_to_primed);
    result |= m.and_exists(primed_states, c.rel, c.primed_quant_cube);
  }
  return result;
}

std::size_t PartitionedRelationEngine::cluster_nodes(std::size_t c) const {
  return sym_.manager().count_nodes(clusters_[c].rel);
}

std::vector<std::vector<Var>> PartitionedRelationEngine::quantification_schedule()
    const {
  std::vector<std::vector<Var>> schedule;
  schedule.reserve(clusters_.size());
  for (const RelationCluster& c : clusters_) schedule.push_back(c.support);
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
      return std::make_unique<MonolithicRelationEngine>(sym);
    case EngineKind::kPartitionedRelation:
      return std::make_unique<PartitionedRelationEngine>(sym, options);
    case EngineKind::kSaturation:
      return std::make_unique<SaturationEngine>(sym, options);
  }
  throw ModelError("unknown engine kind");
}

}  // namespace stgcheck::core
