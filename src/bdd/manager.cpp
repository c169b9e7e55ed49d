// Manager core: node allocation, unique table, reference counting and
// garbage collection. The operation recursions live in ops.cpp, analysis
// helpers in analysis.cpp, reordering in sift.cpp and ISOP in isop.cpp.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace stgcheck::bdd {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* manager, NodeRef ref) : manager_(manager), ref_(ref) {
  if (manager_ != nullptr) manager_->inc_ref(ref_);
}

Bdd::Bdd(const Bdd& other) : manager_(other.manager_), ref_(other.ref_) {
  if (manager_ != nullptr) manager_->inc_ref(ref_);
}

Bdd::Bdd(Bdd&& other) noexcept : manager_(other.manager_), ref_(other.ref_) {
  other.manager_ = nullptr;
  other.ref_ = kInvalidRef;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.manager_ != nullptr) other.manager_->inc_ref(other.ref_);
  if (manager_ != nullptr) manager_->dec_ref(ref_);
  manager_ = other.manager_;
  ref_ = other.ref_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (manager_ != nullptr) manager_->dec_ref(ref_);
  manager_ = other.manager_;
  ref_ = other.ref_;
  other.manager_ = nullptr;
  other.ref_ = kInvalidRef;
  return *this;
}

Bdd::~Bdd() {
  if (manager_ != nullptr) manager_->dec_ref(ref_);
}

Bdd Bdd::operator&(const Bdd& other) const {
  return manager_->apply_and(*this, other);
}
Bdd Bdd::operator|(const Bdd& other) const {
  return manager_->apply_or(*this, other);
}
Bdd Bdd::operator^(const Bdd& other) const {
  return manager_->apply_xor(*this, other);
}
Bdd Bdd::operator!() const { return manager_->apply_not(*this); }

Bdd& Bdd::operator&=(const Bdd& other) { return *this = *this & other; }
Bdd& Bdd::operator|=(const Bdd& other) { return *this = *this | other; }
Bdd& Bdd::operator^=(const Bdd& other) { return *this = *this ^ other; }

Bdd Bdd::minus(const Bdd& other) const {
  return manager_->apply_and(*this, manager_->apply_not(other));
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Manager::Manager(std::size_t initial_capacity) {
  const std::size_t cap = std::max<std::size_t>(initial_capacity, 1024);
  ensure_chunks(static_cast<std::uint32_t>(
      std::min<std::size_t>(cap, kMaxChunks * kChunkCapacity)));

  // The single terminal (constant 1) occupies index 0 and is permanently
  // referenced; constant 0 is the complemented edge to it.
  nodes_size_ = 1;
  node_at(0) = Node{kInvalidVar, kTrue, kTrue, kNilIndex, 1, 0};

  buckets_.assign(round_up_pow2(cap), kNilIndex);
  bucket_mask_ = buckets_.size() - 1;

  cache_.assign(round_up_pow2(cap / 2), CacheEntry{});
  cache_mask_ = cache_.size() - 1;
}

Manager::~Manager() = default;

void Manager::ensure_chunks(std::uint32_t needed) {
  const std::size_t want =
      (static_cast<std::size_t>(needed) + kChunkCapacity - 1) >> kChunkBits;
  while (chunks_.size() < want) {
    if (chunks_.size() >= kMaxChunks) {
      throw ModelError("BDD node table exhausted");
    }
    // Default-initialized: a slot is written before it is first read, and
    // untouched pages of a fresh chunk stay out of the resident set.
    chunks_.push_back(std::unique_ptr<Node[]>(new Node[kChunkCapacity]));
  }
}

// ---------------------------------------------------------------------------
// Variables
// ---------------------------------------------------------------------------

Bdd Manager::new_var(const std::string& name) {
  const Var v = static_cast<Var>(var2level_.size());
  var2level_.push_back(level2var_.size());
  level2var_.push_back(v);
  var_names_.push_back(name.empty() ? "x" + std::to_string(v) : name);
  var_group_.push_back(kNoGroup);
  return var(v);
}

Bdd Manager::var(Var v) {
  if (v >= var2level_.size()) throw ModelError("unknown BDD variable");
  return make_handle(mk(v, kFalse, kTrue));
}

Bdd Manager::nvar(Var v) {
  if (v >= var2level_.size()) throw ModelError("unknown BDD variable");
  // Shares the projection node: only the edge differs.
  return make_handle(bdd_not(mk(v, kFalse, kTrue)));
}

const std::string& Manager::var_name(Var v) const { return var_names_.at(v); }

// ---------------------------------------------------------------------------
// Cubes
// ---------------------------------------------------------------------------

Bdd Manager::cube(const CubeLiterals& literals) {
  // Build bottom-up in level order so each mk call is O(1).
  std::vector<Literal> sorted = literals;
  std::sort(sorted.begin(), sorted.end(), [this](const Literal& a, const Literal& b) {
    return var2level_[a.var] < var2level_[b.var];
  });
  // Detect contradictory duplicates; collapse consistent ones.
  std::vector<Literal> unique_lits;
  unique_lits.reserve(sorted.size());
  for (const Literal& l : sorted) {
    if (!unique_lits.empty() && unique_lits.back().var == l.var) {
      if (unique_lits.back().positive != l.positive) return bdd_false();
      continue;
    }
    unique_lits.push_back(l);
  }
  sorted = std::move(unique_lits);
  NodeRef acc = kTrue;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    acc = it->positive ? mk(it->var, kFalse, acc) : mk(it->var, acc, kFalse);
  }
  return make_handle(acc);
}

Bdd Manager::positive_cube(const std::vector<Var>& vars) {
  CubeLiterals literals;
  literals.reserve(vars.size());
  for (Var v : vars) literals.push_back(Literal{v, true});
  return cube(literals);
}

CubeLiterals Manager::cube_literals(const Bdd& c) const {
  CubeLiterals literals;
  NodeRef r = c.ref();
  if (r == kFalse) throw ModelError("false is not a cube");
  while (!is_term(r)) {
    const Var v = deref(r).var;
    const NodeRef low = low_of(r);
    const NodeRef high = high_of(r);
    if (low == kFalse && high != kFalse) {
      literals.push_back(Literal{v, true});
      r = high;
    } else if (high == kFalse && low != kFalse) {
      literals.push_back(Literal{v, false});
      r = low;
    } else {
      throw ModelError("BDD is not a cube");
    }
  }
  return literals;
}

// ---------------------------------------------------------------------------
// Reference counting
// ---------------------------------------------------------------------------

void Manager::bump_peaks() {
  const std::size_t live = live_nodes();
  peak_live_ = std::max(peak_live_, live);
  window_peak_live_ = std::max(window_peak_live_, live);
}

void Manager::inc_ref(NodeRef e) {
  const std::uint32_t idx = edge_index(e);
  if (idx == 0) return;  // the terminal is permanent
  Node& n = node_at(idx);
  if (n.refs == 0) --dead_count_;
  ++n.refs;
  if (n.refs == 1) bump_peaks();
}

void Manager::dec_ref(NodeRef e) {
  const std::uint32_t idx = edge_index(e);
  if (idx == 0) return;  // the terminal is permanent
  Node& n = node_at(idx);
  assert(n.refs > 0);
  --n.refs;
  if (n.refs == 0) ++dead_count_;
}

// ---------------------------------------------------------------------------
// Unique table
// ---------------------------------------------------------------------------

std::size_t Manager::hash_triple(Var v, NodeRef low, NodeRef high) const {
  std::uint64_t h = static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(low) + 0x517cc1b727220a95ULL) * 0xff51afd7ed558ccdULL;
  h ^= (static_cast<std::uint64_t>(high) + 0x2545f4914f6cdd1dULL) * 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & bucket_mask_;
}

NodeRef Manager::mk(Var v, NodeRef low, NodeRef high) {
  if (low == high) return low;
  // Canonical form: the then-edge must be regular. Complement both
  // children and pull the flag out of the node when it is not.
  if (edge_complemented(high)) {
    return bdd_not(mk(v, bdd_not(low), bdd_not(high)));
  }
  assert(var2level_[v] < level(low) && var2level_[v] < level(high));

  for (std::uint32_t idx = buckets_[hash_triple(v, low, high)];
       idx != kNilIndex; idx = node_at(idx).next) {
    const Node& n = node_at(idx);
    if (n.var == v && n.low == low && n.high == high) {
      ++counters_.unique_hits;
      // Possibly a dead node being resurrected; refs handled by caller.
      return make_edge(idx, false);
    }
  }
  return alloc_node(v, low, high);
}

NodeRef Manager::alloc_node(Var v, NodeRef low, NodeRef high) {
  std::uint32_t idx;
  if (free_list_ != kNilIndex) {
    idx = free_list_;
    free_list_ = node_at(idx).next;
  } else {
    idx = nodes_size_;
    ensure_chunks(idx + 1);
    nodes_size_ = idx + 1;
  }
  Node& n = node_at(idx);
  n.var = v;
  n.low = low;
  n.high = high;
  n.refs = 0;
  n.stamp = 0;
  ++node_count_;
  // Born dead; the caller or a parent node will reference it.
  ++dead_count_;
  inc_ref(low);
  inc_ref(high);

  if (sift_tracking_) nodes_at_var_[v].push_back(idx);

  unique_insert(idx);
  if (node_count_ > buckets_.size()) grow_buckets();
  return make_edge(idx, false);
}

void Manager::unique_insert(std::uint32_t idx) {
  Node& n = node_at(idx);
  const std::size_t slot = hash_triple(n.var, n.low, n.high);
  n.next = buckets_[slot];
  buckets_[slot] = idx;
}

void Manager::unique_remove(std::uint32_t idx) {
  Node& n = node_at(idx);
  const std::size_t slot = hash_triple(n.var, n.low, n.high);
  std::uint32_t cur = buckets_[slot];
  if (cur == idx) {
    buckets_[slot] = n.next;
    return;
  }
  while (cur != kNilIndex) {
    Node& c = node_at(cur);
    if (c.next == idx) {
      c.next = n.next;
      return;
    }
    cur = c.next;
  }
  assert(false && "node missing from unique table");
}

void Manager::grow_buckets() {
  buckets_.assign(buckets_.size() * 2, kNilIndex);
  bucket_mask_ = buckets_.size() - 1;
  // Re-chain every node in the table (live and dead).
  const std::uint32_t size = nodes_size();
  for (std::uint32_t idx = 1; idx < size; ++idx) {
    if (node_at(idx).var == kInvalidVar) continue;  // free-listed
    unique_insert(idx);
  }
  // Keep the computed cache proportional to the table: a direct-mapped
  // cache far smaller than the working set thrashes and turns the
  // recursions superlinear.
  if (cache_.size() < buckets_.size()) {
    cache_.assign(buckets_.size(), CacheEntry{});
    cache_mask_ = cache_.size() - 1;
  }
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

namespace {

std::size_t cache_key(std::uint8_t op, NodeRef f, NodeRef g, NodeRef h) {
  std::uint64_t k = static_cast<std::uint64_t>(f) * 0x9e3779b97f4a7c15ULL;
  k ^= (static_cast<std::uint64_t>(g) + 0x7f4a7c15ULL) * 0xff51afd7ed558ccdULL;
  k ^= (static_cast<std::uint64_t>(h) + 0x51afd7edULL) * 0xc4ceb9fe1a85ec53ULL;
  k ^= static_cast<std::uint64_t>(op) << 56;
  k ^= k >> 29;
  return static_cast<std::size_t>(k);
}

}  // namespace

NodeRef Manager::cache_lookup(Op op, NodeRef f, NodeRef g, NodeRef h) const {
  ++counters_.cache_lookups[op_slot(op)];
  const CacheEntry& e =
      cache_[cache_key(static_cast<std::uint8_t>(op), f, g, h) & cache_mask_];
  if (e.op == op && e.f == f && e.g == g && e.h == h &&
      e.result != kInvalidRef) {
    ++counters_.cache_hits[op_slot(op)];
    return e.result;
  }
  return kInvalidRef;
}

void Manager::cache_store(Op op, NodeRef f, NodeRef g, NodeRef h, NodeRef result) {
  cache_[cache_key(static_cast<std::uint8_t>(op), f, g, h) & cache_mask_] =
      CacheEntry{f, g, h, op, result};
}

void Manager::clear_cache() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  for (MultiCacheEntry& e : multi_cache_) {
    e.key.clear();
    e.result = kInvalidRef;
  }
  // The REACH cache's signature guard must go with its entries: a cleared
  // signature forces the next reach() to start from a flushed cache, so a
  // stale (states, rule) result can never resurface after a GC or reorder.
  std::fill(reach_cache_.begin(), reach_cache_.end(), ReachCacheEntry{});
  reach_sig_.clear();
  std::fill(rel_next_shift_cache_.begin(), rel_next_shift_cache_.end(),
            RelNextShiftEntry{});
  for (PermuteCacheEntry& e : permute_cache_) {
    e.key.clear();
    e.result = kInvalidRef;
  }
}

// ---------------------------------------------------------------------------
// Multi-operand cache (n-ary relational product)
// ---------------------------------------------------------------------------

std::size_t Manager::multi_hash(const std::vector<NodeRef>& ops,
                                NodeRef cube) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                    (static_cast<std::uint64_t>(Op::kAndExistsMulti) << 56);
  for (const NodeRef f : ops) {
    h ^= (static_cast<std::uint64_t>(f) + 0x517cc1b727220a95ULL) *
         0xff51afd7ed558ccdULL;
    h = (h << 13) | (h >> 51);
  }
  h ^= (static_cast<std::uint64_t>(cube) + 0x2545f4914f6cdd1dULL) *
       0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

NodeRef Manager::multi_cache_lookup(const std::vector<NodeRef>& ops,
                                    NodeRef cube) const {
  ++counters_.cache_lookups[op_slot(Op::kAndExistsMulti)];
  if (multi_cache_.empty()) return kInvalidRef;
  const MultiCacheEntry& e =
      multi_cache_[multi_hash(ops, cube) & multi_cache_mask_];
  // The stored key is exact (operands plus trailing cube): a slot collision
  // misses rather than returning a wrong product.
  if (e.result == kInvalidRef || e.key.size() != ops.size() + 1) {
    return kInvalidRef;
  }
  if (e.key.back() != cube ||
      !std::equal(ops.begin(), ops.end(), e.key.begin())) {
    return kInvalidRef;
  }
  ++counters_.cache_hits[op_slot(Op::kAndExistsMulti)];
  return e.result;
}

void Manager::multi_cache_store(const std::vector<NodeRef>& ops, NodeRef cube,
                                NodeRef result) {
  if (multi_cache_.empty()) {
    multi_cache_.resize(kMultiCacheSize);
    multi_cache_mask_ = kMultiCacheSize - 1;
  }
  MultiCacheEntry& e = multi_cache_[multi_hash(ops, cube) & multi_cache_mask_];
  e.key.assign(ops.begin(), ops.end());
  e.key.push_back(cube);
  e.result = result;
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void Manager::free_node(std::uint32_t idx) {
  Node& n = node_at(idx);
  n.var = kInvalidVar;
  n.next = free_list_;
  free_list_ = idx;
  --node_count_;
  --dead_count_;
}

void Manager::maybe_gc() {
  if (!gc_enabled_) return;
  if (node_count_ < 4096) return;
  if (dead_count_ * 4 < node_count_) return;  // < 25% dead: not worth it
  collect_garbage();
}

void Manager::collect_garbage() {
  const std::size_t dead_at_entry = dead_count_;
  if (dead_at_entry == 0) return;
  TraceSpan span(trace_, "gc", "kernel");
  span.arg("dead_nodes", static_cast<double>(dead_at_entry));
  const auto gc_start = profiling_ ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  // Dead nodes still hold references to their children (dropped lazily,
  // here). Removing a dead node can therefore kill its children; iterate
  // until the dead set is stable.
  std::vector<std::uint32_t> worklist;
  const std::uint32_t size = nodes_size();
  for (std::uint32_t idx = 1; idx < size; ++idx) {
    Node& n = node_at(idx);
    if (n.var != kInvalidVar && n.refs == 0) worklist.push_back(idx);
  }
  while (!worklist.empty()) {
    const std::uint32_t idx = worklist.back();
    worklist.pop_back();
    Node& n = node_at(idx);
    if (n.var == kInvalidVar || n.refs != 0) continue;  // already freed / resurrected
    unique_remove(idx);
    const NodeRef low = n.low;
    const NodeRef high = n.high;
    free_node(idx);
    for (NodeRef child : {low, high}) {
      const std::uint32_t cidx = edge_index(child);
      if (cidx != 0) {
        Node& c = node_at(cidx);
        assert(c.refs > 0);
        --c.refs;
        if (c.refs == 0) {
          ++dead_count_;
          worklist.push_back(cidx);
        }
      }
    }
  }
  clear_cache();
  ++gc_runs_;
  if (profiling_) {
    gc_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - gc_start)
                       .count();
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ManagerStats Manager::stats() const {
  ManagerStats s;
  s.node_count = node_count_;
  s.dead_count = dead_count_;
  s.live_count = s.node_count - s.dead_count;
  s.peak_live = peak_live_;
  s.gc_runs = gc_runs_;
  s.unique_hits = counters_.unique_hits;
  // The per-op slots fold into four groups whose sums partition the
  // aggregate.
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const std::size_t k_hits = counters_.cache_hits[k];
    const std::size_t k_lookups = counters_.cache_lookups[k];
    s.cache_hits += k_hits;
    s.cache_lookups += k_lookups;
    std::size_t* hits = nullptr;
    std::size_t* lookups = nullptr;
    switch (static_cast<OpKind>(k)) {
      case OpKind::kAndExistsMulti:
        hits = &s.multi_cache_hits;
        lookups = &s.multi_cache_lookups;
        break;
      case OpKind::kRelNext:
      case OpKind::kReach:
        hits = &s.reach_cache_hits;
        lookups = &s.reach_cache_lookups;
        break;
      case OpKind::kPermute:
        hits = &s.permute_cache_hits;
        lookups = &s.permute_cache_lookups;
        break;
      default:
        hits = &s.binary_cache_hits;
        lookups = &s.binary_cache_lookups;
        break;
    }
    *hits += k_hits;
    *lookups += k_lookups;
  }
  s.bucket_count = buckets_.size();
  s.var_count = var2level_.size();
  return s;
}

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kAnd: return "and";
    case OpKind::kXor: return "xor";
    case OpKind::kIte: return "ite";
    case OpKind::kExists: return "exists";
    case OpKind::kAndExists: return "and_exists";
    case OpKind::kCofactor: return "cofactor";
    case OpKind::kRestrict: return "restrict";
    case OpKind::kAndExistsMulti: return "and_exists_multi";
    case OpKind::kRelNext: return "rel_next";
    case OpKind::kReach: return "reach";
    case OpKind::kDisjoint: return "disjoint";
    case OpKind::kPermute: return "permute";
  }
  return "?";
}

ManagerProfile Manager::profile() const {
  ManagerProfile p;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    p.ops[k].calls = counters_.calls[k];
    p.ops[k].cache_lookups = counters_.cache_lookups[k];
    p.ops[k].cache_hits = counters_.cache_hits[k];
    p.ops[k].seconds = op_seconds_[k];
  }
  p.gc_runs = gc_runs_;
  p.gc_seconds = gc_seconds_;
  p.sift_runs = sift_runs_;
  p.sift_seconds = sift_seconds_;
  p.timings_armed = profiling_;
  return p;
}

// ---------------------------------------------------------------------------
// Resource governance (util/budget.hpp)
// ---------------------------------------------------------------------------

void Manager::set_budget(const ResourceBudget& budget) {
  budget_ = budget;
  budget_armed_ = !budget.unlimited();
  budget_start_ = std::chrono::steady_clock::now();
  budget_steps_ = 0;
}

void Manager::clear_budget() {
  budget_ = ResourceBudget{};
  budget_armed_ = false;
  budget_steps_ = 0;
}

double Manager::budget_elapsed_seconds() const {
  if (!budget_armed_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       budget_start_)
      .count();
}

void Manager::count_budget_step() {
  if (!budget_armed_) return;
  ++budget_steps_;
  if (budget_.max_steps != 0 && budget_steps_ > budget_.max_steps) {
    trip_budget(LimitKind::kStepCap);
  }
  poll_budget_slow();
}

void Manager::poll_budget_slow() {
  if (budget_.token != nullptr && budget_.token->cancelled()) {
    trip_budget(LimitKind::kCancelled);
  }
  if (budget_.max_live_nodes != 0 && live_nodes() > budget_.max_live_nodes) {
    trip_budget(LimitKind::kNodeCap);
  }
  if (budget_.max_seconds != 0.0 &&
      budget_elapsed_seconds() > budget_.max_seconds) {
    trip_budget(LimitKind::kDeadline);
  }
}

void Manager::trip_budget(LimitKind kind) {
  BudgetTrip trip;
  trip.kind = kind;
  trip.live_nodes = live_nodes();
  trip.elapsed_seconds = budget_elapsed_seconds();
  trip.steps = budget_steps_;
  // Disarm before unwinding: the catch site (CheckSession) reads final
  // gauges and may run further kernel calls (count_nodes on surviving
  // handles, GC) that must not re-trip.
  budget_armed_ = false;
  throw CancelledError(trip);
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

void Manager::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw ModelError("BDD invariant violated: " + what);
  };
  const Node& term = node_at(0);
  if (term.var != kInvalidVar || term.refs == 0) fail("terminal corrupted");

  std::size_t live = 0;
  std::size_t dead = 0;
  std::size_t in_table = 0;
  const std::uint32_t size = nodes_size();
  for (std::uint32_t idx = 1; idx < size; ++idx) {
    const Node& n = node_at(idx);
    if (n.var == kInvalidVar) continue;  // free-listed
    ++in_table;
    if (n.refs == 0) ++dead; else ++live;
    const std::string where = " (node " + std::to_string(idx) + ")";
    if (n.var >= var2level_.size()) fail("unknown variable" + where);
    if (edge_complemented(n.high)) fail("complemented then-edge" + where);
    if (n.low == n.high) fail("redundant node" + where);
    const NodeRef self = make_edge(idx, false);
    for (const NodeRef child : {n.low, n.high}) {
      if (edge_index(child) >= size) fail("child out of range" + where);
      if (deref(child).var == kInvalidVar && !is_term(child)) {
        fail("child is free-listed" + where);
      }
      if (!is_term(child) && level(child) <= level(self)) {
        fail("child not below parent in the order" + where);
      }
    }
    // The node must be findable through the unique table (canonicity).
    const std::size_t slot = hash_triple(n.var, n.low, n.high);
    bool found = false;
    std::size_t matches = 0;
    for (std::uint32_t cur = buckets_[slot]; cur != kNilIndex; cur = node_at(cur).next) {
      if (cur == idx) found = true;
      const Node& c = node_at(cur);
      if (c.var == n.var && c.low == n.low && c.high == n.high) ++matches;
    }
    if (!found) fail("node missing from its unique-table bucket" + where);
    if (matches != 1) fail("duplicate triple in the unique table" + where);
  }
  if (in_table != node_count_) fail("node_count out of sync");
  if (dead != dead_count_) fail("dead_count out of sync");
  if (live != live_nodes()) fail("live count out of sync");
}

}  // namespace stgcheck::bdd
