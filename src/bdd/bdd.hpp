// Shared ROBDD package.
//
// This is the substrate for the symbolic traversal of the paper: sets of
// STG states are represented as characteristic Boolean functions stored as
// reduced ordered binary decision diagrams (Bryant '86, '92). The package
// provides exactly the operations the paper's algorithms need:
//
//   * mk / ITE / AND / OR / XOR / NOT                      (Sec. 4)
//   * cofactor with respect to a cube of literals, and flip_image, the
//     one walk that fires a transition                      (delta_N)
//   * existential abstraction and AND-EXISTS                (ER/QR, Sec. 5.3)
//   * rel_next / reach: the twin-pair relational product (the relational
//     engines' one image) and the in-kernel saturation fixpoint (REACH)
//   * SAT counting (the "# of states" column of Table 1)
//   * node counting (the "BDD size peak|final" column of Table 1)
//   * garbage collection driven by reference counts
//   * static variable orders plus sifting dynamic reordering with variable
//     groups (Sec. 6 notes that bad orders blow up; the ordering ablation
//     bench uses this, and groups keep primed twin pairs adjacent)
//   * Minato-Morreale ISOP for deriving gate equations (src/logic)
//
// Design notes
// ------------
// The package uses complement edges (Brace-Rudell-Bryant '90). A `NodeRef`
// is an attributed edge, not a node index: the low bit is the complement
// flag and the remaining 31 bits index the node table. Negation is a
// single XOR of the flag -- O(1), no new nodes, and f and NOT f share one
// graph. There is a single terminal node (index 0) denoting the constant
// 1; `kTrue` is the regular edge to it and `kFalse` the complemented one.
//
// Canonical form: a stored node's then (high) edge is always regular.
// mk() enforces this by flipping both children and returning a
// complemented edge whenever the then-edge would carry the flag, so
// structural equality of edges remains functional equivalence. ITE
// normalizes its standard triple the same way -- first argument regular,
// then-argument regular, output complement pulled out -- so the
// (f, g, NOT h) variants of a call share one computed-cache slot, and
// OR/NOT are derived from AND through De Morgan instead of holding cache
// space of their own.
//
// Nodes live in a chunked arena: a chunk never moves once allocated, so
// a `Node&` taken before an mk() stays valid when the table grows.
// Reference counts include both parent edges and external references and
// are kept per node (both polarities of an edge pin the same node); `Bdd`
// is the RAII external handle. Dead nodes stay in the unique table (they
// may be resurrected by a lookup) until garbage collection sweeps them,
// which only happens between top-level operations, never inside a
// recursion.
//
// Threading: the manager is single-threaded and needs no synchronization.
// One thread drives it at a time; every daemon session owns its own
// manager, so the daemon's concurrency lives above the kernel, in the
// scheduler workers that run whole sessions.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/budget.hpp"

namespace stgcheck {
class TraceRecorder;  // util/trace.hpp; the kernel only holds a pointer
}

namespace stgcheck::bdd {

/// Attributed edge into the manager's node table: bit 0 is the complement
/// flag, bits 31..1 the node index.
using NodeRef = std::uint32_t;
/// Variable identifier (dense, starting at 0, in creation order).
using Var = std::uint32_t;

/// The regular edge to the terminal node (constant 1).
inline constexpr NodeRef kTrue = 0;
/// The complemented edge to the terminal node (constant 0).
inline constexpr NodeRef kFalse = 1;
inline constexpr NodeRef kInvalidRef = std::numeric_limits<NodeRef>::max();
inline constexpr Var kInvalidVar = std::numeric_limits<Var>::max();

/// O(1) negation: flips the complement flag.
constexpr NodeRef bdd_not(NodeRef e) { return e ^ 1u; }
/// Node-table index of the edge's target.
constexpr std::uint32_t edge_index(NodeRef e) { return e >> 1; }
/// True if the edge carries the complement flag.
constexpr bool edge_complemented(NodeRef e) { return (e & 1u) != 0; }
/// The edge with the complement flag cleared.
constexpr NodeRef edge_regular(NodeRef e) { return e & ~1u; }
/// Builds an edge from a node index and a complement flag.
constexpr NodeRef make_edge(std::uint32_t index, bool complemented) {
  return (index << 1) | (complemented ? 1u : 0u);
}

class Manager;

/// RAII external reference to a BDD node. Copyable and movable; the
/// referenced node (and everything below it) is protected from garbage
/// collection while at least one Bdd handle points at it.
class Bdd {
 public:
  Bdd() = default;
  Bdd(Manager* manager, NodeRef ref);
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True if this handle points at a node (default-constructed ones do not).
  bool valid() const { return manager_ != nullptr; }
  Manager* manager() const { return manager_; }
  NodeRef ref() const { return ref_; }

  bool is_false() const { return ref_ == kFalse && valid(); }
  bool is_true() const { return ref_ == kTrue && valid(); }
  bool is_terminal() const { return edge_index(ref_) == 0 && valid(); }

  /// Structural equality: same manager, same edge. Canonicity makes this
  /// functional equivalence.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.manager_ == b.manager_ && a.ref_ == b.ref_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

  // Logical connectives. All of them may trigger garbage collection after
  // computing their result (never during). Negation only flips the
  // complement flag of the edge and never allocates.
  Bdd operator&(const Bdd& other) const;
  Bdd operator|(const Bdd& other) const;
  Bdd operator^(const Bdd& other) const;
  Bdd operator!() const;
  Bdd& operator&=(const Bdd& other);
  Bdd& operator|=(const Bdd& other);
  Bdd& operator^=(const Bdd& other);

  /// f & !g — set difference when the functions are characteristic functions.
  Bdd minus(const Bdd& other) const;

  /// True iff f & g == 0, decided without building the conjunction: the
  /// recursion creates no nodes and stops at the first common minterm.
  /// Verdicts are memoized in the shared computed cache (Manager::disjoint),
  /// so repeated tests against the same sets are lookups.
  bool disjoint_with(const Bdd& other) const;

  /// True iff this implies other (f <= g as sets): disjoint_with(!other),
  /// node-free like it (negation is a complement flag).
  bool implies(const Bdd& other) const;

 private:
  friend class Manager;
  Manager* manager_ = nullptr;
  NodeRef ref_ = kInvalidRef;
};

/// One relation operand of Manager::reach / Manager::rel_next: a transition
/// relation over (v, v') twin pairs plus the positive cube of its *unprimed*
/// support variables. The kernel identifies each support variable's
/// next-state twin positionally: it is the variable directly below v in the
/// current order, the layout variable groups maintain for primed encodings
/// (core::SymbolicStg with_primed_vars). Both operations validate the
/// layout at the top level and throw ModelError naming any offending
/// variable.
struct ReachRelation {
  Bdd rel;
  Bdd support;  ///< positive cube of the relation's unprimed support
};

/// One literal of a cube: variable plus polarity.
struct Literal {
  Var var = kInvalidVar;
  bool positive = true;

  friend bool operator==(const Literal&, const Literal&) = default;
};

/// A product term as an explicit list of literals (used by ISOP covers).
using CubeLiterals = std::vector<Literal>;

/// Per-operation profile slot names (ManagerProfile::ops index). Every
/// slot but the last three mirrors the kernel's internal computed-cache
/// op tag of the same value. The last three are retired: restrict,
/// permute and the n-ary and_exists_multi are gone and nothing counts
/// there, but the benchmark's per-layer schema (perfbench) still lists
/// their names, so the slots stay, reading 0, until that schema drops
/// them.
enum class OpKind : std::uint8_t {
  kAnd, kXor, kIte, kExists, kAndExists, kCofactor,
  kRelNext, kReach, kDisjoint, kRestrict, kPermute, kAndExistsMulti,
};
constexpr std::size_t kOpKindCount = 12;
const char* to_string(OpKind kind);

/// Aggregate statistics for reporting and the benches.
struct ManagerStats {
  std::size_t node_count = 0;   ///< nodes in the table, including dead ones
  std::size_t live_count = 0;   ///< nodes with at least one reference
  std::size_t dead_count = 0;   ///< nodes awaiting collection
  std::size_t peak_live = 0;    ///< high-water mark of live_count
  std::size_t gc_runs = 0;      ///< completed garbage collections
  std::size_t unique_hits = 0;  ///< unique-table lookups that found a node
  std::size_t cache_hits = 0;   ///< computed-cache hits, all caches summed
  std::size_t cache_lookups = 0;
  // The aggregate above, split by cache group; the groups partition
  // cache_lookups/cache_hits exactly (binary + reach + permute == total,
  // pinned by a regression test).
  std::size_t binary_cache_lookups = 0;  ///< And..Cofactor + Disjoint
  std::size_t binary_cache_hits = 0;
  std::size_t reach_cache_lookups = 0;  ///< RelNext + Reach traffic: the
  std::size_t reach_cache_hits = 0;     ///< main cache's RelNext entries
                                        ///< and the REACH cache
  /// Retired with the permute memo: always 0. The benchmark's per-layer
  /// schema (perfbench) still reads them, so they stay until it drops them.
  std::size_t permute_cache_lookups = 0;
  std::size_t permute_cache_hits = 0;
  std::size_t bucket_count = 0;  ///< unique-table buckets (for load factor)
  std::size_t var_count = 0;

  /// Computed-cache hit rate in [0, 1]; 0 when no lookups happened.
  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
  static double hit_rate(std::size_t hits, std::size_t lookups) {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  double binary_cache_hit_rate() const {
    return hit_rate(binary_cache_hits, binary_cache_lookups);
  }
  double reach_cache_hit_rate() const {
    return hit_rate(reach_cache_hits, reach_cache_lookups);
  }
  /// Unique-table load factor: nodes per bucket.
  double unique_load_factor() const {
    return bucket_count == 0
               ? 0.0
               : static_cast<double>(node_count) /
                     static_cast<double>(bucket_count);
  }
};

/// One operation kind's cumulative profile (Manager::profile()).
struct OpProfile {
  /// Handle-level entries: public wrapper calls, plus -- for kRelNext --
  /// every REACH saturation rule firing (the in-kernel rel_next steps a
  /// saturation run performs without going through the wrapper).
  std::size_t calls = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  /// Wall-clock seconds inside outermost wrapper calls; 0 unless
  /// Manager::set_profiling(true) armed the clocks.
  double seconds = 0;
};

/// Per-op and per-phase kernel profile. Call/lookup/hit counts are always
/// collected (they ride the hot counters the kernel maintains anyway);
/// wall-clock phase timings cost two steady_clock reads per
/// outermost call and are armed separately via Manager::set_profiling.
struct ManagerProfile {
  std::array<OpProfile, kOpKindCount> ops{};
  std::size_t gc_runs = 0;
  double gc_seconds = 0;   ///< inside collect_garbage (sift-triggered included)
  std::size_t sift_runs = 0;
  double sift_seconds = 0;  ///< inside sift() passes and explicit reorder()
  bool timings_armed = false;

  const OpProfile& op(OpKind kind) const {
    return ops[static_cast<std::size_t>(kind)];
  }
};

/// The BDD manager: node table, unique table, computed cache, variable
/// order, garbage collector and reordering engine. Not copyable. All Bdd
/// handles must not outlive their manager.
class Manager {
 public:
  /// The node table's limit: node indices are 31 bits wide.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 31;

  /// `initial_capacity` pre-sizes the node table, its unique-table buckets
  /// and the computed cache (all grow automatically). It is clamped to
  /// [1024, kMaxNodes], so no request sizes a table past the node limit.
  explicit Manager(std::size_t initial_capacity = 1 << 14);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ---- Variables -------------------------------------------------------

  /// Creates a new variable at the bottom of the current order.
  Bdd new_var(const std::string& name = "");
  /// Number of variables created so far.
  std::size_t var_count() const { return var2level_.size(); }
  /// The projection function of an existing variable.
  Bdd var(Var v);
  /// The negative literal of an existing variable.
  Bdd nvar(Var v);
  /// Name given at creation time ("x<id>" if none).
  const std::string& var_name(Var v) const;
  /// Current level (depth in the order, 0 = top) of a variable.
  std::size_t level_of_var(Var v) const { return var2level_[v]; }
  /// Variable currently at `level`.
  Var var_at_level(std::size_t level) const { return level2var_[level]; }

  // ---- Constants -------------------------------------------------------

  Bdd bdd_true() { return Bdd(this, kTrue); }
  Bdd bdd_false() { return Bdd(this, kFalse); }

  // ---- Cubes -----------------------------------------------------------

  /// Builds the conjunction of the given literals. Duplicate variables with
  /// conflicting polarity yield false.
  Bdd cube(const CubeLiterals& literals);
  /// Conjunction of positive literals of `vars` (the usual quantification
  /// cube).
  Bdd positive_cube(const std::vector<Var>& vars);
  /// Decomposes a cube BDD back into literals (throws if not a cube).
  CubeLiterals cube_literals(const Bdd& cube) const;

  // ---- Core operations (handle level) -----------------------------------

  Bdd apply_and(const Bdd& f, const Bdd& g);
  Bdd apply_or(const Bdd& f, const Bdd& g);
  Bdd apply_xor(const Bdd& f, const Bdd& g);
  Bdd apply_not(const Bdd& f);
  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  /// Generalized cofactor of f with respect to a cube of literals
  /// (f with every cube variable fixed to its polarity).
  Bdd cofactor(const Bdd& f, const Bdd& cube);
  /// The states of f that agree with the cube `flip`, each with every
  /// flip variable negated, minus `known`:
  ///
  ///     (cofactor(f, flip) & flip~) \ known
  ///
  /// where flip~ is flip with every literal negated. This is the firing
  /// of a transition that flips the literals of its guard
  /// (core::SymbolicStg::image), chained into the set it must leave out,
  /// in one memoized walk with no intermediate set. Above a flip variable
  /// the walk branches f and known together and rebuilds the node; at one
  /// it follows f's pre-value branch and known's post-value branch and
  /// emits one node carrying the post literal; below the last one it is
  /// f & !known. It stops where known's cofactor is true or f's is false.
  /// Literals a firing keeps (1 -> 1) go into known as `known | !keep`.
  /// Counts as one call on the cofactor profile slot and shares its cache
  /// tag, with !known as the third key: a plain cofactor stores false
  /// there, and a walk with known = true returns before the cache. Throws
  /// ModelError unless flip is a cube.
  Bdd flip_image(const Bdd& f, const Bdd& flip, const Bdd& known);
  /// Existential abstraction of the (positive) cube variables.
  Bdd exists(const Bdd& f, const Bdd& cube);
  /// exists(f & g, cube) computed without building f & g (relational
  /// product).
  Bdd and_exists(const Bdd& f, const Bdd& g, const Bdd& cube);
  /// The relational product specialized to twin-pair encodings: the
  /// successors of `states` under `rel`, i.e.
  ///
  ///     (exists sup : states /\ rel)[twin(v) := v  for v in sup]
  ///
  /// where `sup` is the positive cube `support` of rel's unprimed support
  /// variables and twin(v) is the variable directly below v in the current
  /// order. Quantification and rename happen inside one recursion, so no
  /// primed intermediate is ever built. Variables outside the support flow
  /// through `states` untouched (the frame condition for free, as with
  /// sparse relations); a full-frame relation over every state variable
  /// (the monolithic engine's) passes the whole state cube as `support`.
  /// Results are cached under Op::kRelNext; the cache is sound across
  /// reorders because every reorder clears it. Every call validates its
  /// operands with linear walks: the support cube, rel's support and
  /// states' support against the twin layout.
  Bdd rel_next(const Bdd& states, const Bdd& rel, const Bdd& support);
  /// The in-kernel saturation REACH operation: the least fixpoint of
  /// `states` under every relation, computed level-by-level. Relations are
  /// ordered by the current level of their top support variable; at each
  /// recursion level the substates are saturated under all relations whose
  /// support lies at or below that level before anything propagates
  /// upward, so frontier BDDs spanning the whole state space are never
  /// materialized (Brand-Baeck-Laarman, arXiv:2212.03684, generalized to a
  /// partitioned relation list a la saturation). Results are cached in a
  /// dedicated exact-key cache (Op::kReach) keyed on (states, rule index)
  /// and guarded by the relation-list signature, so repeated fixpoints
  /// from related seed sets share work. Every relation must satisfy the
  /// twin-pair layout of rel_next.
  Bdd reach(const Bdd& states, const std::vector<ReachRelation>& relations);
  /// True iff f & g == 0 (Bdd::disjoint_with). Creates no nodes: the
  /// recursion only walks the two graphs and returns at the first
  /// satisfiable pair of cofactors. Verdicts are memoized in the shared
  /// computed cache under their own tag (Op::kDisjoint) and dropped with it
  /// at every GC and reorder, so no verdict outlives its operands.
  bool disjoint(const Bdd& f, const Bdd& g);
  /// Bit c is !f.disjoint_with(cube(cubes[c])): which cubes meet f, all in
  /// one memoized walk of f per 64-cube chunk. Each edge's word holds one
  /// bit per cube of the chunk that meets the function under it; a node
  /// at level l keeps its low child's bits for the cubes that allow
  /// var(l) = 0 and its high child's for those that allow var(l) = 1, and
  /// levels a path skips constrain nothing. A contradictory cube meets
  /// nothing, an empty one meets any non-false f. Creates no nodes and
  /// counts as one call on the disjoint profile slot. The literals name
  /// variables, so a cube list stays valid across reorders; an unknown
  /// variable throws ModelError.
  std::vector<bool> cubes_meeting(const Bdd& f,
                                  const std::vector<CubeLiterals>& cubes);

  // ---- Analysis ----------------------------------------------------------

  /// Variables f depends on, sorted by current level.
  std::vector<Var> support(const Bdd& f) const;
  /// Number of BDD nodes reachable from f (the terminal excluded). With
  /// complement edges f and !f share the same graph and count.
  std::size_t count_nodes(const Bdd& f) const;
  /// Number of nodes in the union of the given functions' graphs.
  std::size_t count_nodes(const std::vector<Bdd>& fs) const;
  /// Number of satisfying assignments over all `var_count()` variables.
  double sat_count(const Bdd& f) const;
  /// Number of satisfying assignments over `nvars` variables that include
  /// the support of f (unchecked). The satisfaction probability is scaled
  /// by 2^nvars alone, so the count stays finite whenever it fits a double,
  /// however many other variables the manager holds. If `exact` is
  /// non-null it receives whether the double walk lost nothing: every
  /// halving and every addition was error-free and the result is finite,
  /// so the returned value is the count itself, not a rounding of it.
  double sat_count(const Bdd& f, std::size_t nvars,
                   bool* exact = nullptr) const;
  /// Evaluates f under a complete assignment indexed by variable id.
  bool eval(const Bdd& f, const std::vector<bool>& assignment) const;
  /// One satisfying assignment of f as a cube over `vars` (f must not be
  /// false; variables outside f's support are set to 0).
  Bdd pick_one_minterm(const Bdd& f, const std::vector<Var>& vars);
  /// pick_one_minterm(f & g, vars) without building f & g: the walk
  /// descends both graphs together and steers by the node-free disjoint
  /// test, so it picks the same minterm. f & g must not be false.
  Bdd pick_one_minterm(const Bdd& f, const Bdd& g,
                       const std::vector<Var>& vars);

  // ---- ISOP --------------------------------------------------------------

  /// Minato-Morreale irredundant sum of products F with on <= F <= upper.
  /// Returns the cube list; if `function_out` is non-null it receives the
  /// BDD of the cover.
  std::vector<CubeLiterals> isop(const Bdd& on, const Bdd& upper,
                                 Bdd* function_out = nullptr);

  // ---- Reordering --------------------------------------------------------

  /// Sifts every variable to its locally best level (Rudell). Grouped
  /// variables (see group_vars) move as one block. Keeps each block within
  /// `max_growth` times the best size seen while moving. Returns live node
  /// count after reordering.
  std::size_t sift(double max_growth = 1.2);
  /// Reorders to exactly the given order (a permutation of all variables,
  /// listed top to bottom). Every registered group must stay contiguous
  /// and keep its internal order in the target; violations throw
  /// ModelError. Returns live node count after reordering.
  std::size_t reorder(const std::vector<Var>& level2var);
  /// Current order as variable ids, top to bottom.
  std::vector<Var> current_order() const { return level2var_; }

  // ---- Variable groups ---------------------------------------------------

  /// Registers `vars` -- currently at adjacent levels, listed top to
  /// bottom -- as a reorder group: sift() and reorder() move the block as
  /// one unit and never change its internal order. This is how the primed
  /// twin pairs of transition-relation encodings survive dynamic
  /// reordering with their (v, v') adjacency intact. A variable belongs to
  /// at most one group; non-adjacent or already-grouped variables throw
  /// ModelError.
  void group_vars(const std::vector<Var>& vars);
  std::size_t group_count() const { return groups_.size(); }
  /// Members of group `g`, top to bottom.
  const std::vector<Var>& group(std::size_t g) const { return groups_[g]; }
  /// Bumped by every completed sift() / reorder(). Callers that cache
  /// order-dependent metadata (node counts, level-sorted supports) compare
  /// this against their recorded epoch to know when to refresh.
  std::size_t reorder_epoch() const { return reorder_epoch_; }

  // ---- Resource governance ------------------------------------------------

  /// Arms `budget` on this manager: from now on the handle-level entry of
  /// every heavy operation (and REACH's rule loop) polls the limits and
  /// throws stgcheck::CancelledError when one trips; sift() polls between
  /// block moves as well. Arming resets the step counter and starts the
  /// wall clock. The unwind happens only at safe points where the table
  /// is canonical, so the manager stays consistent (check_invariants()
  /// clean, every group contiguous) and fully reusable afterwards. An
  /// unlimited budget (ResourceBudget::unlimited()) disarms, same as
  /// clear_budget().
  void set_budget(const ResourceBudget& budget);
  /// Disarms any armed budget.
  void clear_budget();
  const ResourceBudget& budget() const { return budget_; }
  /// Counts one coarse progress step -- a traversal pass, one REACH
  /// saturation-loop iteration -- against ResourceBudget::max_steps, then
  /// polls like poll_budget(). Called by traverse() at pass boundaries
  /// and by the REACH core; no-op when no budget is armed.
  void count_budget_step();
  /// Seconds since the budget was armed (0 when none is).
  double budget_elapsed_seconds() const;

  // ---- Memory ------------------------------------------------------------

  /// Forces a garbage collection (normally triggered automatically).
  void collect_garbage();
  ManagerStats stats() const;

  // ---- Observability ------------------------------------------------------

  /// Arms the per-phase wall clocks (ManagerProfile seconds fields). Off
  /// by default: the disarmed path does not read a clock anywhere, so
  /// results and timings stay identical to a build without profiling.
  /// Call between top-level operations.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }

  /// Attaches a trace recorder (util/trace.hpp): from now on GC, sift and
  /// REACH rule firings open spans on it. Borrowed, not owned; null
  /// detaches. Call between top-level operations.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  /// Per-op call/cache counters and per-phase timings. Timings are zero
  /// unless set_profiling(true) armed the clocks.
  ManagerProfile profile() const;

  std::size_t live_nodes() const { return node_count_ - dead_count_; }
  std::size_t peak_live_nodes() const { return peak_live_; }
  /// Resets the step-local live-node watermark to the current live count.
  /// Unlike peak_live_nodes() -- a monotone manager-lifetime high-water
  /// mark -- the window watermark can be rearmed around a single operation
  /// (an image step, one relational product) to measure its transient
  /// intermediates in isolation.
  void reset_peak_window() { window_peak_live_ = live_nodes(); }
  /// High-water mark of live nodes since the last reset_peak_window().
  std::size_t window_peak_live() const { return window_peak_live_; }
  /// Rearms the lifetime peak-live gauge (and the step window) to the
  /// current live count. peak_live_nodes() is otherwise a monotone
  /// manager-lifetime high-water mark, which is the wrong scope for a
  /// manager reused across checks: without the reset, every row of a
  /// batch (a session pool re-running checks on one encoding) inherits
  /// the largest peak any earlier check hit. CheckSession calls this at
  /// the start of every run so reported gauges are per-check. Like GC and
  /// sifting, call only between top-level operations.
  void reset_peak_stats() { peak_live_ = window_peak_live_ = live_nodes(); }

  // ---- Diagnostics -------------------------------------------------------

  /// Walks the whole node table and throws ModelError on any violation of
  /// the kernel invariants: then-edges regular (complement-edge canonical
  /// form), no redundant nodes, children strictly below their parent in
  /// the order, unique-table membership and exact node/dead counts. Used
  /// by the property tests after sifting and reordering; O(table size).
  void check_invariants() const;

  // ---- Output ------------------------------------------------------------

  /// Graphviz dot of the given functions (named roots). Complemented
  /// edges are drawn with a dot-shaped arrowhead.
  std::string to_dot(const std::vector<std::pair<std::string, Bdd>>& roots) const;
  /// Human-readable disjunction of up to `max_cubes` ISOP cubes.
  std::string to_string(const Bdd& f, std::size_t max_cubes = 16);

 private:
  friend class Bdd;

  struct Node {
    Var var;
    NodeRef low;            // attributed edge
    NodeRef high;           // always a regular edge (canonical form)
    std::uint32_t next;     // unique-table chain / free-list link (index)
    std::uint32_t refs;     // parent edges + external handles
    mutable std::uint32_t stamp;  // visited marker for walks
  };

  enum class Op : std::uint8_t {
    kAnd, kXor, kIte, kExists, kAndExists, kCofactor,
    kRelNext, kReach, kDisjoint
  };

  struct CacheEntry {
    NodeRef f = kInvalidRef;
    NodeRef g = kInvalidRef;
    NodeRef h = kInvalidRef;
    Op op = Op::kAnd;
    NodeRef result = kInvalidRef;
  };

  /// One rule of a running reach(): a relation edge, its support cube edge
  /// and the current level of its top support variable. Valid only while
  /// the top-level reach call is on the stack (the caller's ReachRelation
  /// handles keep the edges alive).
  struct ReachRule {
    NodeRef rel = kInvalidRef;
    NodeRef cube = kInvalidRef;
    std::size_t top = 0;
  };

  /// One slot of the REACH cache. (states, rule index) is an exact key
  /// *given* the relation list the rules were built from, so the cache
  /// carries the flattened (rel, cube) signature of that list
  /// (reach_sig_): a reach() call with a different list clears the
  /// entries before running, and clear_cache() drops both entries and
  /// signature so no stale result survives a GC or reorder.
  struct ReachCacheEntry {
    NodeRef states = kInvalidRef;
    std::uint32_t rule = 0;
    NodeRef result = kInvalidRef;
  };

  static constexpr std::uint32_t kNilIndex =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kReachCacheSize = std::size_t{1} << 15;

  // Node storage: a chunked arena instead of one flat vector. Chunks never
  // move once allocated, so table growth inside mk() cannot invalidate a
  // Node& the caller still holds (the std::vector reallocation hazard).
  // The extra indirection is one dependent load.
  static constexpr unsigned kChunkBits = 16;
  static constexpr std::size_t kChunkCapacity = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = kMaxNodes >> kChunkBits;

  // Node helpers. deref() ignores the complement flag: both polarities of
  // an edge share the node. low_of()/high_of() apply the flag, so they
  // return the true cofactors of the *function* the edge denotes.
  const Node& node_at(std::uint32_t idx) const {
    return chunks_[idx >> kChunkBits][idx & (kChunkCapacity - 1)];
  }
  Node& node_at(std::uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkCapacity - 1)];
  }
  const Node& deref(NodeRef e) const { return node_at(edge_index(e)); }
  Node& deref(NodeRef e) { return node_at(edge_index(e)); }
  std::uint32_t nodes_size() const { return nodes_size_; }
  bool is_term(NodeRef e) const { return edge_index(e) == 0; }
  NodeRef low_of(NodeRef e) const {
    return deref(e).low ^ (e & 1u);
  }
  NodeRef high_of(NodeRef e) const {
    return deref(e).high ^ (e & 1u);
  }
  std::size_t level(NodeRef e) const {
    return is_term(e) ? kTerminalLevel : var2level_[deref(e).var];
  }
  static constexpr std::size_t kTerminalLevel =
      std::numeric_limits<std::size_t>::max();

  // Reference counting (per node: both edge polarities pin the target).
  void inc_ref(NodeRef e);
  void dec_ref(NodeRef e);
  /// Raises the lifetime and window peak-live watermarks to the current
  /// live count.
  void bump_peaks();

  // Unique table.
  NodeRef mk(Var v, NodeRef low, NodeRef high);
  NodeRef alloc_node(Var v, NodeRef low, NodeRef high);
  /// Grows the chunk directory until at least `needed` slots exist.
  void ensure_chunks(std::uint32_t needed);
  void unique_insert(std::uint32_t idx);
  void unique_remove(std::uint32_t idx);
  std::size_t hash_triple(Var v, NodeRef low, NodeRef high) const;
  void grow_buckets();
  void maybe_gc();
  void free_node(std::uint32_t idx);
  /// Frees the dead node `idx` and every descendant whose last reference
  /// that drops. collect_garbage() calls it per dead root; sift swaps call
  /// it the moment a node dies, so sifting scores exact live counts.
  void free_dead(std::uint32_t idx);

  // Computed cache.
  NodeRef cache_lookup(Op op, NodeRef f, NodeRef g, NodeRef h) const;
  void cache_store(Op op, NodeRef f, NodeRef g, NodeRef h, NodeRef result);
  void clear_cache();

  // REACH cache (Op::kReach; see ReachCacheEntry) and operand validation
  // (reach.cpp).
  std::size_t reach_hash(NodeRef states, std::size_t rule) const;
  NodeRef reach_cache_lookup(NodeRef states, std::size_t rule) const;
  void reach_cache_store(NodeRef states, std::size_t rule, NodeRef result);
  /// Per-relation layout checks; accumulates the twin variables into
  /// `twin_mask` for the one-pass state-set check below.
  void validate_reach_relation(const Bdd& rel, const Bdd& support,
                               std::vector<char>& twin_mask) const;
  void validate_reach_states(const Bdd& states,
                             const std::vector<char>& twin_mask) const;

  // Recursive cores (raw NodeRef level; no GC may run while these are on
  // the stack). OR and NOT are not recursions of their own: they are De
  // Morgan duals of AND, sharing its cache.
  NodeRef and_rec(NodeRef f, NodeRef g);
  NodeRef or_rec(NodeRef f, NodeRef g) {
    return bdd_not(and_rec(bdd_not(f), bdd_not(g)));
  }
  NodeRef xor_rec(NodeRef f, NodeRef g);
  NodeRef ite_rec(NodeRef f, NodeRef g, NodeRef h);
  NodeRef cofactor_rec(NodeRef f, NodeRef cube);
  NodeRef flip_image_rec(NodeRef f, NodeRef flip, NodeRef known);
  NodeRef exists_rec(NodeRef f, NodeRef cube);
  NodeRef and_exists_rec(NodeRef f, NodeRef g, NodeRef cube);
  NodeRef rel_next_rec(NodeRef s, NodeRef r, NodeRef cube);
  NodeRef reach_rec(NodeRef s, std::size_t rule);
  bool disjoint_rec(NodeRef f, NodeRef g);
  struct MeetWalk;  // cubes_meeting's per-chunk masks and edge memo
  std::uint64_t meets_rec(NodeRef e, MeetWalk& walk) const;

  // ISOP core. Returns the BDD of the cover and appends cubes (sharing the
  // current prefix passed by the caller).
  NodeRef isop_rec(NodeRef on, NodeRef upper, CubeLiterals& prefix,
                   std::vector<CubeLiterals>& cover);

  // Walk helpers.
  std::uint32_t next_stamp() const;

  // Reordering internals (sift.cpp). A "block" is a registered group's
  // member list (top to bottom) or a singleton ungrouped variable; between
  // block moves every group is contiguous in its registered order.
  std::size_t swap_levels(std::size_t upper_level);
  void gather_var_nodes();
  /// Leaves reorder mode after sift() or reorder() -- normally or on a
  /// budget trip. Bumps reorder_epoch_ when `order_changed`.
  void finish_reorder(bool order_changed,
                      std::chrono::steady_clock::time_point start);
  std::size_t sift_one_block(const std::vector<Var>& block, double max_growth);
  std::size_t move_block_up(const std::vector<Var>& block);
  std::size_t move_block_down(const std::vector<Var>& block);
  std::size_t block_size_of(Var member) const;
  std::string var_desc(Var v) const;

  Bdd make_handle(NodeRef r) { return Bdd(this, r); }

  // Budget safe point: one predictable branch when no budget is armed.
  void poll_budget() {
    if (budget_armed_) poll_budget_slow();
  }
  void poll_budget_slow();
  [[noreturn]] void trip_budget(LimitKind kind);

  // Data.
  //
  // Node arena: at most kMaxChunks chunks of kChunkCapacity nodes. Fresh
  // slots are bump-allocated from nodes_size_; the free list recycles the
  // slots garbage collection released.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t nodes_size_ = 0;  // bump high-water mark
  std::uint32_t free_list_ = kNilIndex;
  std::size_t node_count_ = 0;  // nodes in table (live + dead)
  std::size_t dead_count_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t window_peak_live_ = 0;  // reset_peak_window()
  std::size_t gc_runs_ = 0;
  std::vector<std::uint32_t> free_stack_;  // free_dead()'s cascade, reused

  // Profiling state (see set_profiling).
  bool profiling_ = false;
  int profile_depth_ = 0;  // only the outermost wrapper accumulates
  std::array<double, kOpKindCount> op_seconds_{};
  double gc_seconds_ = 0;
  double sift_seconds_ = 0;
  std::size_t sift_runs_ = 0;
  TraceRecorder* trace_ = nullptr;  // borrowed; null = tracing disarmed

  /// RAII phase clock for the public wrappers: with profiling armed, the
  /// outermost instance on this manager accumulates its lifetime into
  /// op_seconds_[kind]; disarmed it is two branch instructions.
  struct ProfileTimer {
    ProfileTimer(Manager& m, OpKind kind) : m_(m) {
      if (m_.profiling_ && m_.profile_depth_++ == 0) {
        slot_ = &m_.op_seconds_[op_slot(kind)];
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~ProfileTimer() {
      if (slot_ != nullptr) {
        *slot_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
      }
      if (m_.profiling_) --m_.profile_depth_;
    }
    Manager& m_;
    double* slot_ = nullptr;
    std::chrono::steady_clock::time_point start_;
  };

  // Unique-table buckets: head node index per bucket.
  std::vector<std::uint32_t> buckets_;
  std::size_t bucket_mask_ = 0;

  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;

  // Hot-path statistics. Cache traffic and call counts are arrays indexed
  // by OpKind, which is what makes the per-op profile free: the increment
  // a scalar counter would pay anyway just lands in a distinguished slot.
  struct HotCounters {
    std::size_t unique_hits = 0;
    std::array<std::size_t, kOpKindCount> cache_hits{};
    std::array<std::size_t, kOpKindCount> cache_lookups{};
    std::array<std::size_t, kOpKindCount> calls{};
  };
  mutable HotCounters counters_{};
  static constexpr std::size_t op_slot(Op op) {
    return static_cast<std::size_t>(op);  // Op and OpKind tags align
  }
  static_assert(static_cast<std::size_t>(Op::kDisjoint) ==
                    static_cast<std::size_t>(OpKind::kDisjoint) &&
                static_cast<std::size_t>(OpKind::kAndExistsMulti) + 1 ==
                    kOpKindCount,
                "every Op tag must share its OpKind slot; the untagged "
                "slots come last");
  static constexpr std::size_t op_slot(OpKind kind) {
    return static_cast<std::size_t>(kind);
  }

  // REACH state: the rule list of the running reach() (sorted by top
  // level), its cache (allocated lazily on the first reach) and the
  // relation-list signature the cached entries belong to.
  std::vector<ReachRule> reach_rules_;
  std::vector<ReachCacheEntry> reach_cache_;
  std::size_t reach_cache_mask_ = 0;
  std::vector<NodeRef> reach_sig_;

  std::vector<std::size_t> var2level_;
  std::vector<Var> level2var_;
  std::vector<std::string> var_names_;

  static constexpr std::uint32_t kNoGroup =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> var_group_;  // var -> index into groups_
  std::vector<std::vector<Var>> groups_;
  std::size_t reorder_epoch_ = 0;

  mutable std::uint32_t stamp_counter_ = 0;

  bool sift_tracking_ = false;
  std::vector<std::vector<std::uint32_t>> nodes_at_var_;  // node indices

  bool gc_enabled_ = true;

  // Resource governance (set_budget).
  ResourceBudget budget_;
  bool budget_armed_ = false;
  std::chrono::steady_clock::time_point budget_start_{};
  std::size_t budget_steps_ = 0;
};

}  // namespace stgcheck::bdd
