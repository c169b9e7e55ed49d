// The in-kernel reachability operations: the twin-pair relational product
// (rel_next) and the saturation REACH fixpoint built on it.
//
// Both operations assume the twin-pair layout the primed encodings
// maintain: every unprimed support variable v of a relation has its
// next-state twin directly below it in the current order (variable groups
// keep the pair adjacent through every reorder). The kernel identifies
// the twin *positionally* -- it is whatever variable sits at
// level(v) + 1 -- so the operations need no rename map, and the computed
// caches stay sound across reorders because every reorder clears them.
//
// rel_next is a single product: quantify the support, substitute each
// twin back onto its unprimed variable, all in one recursion, so no
// primed intermediate is ever built. It is the kernel's only rename: the
// saturation engine images one sparse relation with it, the monolithic
// engine its whole full-frame relation (support = every state variable).
//
// reach pushes the whole reachability fixpoint below the apply layer
// (Brand, Baeck & Laarman, "A Decision Diagram Operation for
// Reachability", arXiv:2212.03684, generalized to a partitioned relation
// list in the saturation style). Relations are sorted by the current
// level of their top support variable; reach_rec(s, i) computes the
// least fixpoint of s under rules[i..): descend while s branches above
// every remaining rule's support (no rule can change those variables, so
// the fixpoint decomposes per branch), otherwise saturate -- close under
// the deeper rules first, fire rule i once, and repeat until nothing new
// appears. Low variables are therefore saturated before high ones ever
// see a frontier, which is what keeps the intermediate BDDs local.
//
// As everywhere in the kernel, garbage collection never runs while a
// recursion is on the stack; the handle-level wrappers protect the result
// and only then call maybe_gc().
#include "bdd/bdd.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace stgcheck::bdd {

// ---------------------------------------------------------------------------
// Operand validation
// ---------------------------------------------------------------------------

void Manager::validate_reach_relation(const Bdd& rel, const Bdd& support,
                                      std::vector<char>& twin_mask) const {
  if (rel.manager() != this || support.manager() != this) {
    throw ModelError("reach/rel_next: operand from a different manager");
  }
  // The support must be a positive cube; its variables and their
  // positional twins are the only variables the relation may mention. The
  // twins accumulate into `twin_mask` so the caller can check the state
  // set against every relation's twins in one pass over its support.
  const CubeLiterals literals = cube_literals(support);
  std::vector<char> is_support(var2level_.size(), 0);
  std::vector<char> is_twin(var2level_.size(), 0);
  for (const Literal& l : literals) {
    if (!l.positive) {
      throw ModelError("reach/rel_next: support cube has a negative literal "
                       "for " + var_desc(l.var));
    }
    is_support[l.var] = 1;
  }
  for (const Literal& l : literals) {
    const std::size_t twin_level = var2level_[l.var] + 1;
    if (twin_level >= level2var_.size()) {
      throw ModelError("reach/rel_next: support variable " + var_desc(l.var) +
                       " is at the bottom of the order, so no variable below "
                       "it can act as its next-state twin");
    }
    const Var twin = level2var_[twin_level];
    if (is_support[twin]) {
      throw ModelError("reach/rel_next: support variables " +
                       var_desc(l.var) + " and " + var_desc(twin) +
                       " are adjacent in the order; each support variable "
                       "needs its next-state twin directly below it");
    }
    is_twin[twin] = 1;
    twin_mask[twin] = 1;
  }
  for (const Var v : this->support(rel)) {
    if (!is_support[v] && !is_twin[v]) {
      throw ModelError("reach/rel_next: relation mentions " + var_desc(v) +
                       ", which is neither a support variable nor the "
                       "next-state twin of one");
    }
  }
}

void Manager::validate_reach_states(const Bdd& states,
                                    const std::vector<char>& twin_mask) const {
  if (states.manager() != this) {
    throw ModelError("reach/rel_next: operand from a different manager");
  }
  for (const Var v : this->support(states)) {
    if (twin_mask[v]) {
      throw ModelError("reach/rel_next: state set mentions " + var_desc(v) +
                       ", the next-state twin of a support variable");
    }
  }
}

// ---------------------------------------------------------------------------
// rel_next
// ---------------------------------------------------------------------------

Bdd Manager::rel_next(const Bdd& states, const Bdd& rel, const Bdd& support) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kRelNext)];
  ProfileTimer timer(*this, OpKind::kRelNext);
  std::vector<char> twin_mask(var2level_.size(), 0);
  validate_reach_relation(rel, support, twin_mask);
  validate_reach_states(states, twin_mask);
  Bdd result =
      make_handle(rel_next_rec(states.ref(), rel.ref(), support.ref()));
  maybe_gc();
  return result;
}

NodeRef Manager::rel_next_rec(NodeRef s, NodeRef r, NodeRef cube) {
  if (s == kFalse || r == kFalse) return kFalse;
  // Pairs above everything s and r test contribute only identity: exists v
  // of a function independent of v, and a substitution with no twin
  // present. (level(cube) + 1 is the pair's twin level.)
  const std::size_t top = std::min(level(s), level(r));
  while (!is_term(cube) && level(cube) + 1 < top) cube = high_of(cube);
  // Once the cube is exhausted no pair at or below `top` remains, and the
  // relation's support lives on pair levels (validated), so r is a
  // terminal here.
  if (is_term(cube)) return and_rec(s, r);

  const NodeRef cached = cache_lookup(Op::kRelNext, s, r, cube);
  if (cached != kInvalidRef) return cached;

  // Copy fields before recursing: mk may reallocate the node vector.
  const std::size_t lv = level(cube);
  NodeRef result;
  if (top < lv) {
    // A state variable above the current pair: neither quantified nor
    // substituted -- pure frame. Branch on it and keep it in place.
    const Var u = level2var_[top];
    const NodeRef s0 = level(s) == top ? low_of(s) : s;
    const NodeRef s1 = level(s) == top ? high_of(s) : s;
    const NodeRef r0 = level(r) == top ? low_of(r) : r;
    const NodeRef r1 = level(r) == top ? high_of(r) : r;
    const NodeRef low = rel_next_rec(s0, r0, cube);
    result = mk(u, low, rel_next_rec(s1, r1, cube));
  } else {
    // Process the pair (v at lv, its twin at lv + 1): quantify v, split
    // the relation on the twin, and rebuild the twin's branches on v
    // itself -- the substitution twin(v) := v happens in this mk.
    const Var v = deref(cube).var;
    const std::size_t lw = lv + 1;
    const NodeRef rest = high_of(cube);
    const NodeRef s0 = level(s) == lv ? low_of(s) : s;
    const NodeRef s1 = level(s) == lv ? high_of(s) : s;
    const NodeRef r0 = level(r) == lv ? low_of(r) : r;
    const NodeRef r1 = level(r) == lv ? high_of(r) : r;
    const NodeRef r00 = level(r0) == lw ? low_of(r0) : r0;
    const NodeRef r01 = level(r0) == lw ? high_of(r0) : r0;
    const NodeRef r10 = level(r1) == lw ? low_of(r1) : r1;
    const NodeRef r11 = level(r1) == lw ? high_of(r1) : r1;
    const NodeRef low = or_rec(rel_next_rec(s0, r00, rest),
                               rel_next_rec(s1, r10, rest));
    const NodeRef high = or_rec(rel_next_rec(s0, r01, rest),
                                rel_next_rec(s1, r11, rest));
    result = mk(v, low, high);
  }
  cache_store(Op::kRelNext, s, r, cube, result);
  return result;
}

// ---------------------------------------------------------------------------
// reach
// ---------------------------------------------------------------------------

Bdd Manager::reach(const Bdd& states,
                   const std::vector<ReachRelation>& relations) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kReach)];
  ProfileTimer timer(*this, OpKind::kReach);
  std::vector<ReachRule> rules;
  rules.reserve(relations.size());
  std::vector<char> twin_mask(var2level_.size(), 0);
  for (const ReachRelation& r : relations) {
    validate_reach_relation(r.rel, r.support, twin_mask);
    // A false relation fires nothing; a relation with an empty support
    // constrains nothing (its product is the identity). Both are dropped.
    if (r.rel.ref() == kFalse || is_term(r.support.ref())) continue;
    rules.push_back(
        ReachRule{r.rel.ref(), r.support.ref(), level(r.support.ref())});
  }
  // One pass over the state set's support against every relation's twins
  // (per-relation checks would walk the whole seed BDD once per rule).
  validate_reach_states(states, twin_mask);
  // Topmost support first; ties keep the caller's order (determinism).
  std::stable_sort(rules.begin(), rules.end(),
                   [](const ReachRule& a, const ReachRule& b) {
                     return a.top < b.top;
                   });

  // The (states, rule) cache key is exact only for this rule list: a call
  // with a different list flushes the entries first.
  std::vector<NodeRef> sig;
  sig.reserve(rules.size() * 2);
  for (const ReachRule& r : rules) {
    sig.push_back(r.rel);
    sig.push_back(r.cube);
  }
  if (sig != reach_sig_) {
    for (ReachCacheEntry& e : reach_cache_) e = ReachCacheEntry{};
    reach_sig_ = std::move(sig);
  }

  reach_rules_ = std::move(rules);
  NodeRef raw;
  try {
    raw = reach_rec(states.ref(), 0);
  } catch (...) {
    // A budget trip unwinds out of reach_rec's rule loop: the rule list
    // holds raw edges owned by the caller's handles, so it must not
    // survive this call. The nodes built so far stay (garbage until the
    // next GC) -- the table itself is consistent.
    reach_rules_.clear();
    throw;
  }
  Bdd result = make_handle(raw);
  reach_rules_.clear();
  maybe_gc();
  return result;
}

NodeRef Manager::reach_rec(NodeRef s, std::size_t rule) {
  // Terminals are fixpoints of everything: false seeds nothing and true is
  // already every state. Past the last rule there is nothing to fire.
  if (is_term(s) || rule == reach_rules_.size()) return s;

  const NodeRef cached = reach_cache_lookup(s, rule);
  if (cached != kInvalidRef) return cached;

  const std::size_t top = reach_rules_[rule].top;
  NodeRef result;
  if (level(s) < top) {
    // s branches on a variable above every remaining rule's support: no
    // rule can change it, so the fixpoint decomposes per branch.
    const Var v = deref(s).var;
    const NodeRef s_low = low_of(s);
    const NodeRef s_high = high_of(s);
    const NodeRef low = reach_rec(s_low, rule);
    result = mk(v, low, reach_rec(s_high, rule));
  } else {
    // Saturate: close under the deeper rules first, fire this rule once,
    // and repeat until a round adds nothing -- then the set is closed
    // under this rule *and* (by the final inner call) every deeper one.
    NodeRef cur = s;
    for (;;) {
      // Budget safe point: one saturation iteration is one budget step.
      // The unwind out of this recursion is clean -- only raw edges are
      // on the stack and reach()'s wrapper clears the rule list.
      count_budget_step();
      cur = reach_rec(cur, rule + 1);
      if (cur == kTrue) break;
      const NodeRef rel = reach_rules_[rule].rel;
      const NodeRef cube = reach_rules_[rule].cube;
      // One saturation rule firing: an in-kernel rel_next application,
      // counted on the kRelNext slot and spanned when tracing is armed.
      ++counters_.calls[op_slot(OpKind::kRelNext)];
      TraceSpan firing(trace_, "reach_rule", "kernel");
      firing.arg("rule", static_cast<double>(rule));
      const NodeRef step = rel_next_rec(cur, rel, cube);
      const NodeRef next = or_rec(cur, step);
      if (next == cur) break;
      cur = next;
    }
    result = cur;
  }
  reach_cache_store(s, rule, result);
  return result;
}

// ---------------------------------------------------------------------------
// The REACH cache
// ---------------------------------------------------------------------------

std::size_t Manager::reach_hash(NodeRef states, std::size_t rule) const {
  std::uint64_t h = static_cast<std::uint64_t>(states) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(rule) + 0x517cc1b727220a95ULL) *
       0xff51afd7ed558ccdULL;
  h ^= static_cast<std::uint64_t>(Op::kReach) << 56;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

NodeRef Manager::reach_cache_lookup(NodeRef states, std::size_t rule) const {
  ++counters_.cache_lookups[op_slot(Op::kReach)];
  if (reach_cache_.empty()) return kInvalidRef;
  const ReachCacheEntry& e =
      reach_cache_[reach_hash(states, rule) & reach_cache_mask_];
  if (e.result != kInvalidRef && e.states == states && e.rule == rule) {
    ++counters_.cache_hits[op_slot(Op::kReach)];
    return e.result;
  }
  return kInvalidRef;
}

void Manager::reach_cache_store(NodeRef states, std::size_t rule,
                                NodeRef result) {
  if (reach_cache_.empty()) {
    reach_cache_.resize(kReachCacheSize);
    reach_cache_mask_ = kReachCacheSize - 1;
  }
  reach_cache_[reach_hash(states, rule) & reach_cache_mask_] =
      ReachCacheEntry{states, static_cast<std::uint32_t>(rule), result};
}

}  // namespace stgcheck::bdd
