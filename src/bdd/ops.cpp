// Recursive cores of the Boolean operations on attributed (complement)
// edges. Garbage collection never runs while a recursion is on the stack:
// handle-level wrappers compute the raw result, protect it with an
// external reference, and only then call maybe_gc().
//
// Complement-edge cache discipline: NOT is free (flip the flag), OR is
// De Morgan over AND, XOR strips both complement flags into an output
// flag, and ITE normalizes its standard triple (regular predicate, regular
// then-argument) -- so every variant of a call that differs only in
// argument polarity lands on one cache slot.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/error.hpp"

namespace stgcheck::bdd {

// ---------------------------------------------------------------------------
// Handle-level wrappers
// ---------------------------------------------------------------------------

Bdd Manager::apply_and(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kAnd)];
  ProfileTimer timer(*this, OpKind::kAnd);
  Bdd result = make_handle(and_rec(f.ref(), g.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::apply_or(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kAnd)];
  ProfileTimer timer(*this, OpKind::kAnd);
  Bdd result = make_handle(or_rec(f.ref(), g.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::apply_xor(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kXor)];
  ProfileTimer timer(*this, OpKind::kXor);
  Bdd result = make_handle(xor_rec(f.ref(), g.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::apply_not(const Bdd& f) {
  // O(1): negation is the complement flag of the edge.
  return make_handle(bdd_not(f.ref()));
}

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kIte)];
  ProfileTimer timer(*this, OpKind::kIte);
  Bdd result = make_handle(ite_rec(f.ref(), g.ref(), h.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::cofactor(const Bdd& f, const Bdd& cube) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kCofactor)];
  ProfileTimer timer(*this, OpKind::kCofactor);
  Bdd result = make_handle(cofactor_rec(f.ref(), cube.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::flip_image(const Bdd& f, const Bdd& flip, const Bdd& known) {
  poll_budget();
  for (NodeRef c = flip.ref(); c != kTrue;) {
    if (is_term(c) || (low_of(c) != kFalse && high_of(c) != kFalse)) {
      throw ModelError("flip_image: flip is not a cube");
    }
    c = low_of(c) == kFalse ? high_of(c) : low_of(c);
  }
  ++counters_.calls[op_slot(OpKind::kCofactor)];
  ProfileTimer timer(*this, OpKind::kCofactor);
  Bdd result =
      make_handle(flip_image_rec(f.ref(), flip.ref(), known.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kExists)];
  ProfileTimer timer(*this, OpKind::kExists);
  Bdd result = make_handle(exists_rec(f.ref(), cube.ref()));
  maybe_gc();
  return result;
}

Bdd Manager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kAndExists)];
  ProfileTimer timer(*this, OpKind::kAndExists);
  Bdd result = make_handle(and_exists_rec(f.ref(), g.ref(), cube.ref()));
  maybe_gc();
  return result;
}

std::string Manager::var_desc(Var v) const {
  std::string desc = "v";
  desc += std::to_string(v);
  desc += " ('" + var_names_[v] + "', level " +
          std::to_string(var2level_[v]) + ")";
  return desc;
}

bool Manager::disjoint(const Bdd& f, const Bdd& g) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kDisjoint)];
  ProfileTimer timer(*this, OpKind::kDisjoint);
  // No nodes are created, so there is nothing to protect and no GC to run.
  return disjoint_rec(f.ref(), g.ref());
}

bool Bdd::disjoint_with(const Bdd& other) const {
  return manager_->disjoint(*this, other);
}

bool Bdd::implies(const Bdd& other) const {
  return manager_->disjoint(*this, manager_->apply_not(other));
}

// ---------------------------------------------------------------------------
// AND / XOR (OR and NOT are De Morgan / flag flips; see the header)
// ---------------------------------------------------------------------------

NodeRef Manager::and_rec(NodeRef f, NodeRef g) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue) return f;
  if (f == g) return f;
  if (f == bdd_not(g)) return kFalse;
  if (f > g) std::swap(f, g);  // commutative: canonicalize for the cache

  NodeRef cached = cache_lookup(Op::kAnd, f, g, kFalse);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const NodeRef r = mk(v, and_rec(f0, g0), and_rec(f1, g1));
  cache_store(Op::kAnd, f, g, kFalse, r);
  return r;
}

NodeRef Manager::xor_rec(NodeRef f, NodeRef g) {
  if (f == kFalse) return g;
  if (g == kFalse) return f;
  if (f == kTrue) return bdd_not(g);
  if (g == kTrue) return bdd_not(f);
  if (f == g) return kFalse;
  if (f == bdd_not(g)) return kTrue;

  // xor(not f, g) == not xor(f, g): strip both flags into an output flag so
  // all four polarity variants share one cache slot.
  const NodeRef flag = (f ^ g) & 1u;
  f = edge_regular(f);
  g = edge_regular(g);
  if (f > g) std::swap(f, g);

  NodeRef cached = cache_lookup(Op::kXor, f, g, kFalse);
  if (cached != kInvalidRef) return cached ^ flag;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const NodeRef r = mk(v, xor_rec(f0, g0), xor_rec(f1, g1));
  cache_store(Op::kXor, f, g, kFalse, r);
  return r ^ flag;
}

// ---------------------------------------------------------------------------
// ITE
// ---------------------------------------------------------------------------

NodeRef Manager::ite_rec(NodeRef f, NodeRef g, NodeRef h) {
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (f == g) g = kTrue;                    // f ? f : h  ==  f ? 1 : h
  else if (f == bdd_not(g)) g = kFalse;     // f ? !f : h ==  f ? 0 : h
  if (f == h) h = kFalse;                   // f ? g : f  ==  f ? g : 0
  else if (f == bdd_not(h)) h = kTrue;      // f ? g : !f ==  f ? g : 1
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return bdd_not(f);
  // Two-operand escapes: route to AND/XOR (and their De Morgan duals) so
  // the general triple cache only ever sees genuine three-operand calls.
  if (h == kFalse) return and_rec(f, g);
  if (g == kFalse) return and_rec(bdd_not(f), h);
  if (g == kTrue) return or_rec(f, h);
  if (h == kTrue) return or_rec(bdd_not(f), g);
  if (g == bdd_not(h)) return bdd_not(xor_rec(f, g));

  // Standard triple normalization (Brace-Rudell-Bryant): make the
  // predicate regular (ite(!f,g,h) == ite(f,h,g)), then make the
  // then-argument regular by pulling the complement out of the result
  // (ite(f,!g,!h) == !ite(f,g,h)). Every (f, g, not-h) polarity variant of
  // a triple now shares a single cache slot.
  if (edge_complemented(f)) {
    f = bdd_not(f);
    std::swap(g, h);
  }
  NodeRef flag = 0;
  if (edge_complemented(g)) {
    flag = 1;
    g = bdd_not(g);
    h = bdd_not(h);
  }

  NodeRef cached = cache_lookup(Op::kIte, f, g, h);
  if (cached != kInvalidRef) return cached ^ flag;

  const std::size_t top =
      std::min({level(f), level(g), level(h)});
  const Var v = level2var_[top];
  const auto cof = [&](NodeRef x, bool hi) {
    if (level(x) != top) return x;
    return hi ? high_of(x) : low_of(x);
  };
  const NodeRef r = mk(v, ite_rec(cof(f, false), cof(g, false), cof(h, false)),
                       ite_rec(cof(f, true), cof(g, true), cof(h, true)));
  cache_store(Op::kIte, f, g, h, r);
  return r ^ flag;
}

// ---------------------------------------------------------------------------
// Cofactor with respect to a cube (positive and negative literals)
// ---------------------------------------------------------------------------

NodeRef Manager::cofactor_rec(NodeRef f, NodeRef cube) {
  if (is_term(f)) return f;
  // Skip cube literals whose level is above f's top (they do not constrain f).
  while (!is_term(cube) && level(cube) < level(f)) {
    const NodeRef clow = low_of(cube);
    cube = clow == kFalse ? high_of(cube) : clow;
  }
  if (is_term(cube)) return f;

  NodeRef cached = cache_lookup(Op::kCofactor, f, cube, kFalse);
  if (cached != kInvalidRef) return cached;

  // Copy fields before recursing: mk may reallocate the node vector.
  const Var v = deref(f).var;
  const NodeRef flow = low_of(f);
  const NodeRef fhigh = high_of(f);
  const NodeRef clow = low_of(cube);
  const NodeRef chigh = high_of(cube);
  NodeRef r;
  if (level(f) == level(cube)) {
    // Follow the polarity dictated by the cube.
    r = clow == kFalse ? cofactor_rec(fhigh, chigh)   // positive literal
                       : cofactor_rec(flow, clow);    // negative literal
  } else {
    const NodeRef low = cofactor_rec(flow, cube);
    r = mk(v, low, cofactor_rec(fhigh, cube));
  }
  cache_store(Op::kCofactor, f, cube, kFalse, r);
  return r;
}

NodeRef Manager::flip_image_rec(NodeRef f, NodeRef flip, NodeRef known) {
  if (f == kFalse || known == kTrue) return kFalse;
  if (flip == kTrue) return and_rec(f, bdd_not(known));  // nothing to flip

  // !known is never false here, so the key never meets a plain cofactor's.
  NodeRef cached = cache_lookup(Op::kCofactor, f, flip, bdd_not(known));
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lc = level(flip);
  const std::size_t lk = level(known);
  const std::size_t top = std::min({lf, lc, lk});
  const Var v = level2var_[top];
  NodeRef r;
  if (lc == top) {
    // Follow f's pre value (f is unconstrained by it when its top lies
    // below), test known at the post value, and emit the post literal.
    const bool pre_high = low_of(flip) == kFalse;
    const NodeRef fb = lf != top ? f : pre_high ? high_of(f) : low_of(f);
    const NodeRef kb = lk != top ? known : pre_high ? low_of(known)
                                                    : high_of(known);
    const NodeRef rest =
        flip_image_rec(fb, pre_high ? high_of(flip) : low_of(flip), kb);
    r = pre_high ? mk(v, rest, kFalse) : mk(v, kFalse, rest);
  } else {
    const NodeRef f0 = lf == top ? low_of(f) : f;
    const NodeRef f1 = lf == top ? high_of(f) : f;
    const NodeRef k0 = lk == top ? low_of(known) : known;
    const NodeRef k1 = lk == top ? high_of(known) : known;
    const NodeRef low = flip_image_rec(f0, flip, k0);
    r = mk(v, low, flip_image_rec(f1, flip, k1));
  }
  cache_store(Op::kCofactor, f, flip, bdd_not(known), r);
  return r;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

NodeRef Manager::exists_rec(NodeRef f, NodeRef cube) {
  if (is_term(f)) return f;
  while (!is_term(cube) && level(cube) < level(f)) cube = high_of(cube);
  if (is_term(cube)) return f;

  NodeRef cached = cache_lookup(Op::kExists, f, cube, kFalse);
  if (cached != kInvalidRef) return cached;

  // Copy fields before recursing: mk may reallocate the node vector.
  const Var v = deref(f).var;
  const NodeRef flow = low_of(f);
  const NodeRef fhigh = high_of(f);
  NodeRef r;
  if (level(f) == level(cube)) {
    const NodeRef rest = high_of(cube);
    const NodeRef low = exists_rec(flow, rest);
    if (low == kTrue) {
      r = kTrue;  // early termination: the disjunction is already everything
    } else {
      r = or_rec(low, exists_rec(fhigh, rest));
    }
  } else {
    const NodeRef low = exists_rec(flow, cube);
    r = mk(v, low, exists_rec(fhigh, cube));
  }
  cache_store(Op::kExists, f, cube, kFalse, r);
  return r;
}

NodeRef Manager::and_exists_rec(NodeRef f, NodeRef g, NodeRef cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == bdd_not(g)) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (f == kTrue) return exists_rec(g, cube);
  if (g == kTrue) return exists_rec(f, cube);
  if (f == g) return exists_rec(f, cube);
  if (f > g) std::swap(f, g);

  const std::size_t top = std::min(level(f), level(g));
  while (!is_term(cube) && level(cube) < top) cube = high_of(cube);
  if (is_term(cube)) return and_rec(f, g);

  NodeRef cached = cache_lookup(Op::kAndExists, f, g, cube);
  if (cached != kInvalidRef) return cached;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const Var v = level2var_[top];
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  NodeRef r;
  if (level(cube) == top) {
    const NodeRef rest = high_of(cube);
    const NodeRef low = and_exists_rec(f0, g0, rest);
    if (low == kTrue) {
      r = kTrue;
    } else {
      r = or_rec(low, and_exists_rec(f1, g1, rest));
    }
  } else {
    r = mk(v, and_exists_rec(f0, g0, cube), and_exists_rec(f1, g1, cube));
  }
  cache_store(Op::kAndExists, f, g, cube, r);
  return r;
}

// ---------------------------------------------------------------------------
// Disjointness (no new nodes are created; verdicts live in the computed
// cache as the terminal kTrue = disjoint / kFalse = intersecting)
// ---------------------------------------------------------------------------

bool Manager::disjoint_rec(NodeRef f, NodeRef g) {
  if (f == kFalse || g == kFalse) return true;
  if (f == kTrue || g == kTrue) return false;  // both non-false
  if (f == g) return false;
  if (f == bdd_not(g)) return true;  // f & !f == 0
  if (f > g) std::swap(f, g);

  const NodeRef cached = cache_lookup(Op::kDisjoint, f, g, kFalse);
  if (cached != kInvalidRef) return cached == kTrue;

  const std::size_t lf = level(f);
  const std::size_t lg = level(g);
  const std::size_t top = std::min(lf, lg);
  const NodeRef f0 = lf == top ? low_of(f) : f;
  const NodeRef f1 = lf == top ? high_of(f) : f;
  const NodeRef g0 = lg == top ? low_of(g) : g;
  const NodeRef g1 = lg == top ? high_of(g) : g;

  const bool result = disjoint_rec(f0, g0) && disjoint_rec(f1, g1);
  cache_store(Op::kDisjoint, f, g, kFalse, result ? kTrue : kFalse);
  return result;
}

// ---------------------------------------------------------------------------
// Many cubes against one function (no new nodes; the memo is private to
// the call, one open-addressing table of edge -> cube bits per chunk)
// ---------------------------------------------------------------------------

struct Manager::MeetWalk {
  std::uint64_t all = 0;            // the chunk's non-contradictory cubes
  std::vector<std::uint64_t> pos;   // per level: cubes allowing var = 1
  std::vector<std::uint64_t> neg;   // per level: cubes allowing var = 0
  std::vector<NodeRef> keys;        // kInvalidRef = empty slot
  std::vector<std::uint64_t> words;
  std::size_t used = 0;

  std::size_t slot(NodeRef e) const {
    const std::size_t mask = keys.size() - 1;
    std::size_t i = (static_cast<std::size_t>(e) * 0x9E3779B97F4A7C15ull) >> 32;
    for (i &= mask; keys[i] != kInvalidRef && keys[i] != e; i = (i + 1) & mask) {
    }
    return i;
  }
  void store(NodeRef e, std::uint64_t word) {
    // At most three quarters full. A walk usually memoizes about one edge
    // per node, but both polarities of a node may show up.
    if (4 * (used + 1) > 3 * keys.size()) {
      const std::vector<NodeRef> old_keys = std::exchange(
          keys, std::vector<NodeRef>(2 * keys.size(), kInvalidRef));
      const std::vector<std::uint64_t> old_words = std::exchange(
          words, std::vector<std::uint64_t>(2 * words.size()));
      for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (old_keys[i] == kInvalidRef) continue;
        const std::size_t j = slot(old_keys[i]);
        keys[j] = old_keys[i];
        words[j] = old_words[i];
      }
    }
    const std::size_t i = slot(e);
    keys[i] = e;
    words[i] = word;
    ++used;
  }
};

std::uint64_t Manager::meets_rec(NodeRef e, MeetWalk& walk) const {
  if (e == kTrue) return walk.all;
  if (e == kFalse) return 0;
  const std::size_t hit = walk.slot(e);
  if (walk.keys[hit] == e) return walk.words[hit];
  const std::size_t l = level(e);
  std::uint64_t meets = 0;
  if (walk.neg[l] != 0) meets = meets_rec(low_of(e), walk) & walk.neg[l];
  // The high child can only add cubes that allow var(l) = 1 and are not
  // already known to meet.
  if ((walk.pos[l] & ~meets) != 0) {
    meets |= meets_rec(high_of(e), walk) & walk.pos[l];
  }
  walk.store(e, meets);
  return meets;
}

std::vector<bool> Manager::cubes_meeting(
    const Bdd& f, const std::vector<CubeLiterals>& cubes) {
  poll_budget();
  ++counters_.calls[op_slot(OpKind::kDisjoint)];
  ProfileTimer timer(*this, OpKind::kDisjoint);
  for (const CubeLiterals& c : cubes) {
    for (const Literal& lit : c) {
      if (lit.var >= var2level_.size()) {
        throw ModelError("cubes_meeting: unknown variable v" +
                         std::to_string(lit.var));
      }
    }
  }
  std::vector<bool> result(cubes.size(), false);
  if (f.ref() == kFalse || cubes.empty()) return result;

  MeetWalk walk;
  const std::size_t nodes = count_nodes(f);
  std::size_t capacity = 16;
  while (3 * capacity < 4 * nodes) capacity <<= 1;
  walk.keys.resize(capacity);
  walk.words.resize(capacity);
  for (std::size_t first = 0; first < cubes.size(); first += 64) {
    const std::size_t n = std::min<std::size_t>(64, cubes.size() - first);
    const std::uint64_t chunk = n == 64 ? ~0ull : (1ull << n) - 1;
    walk.pos.assign(var2level_.size(), chunk);
    walk.neg.assign(var2level_.size(), chunk);
    walk.all = chunk;
    for (std::size_t c = 0; c < n; ++c) {
      const std::uint64_t bit = 1ull << c;
      for (const Literal& lit : cubes[first + c]) {
        const std::size_t l = var2level_[lit.var];
        (lit.positive ? walk.neg : walk.pos)[l] &= ~bit;
        if (((walk.pos[l] | walk.neg[l]) & bit) == 0) {
          walk.all &= ~bit;  // both polarities: the cube is empty
        }
      }
    }
    std::fill(walk.keys.begin(), walk.keys.end(), kInvalidRef);
    walk.used = 0;
    const std::uint64_t meets = meets_rec(f.ref(), walk);
    for (std::size_t c = 0; c < n; ++c) result[first + c] = (meets >> c) & 1u;
  }
  return result;
}

}  // namespace stgcheck::bdd
