// Structural analysis: support, node counting, SAT counting, minterm
// extraction and text/dot output. None of these allocate BDD nodes except
// pick_one_minterm (which builds a cube).
//
// With complement edges a function and its negation share one graph, so
// every walk here visits *nodes* (stamped by table index, complement flag
// ignored) while the value-dependent recursions (SAT counting, eval)
// thread the flag through: a complemented edge contributes 1 - p where a
// regular edge contributes p.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"

namespace stgcheck::bdd {

std::uint32_t Manager::next_stamp() const {
  return ++stamp_counter_;
}

// ---------------------------------------------------------------------------
// Support
// ---------------------------------------------------------------------------

std::vector<Var> Manager::support(const Bdd& f) const {
  std::vector<bool> seen_var(var2level_.size(), false);
  const std::uint32_t stamp = next_stamp();
  std::vector<NodeRef> stack{f.ref()};
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (is_term(r)) continue;
    const Node& n = deref(r);
    if (n.stamp == stamp) continue;
    n.stamp = stamp;
    seen_var[n.var] = true;
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  std::vector<Var> vars;
  for (Var v = 0; v < seen_var.size(); ++v) {
    if (seen_var[v]) vars.push_back(v);
  }
  std::sort(vars.begin(), vars.end(), [this](Var a, Var b) {
    return var2level_[a] < var2level_[b];
  });
  return vars;
}

// ---------------------------------------------------------------------------
// Node counting
// ---------------------------------------------------------------------------

std::size_t Manager::count_nodes(const Bdd& f) const {
  return count_nodes(std::vector<Bdd>{f});
}

std::size_t Manager::count_nodes(const std::vector<Bdd>& fs) const {
  const std::uint32_t stamp = next_stamp();
  std::size_t count = 0;
  std::vector<NodeRef> stack;
  for (const Bdd& f : fs) {
    if (f.valid()) stack.push_back(f.ref());
  }
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (is_term(r)) continue;
    const Node& n = deref(r);
    if (n.stamp == stamp) continue;
    n.stamp = stamp;
    ++count;
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  return count;
}

// ---------------------------------------------------------------------------
// SAT counting
// ---------------------------------------------------------------------------

double Manager::sat_count(const Bdd& f) const {
  return sat_count(f, var2level_.size());
}

double Manager::sat_count(const Bdd& f, std::size_t nvars, bool* exact) const {
  // Satisfaction probability over uniform assignments, times 2^n. The
  // probability is memoized per *edge*, complement flag included, and the
  // flag is pushed down through low_of/high_of until it hits a terminal.
  // Computing a complemented edge as 1 - p(node) would be catastrophic
  // here: for a sparse function over n > 53 variables, p(node) rounds to
  // exactly 1.0 in double and the complement cancels to zero minterms.
  //
  // Exactness: a halving is exact unless it drops the last bit of a
  // subnormal (doubling it back then differs), and for non-negative
  // a <= b the sum s = a + b is exact iff s - b == a (Dekker's Fast2Sum:
  // s - b is computed without error, and a - (s - b) is the sum's error).
  bool lossless = true;
  std::unordered_map<NodeRef, double> prob;
  std::function<double(NodeRef)> go = [&](NodeRef e) -> double {
    if (e == kTrue) return 1.0;
    if (e == kFalse) return 0.0;
    const auto it = prob.find(e);
    if (it != prob.end()) return it->second;
    const double lo = go(low_of(e));
    const double hi = go(high_of(e));
    const double half_lo = 0.5 * lo;
    const double half_hi = 0.5 * hi;
    const double p = half_lo + half_hi;
    lossless = lossless && 2 * half_lo == lo && 2 * half_hi == hi &&
               p - std::max(half_lo, half_hi) == std::min(half_lo, half_hi);
    prob.emplace(e, p);
    return p;
  };
  const double count = std::ldexp(go(f.ref()), static_cast<int>(nvars));
  if (exact != nullptr) *exact = lossless && std::isfinite(count);
  return count;
}

// ---------------------------------------------------------------------------
// Evaluation and minterms
// ---------------------------------------------------------------------------

bool Manager::eval(const Bdd& f, const std::vector<bool>& assignment) const {
  NodeRef r = f.ref();
  while (!is_term(r)) {
    const Var v = deref(r).var;
    if (v >= assignment.size()) throw ModelError("eval: assignment too short");
    r = assignment[v] ? high_of(r) : low_of(r);
  }
  return r == kTrue;
}

Bdd Manager::pick_one_minterm(const Bdd& f, const std::vector<Var>& vars) {
  return pick_one_minterm(f, bdd_true(), vars);
}

Bdd Manager::pick_one_minterm(const Bdd& f, const Bdd& g,
                              const std::vector<Var>& vars) {
  if (disjoint(f, g)) throw ModelError("pick_one_minterm: empty set");
  CubeLiterals literals;
  literals.reserve(vars.size());
  // The walk of pick_one_minterm(f & g): the product's low branch is
  // non-false iff the two low cofactors intersect. disjoint_rec memoizes
  // its verdicts, so the steering tests share one walk.
  std::vector<bool> chosen(var2level_.size(), false);
  std::vector<bool> value(var2level_.size(), false);
  NodeRef a = f.ref();
  NodeRef b = g.ref();
  while (!is_term(a) || !is_term(b)) {
    const std::size_t top = std::min(level(a), level(b));
    const Var v = level2var_[top];
    const NodeRef a0 = level(a) == top ? low_of(a) : a;
    const NodeRef a1 = level(a) == top ? high_of(a) : a;
    const NodeRef b0 = level(b) == top ? low_of(b) : b;
    const NodeRef b1 = level(b) == top ? high_of(b) : b;
    const bool go_high = disjoint_rec(a0, b0);
    chosen[v] = true;
    value[v] = go_high;
    a = go_high ? a1 : a0;
    b = go_high ? b1 : b0;
  }
  assert(a == kTrue && b == kTrue);
  for (Var v : vars) {
    literals.push_back(Literal{v, chosen[v] ? value[v] : false});
  }
  return cube(literals);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Manager::to_dot(
    const std::vector<std::pair<std::string, Bdd>>& roots) const {
  std::ostringstream out;
  out << "digraph bdd {\n  rankdir=TB;\n";
  // Complemented edges get a dot-shaped arrowhead; the single terminal is 1.
  const auto edge_attrs = [](NodeRef e, bool dashed) {
    std::string attrs;
    if (dashed) attrs += "style=dashed";
    if (edge_complemented(e)) {
      if (!attrs.empty()) attrs += ", ";
      attrs += "arrowhead=odot";
    }
    return attrs.empty() ? std::string() : " [" + attrs + "]";
  };
  const std::uint32_t stamp = next_stamp();
  std::vector<NodeRef> stack;
  for (const auto& [name, f] : roots) {
    out << "  \"" << name << "\" [shape=plaintext];\n";
    out << "  \"" << name << "\" -> n" << edge_index(f.ref())
        << edge_attrs(f.ref(), false) << ";\n";
    stack.push_back(f.ref());
  }
  out << "  n0 [label=\"1\", shape=box];\n";
  while (!stack.empty()) {
    const NodeRef r = stack.back();
    stack.pop_back();
    if (is_term(r)) continue;
    const Node& n = deref(r);
    if (n.stamp == stamp) continue;
    n.stamp = stamp;
    const std::uint32_t idx = edge_index(r);
    out << "  n" << idx << " [label=\"" << var_names_[n.var] << "\"];\n";
    out << "  n" << idx << " -> n" << edge_index(n.low)
        << edge_attrs(n.low, true) << ";\n";
    out << "  n" << idx << " -> n" << edge_index(n.high)
        << edge_attrs(n.high, false) << ";\n";
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  out << "}\n";
  return out.str();
}

std::string Manager::to_string(const Bdd& f, std::size_t max_cubes) {
  if (f.is_false()) return "0";
  if (f.is_true()) return "1";
  Bdd cover_fn;
  const std::vector<CubeLiterals> cover = isop(f, f, &cover_fn);
  std::ostringstream out;
  std::size_t shown = 0;
  for (const CubeLiterals& c : cover) {
    if (shown == max_cubes) {
      out << " + ... (" << cover.size() - shown << " more)";
      break;
    }
    if (shown > 0) out << " + ";
    if (c.empty()) out << "1";
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i > 0) out << "&";
      out << var_names_[c[i].var] << (c[i].positive ? "" : "'");
    }
    ++shown;
  }
  return out.str();
}

}  // namespace stgcheck::bdd
