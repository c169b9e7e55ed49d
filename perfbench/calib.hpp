// A machine-speed calibrator for the benchmark: a minimal BDD package,
// independent of src/, that solves one fixed N-queens problem.
//
// The benchmark's machine changes speed for minutes at a time, and every
// BDD instance slows by about the same factor. This package does the same
// kind of work as the library's kernel (hash-consing into a unique table,
// a direct-mapped computed table, deep recursion over node arrays), so it
// slows by that factor too, while no change under src/ can move it. The
// benchmark runs it between checks and reports check times at the
// calibrator's reference speed: measured time x reference / measured
// calibrator time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

class MiniBdd {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  explicit MiniBdd(unsigned log2_nodes)
      : unique_(std::size_t{1} << (log2_nodes + 1), kEmpty),
        cache_(std::size_t{1} << (log2_nodes - 2)) {
    nodes_.reserve(std::size_t{1} << log2_nodes);
    reset();
  }

  void reset() {
    nodes_.clear();
    nodes_.push_back({kTerminalVar, 0, 0});
    nodes_.push_back({kTerminalVar, 1, 1});
    std::fill(unique_.begin(), unique_.end(), kEmpty);
    std::fill(cache_.begin(), cache_.end(), Entry{});
  }

  std::size_t size() const { return nodes_.size(); }

  Ref var(std::uint32_t v) { return make(v, kFalse, kTrue); }
  Ref nvar(std::uint32_t v) { return make(v, kTrue, kFalse); }
  Ref land(Ref a, Ref b) { return apply(kAnd, a, b); }
  Ref lor(Ref a, Ref b) { return apply(kOr, a, b); }

 private:
  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;
  static constexpr Ref kEmpty = 0xffffffffu;
  enum Op : std::uint32_t { kAnd = 1, kOr = 2 };

  struct Node {
    std::uint32_t var;
    Ref lo;
    Ref hi;
  };
  struct Entry {
    Ref a = kEmpty;
    Ref b = kEmpty;
    std::uint32_t op = 0;
    Ref result = 0;
  };

  static std::uint64_t mix(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  Ref make(std::uint32_t v, Ref lo, Ref hi) {
    if (lo == hi) return lo;
    const std::size_t mask = unique_.size() - 1;
    std::size_t slot =
        mix((std::uint64_t{v} << 42) ^ (std::uint64_t{lo} << 21) ^ hi) & mask;
    while (unique_[slot] != kEmpty) {
      const Node& n = nodes_[unique_[slot]];
      if (n.var == v && n.lo == lo && n.hi == hi) return unique_[slot];
      slot = (slot + 1) & mask;
    }
    if (nodes_.size() == nodes_.capacity()) {
      throw std::length_error("calibrator node table full");
    }
    const auto r = static_cast<Ref>(nodes_.size());
    nodes_.push_back({v, lo, hi});
    unique_[slot] = r;
    return r;
  }

  Ref apply(Op op, Ref a, Ref b) {
    if (op == kAnd) {
      if (a == kFalse || b == kFalse) return kFalse;
      if (a == kTrue) return b;
      if (b == kTrue || a == b) return a;
    } else {
      if (a == kTrue || b == kTrue) return kTrue;
      if (a == kFalse) return b;
      if (b == kFalse || a == b) return a;
    }
    if (a > b) std::swap(a, b);
    Entry& e = cache_[mix((std::uint64_t{a} << 32) ^ b ^ (std::uint64_t{op} << 62)) &
                      (cache_.size() - 1)];
    if (e.a == a && e.b == b && e.op == op) return e.result;
    const Node na = nodes_[a];
    const Node nb = nodes_[b];
    const std::uint32_t v = na.var < nb.var ? na.var : nb.var;
    const Ref a0 = na.var == v ? na.lo : a;
    const Ref a1 = na.var == v ? na.hi : a;
    const Ref b0 = nb.var == v ? nb.lo : b;
    const Ref b1 = nb.var == v ? nb.hi : b;
    const Ref lo = apply(op, a0, b0);
    const Ref hi = apply(op, a1, b1);
    const Ref r = make(v, lo, hi);
    e = {a, b, op, r};
    return r;
  }

  std::vector<Node> nodes_;
  std::vector<Ref> unique_;
  std::vector<Entry> cache_;
};

/// Builds the N-queens BDD (one variable per square, row-major order) and
/// returns its node table size, a fixed number for a given n.
inline std::size_t queens(MiniBdd& m, unsigned n) {
  m.reset();
  const auto sq = [n](unsigned r, unsigned c) { return r * n + c; };
  MiniBdd::Ref all = MiniBdd::kTrue;
  for (unsigned r = 0; r < n; ++r) {
    MiniBdd::Ref row = MiniBdd::kFalse;
    for (unsigned c = 0; c < n; ++c) row = m.lor(row, m.var(sq(r, c)));
    all = m.land(all, row);
  }
  for (unsigned r = 0; r < n; ++r) {
    for (unsigned c = 0; c < n; ++c) {
      // A queen on (r, c) excludes every square it attacks.
      MiniBdd::Ref safe = MiniBdd::kTrue;
      for (unsigned r2 = 0; r2 < n; ++r2) {
        for (unsigned c2 = 0; c2 < n; ++c2) {
          if (r2 == r && c2 == c) continue;
          const int dr = static_cast<int>(r2) - static_cast<int>(r);
          const int dc = static_cast<int>(c2) - static_cast<int>(c);
          if (r2 == r || c2 == c || dr == dc || dr == -dc) {
            safe = m.land(safe, m.nvar(sq(r2, c2)));
          }
        }
      }
      all = m.land(all, m.lor(m.nvar(sq(r, c)), safe));
    }
  }
  return m.size();
}

}  // namespace perfbench
