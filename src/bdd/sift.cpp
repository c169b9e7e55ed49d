// Rudell sifting with variable groups. Each block -- a registered group
// of variables or a single ungrouped variable -- is moved through the
// order by repeated adjacent-level swaps and settled at the position where
// the live node count is minimal. Blocks never split: a group registered
// with group_vars() keeps its members contiguous and in their registered
// internal order across every reorder, which is what lets transition-
// relation encodings keep each primed twin directly below its variable
// while the pair still finds its best position.
//
// A swap of levels (l, l+1) with upper variable x and lower variable y
// rewrites, in place, every x-node that has a y-child:
//
//     (x, f, g)  ==>  (y, mk(x, f0, g0), mk(x, f1, g1))
//
// where f0/f1 (g0/g1) are the y-cofactors of f (g), complement flags
// included. In-place rewriting preserves node identity, so parents and
// external handles stay valid -- including their complement flags, because
// the rewritten node keeps denoting exactly the same function. The
// then-edge of the rewritten node stays regular by construction: its high
// child is either a stored then-edge (regular by the canonical form) or
// the node's own then-edge, so mk never has to pull a complement out; an
// assert documents the invariant. x-nodes without y-children and y-nodes
// referenced from above levels are untouched. Reference counts (parents +
// external handles) are exact in this package, so the live node count
// used to score positions is exact.
//
// Moving a block past a neighbouring block of size m costs size * m
// adjacent swaps (each variable of one block crosses each variable of the
// other); mid-move a neighbour is temporarily split, but every block move
// restores all groups before the position is scored.
//
// sift() polls the armed budget (set_budget) after every block move: a
// sift of a large table runs for seconds, and a deadline or cancel must
// not wait for it to finish. The table is canonical after every swap and
// every group is contiguous between block moves, so a trip there leaves
// a valid, merely less optimized order behind.
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace stgcheck::bdd {

namespace {

/// Children of an edge split against the variable below: (low, high) with
/// the edge's complement flag applied if it is a node of that variable,
/// (edge, edge) otherwise.
struct Split {
  NodeRef low;
  NodeRef high;
};

}  // namespace

// ---------------------------------------------------------------------------
// Variable groups
// ---------------------------------------------------------------------------

void Manager::group_vars(const std::vector<Var>& vars) {
  if (vars.size() < 2) {
    throw ModelError("group_vars: a group needs at least two variables");
  }
  for (Var v : vars) {
    if (v >= var2level_.size()) {
      throw ModelError("group_vars: unknown variable v" + std::to_string(v));
    }
    if (var_group_[v] != kNoGroup) {
      throw ModelError("group_vars: variable " + var_desc(v) +
                       " is already in a group");
    }
  }
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (var2level_[vars[i]] != var2level_[vars[i - 1]] + 1) {
      throw ModelError("group_vars: variables " + var_desc(vars[i - 1]) +
                       " and " + var_desc(vars[i]) +
                       " are not at adjacent levels");
    }
  }
  const std::uint32_t g = static_cast<std::uint32_t>(groups_.size());
  for (Var v : vars) var_group_[v] = g;
  groups_.push_back(vars);
}

std::size_t Manager::block_size_of(Var member) const {
  return var_group_[member] == kNoGroup ? 1
                                        : groups_[var_group_[member]].size();
}

// ---------------------------------------------------------------------------
// Sifting
// ---------------------------------------------------------------------------

std::size_t Manager::sift(double max_growth) {
  if (var2level_.size() < 2) return live_nodes();

  ++sift_runs_;
  TraceSpan span(trace_, "sift", "kernel");
  const auto sift_start = profiling_ ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};

  collect_garbage();  // exact live counts; flushes all dead nodes
  clear_cache();      // node rewrites invalidate every cached result
  gc_enabled_ = false;
  sift_tracking_ = true;
  gather_var_nodes();
  const std::vector<Var> order_before = level2var_;

  // One block per group plus one per ungrouped variable, sifted in
  // decreasing order of node population: big layers first.
  std::vector<std::vector<Var>> blocks;
  blocks.reserve(groups_.size() + var2level_.size());
  for (const std::vector<Var>& g : groups_) blocks.push_back(g);
  for (Var v = 0; v < var2level_.size(); ++v) {
    if (var_group_[v] == kNoGroup) blocks.push_back({v});
  }
  const auto population = [this](const std::vector<Var>& block) {
    std::size_t n = 0;
    for (Var v : block) n += nodes_at_var_[v].size();
    return n;
  };
  std::sort(blocks.begin(), blocks.end(),
            [&](const std::vector<Var>& a, const std::vector<Var>& b) {
              return population(a) > population(b);
            });

  try {
    for (const std::vector<Var>& block : blocks) {
      sift_one_block(block, max_growth);
    }
  } catch (const CancelledError&) {
    // A budget trip between two block moves. Nothing cached may survive
    // the half-finished reorder, and engines must resync if the order
    // moved at all.
    clear_cache();
    finish_reorder(level2var_ != order_before, sift_start);
    throw;
  }
  finish_reorder(true, sift_start);
  return live_nodes();
}

void Manager::finish_reorder(bool order_changed,
                             std::chrono::steady_clock::time_point start) {
  sift_tracking_ = false;
  nodes_at_var_.clear();
  gc_enabled_ = true;
  if (order_changed) ++reorder_epoch_;
  collect_garbage();
  if (profiling_) {
    sift_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
}

std::size_t Manager::sift_one_block(const std::vector<Var>& block,
                                    double max_growth) {
  const std::size_t levels = level2var_.size();
  const std::size_t k = block.size();
  if (k >= levels) return live_nodes();  // the block is the whole order
  std::size_t best_size = live_nodes();
  // Positions are identified by the block's top level: the surrounding
  // block sequence never changes, so each reachable position has a unique,
  // stable top level that the settling loop below can steer back to.
  std::size_t best_top = var2level_[block.front()];

  const auto sweep = [&](bool upward) {
    while (upward ? var2level_[block.front()] > 0
                  : var2level_[block.front()] + k < levels) {
      const std::size_t size =
          upward ? move_block_up(block) : move_block_down(block);
      poll_budget();
      if (size < best_size) {
        best_size = size;
        best_top = var2level_[block.front()];
      } else if (static_cast<double>(size) >
                 max_growth * static_cast<double>(best_size)) {
        break;  // growing too much in this direction
      }
    }
  };

  // Visit the nearer end of the order first: fewer swaps to undo.
  const std::size_t top = var2level_[block.front()];
  const bool up_first = top < levels - k - top;
  sweep(up_first);
  sweep(!up_first);
  while (var2level_[block.front()] > best_top) {
    move_block_up(block);
    poll_budget();
  }
  while (var2level_[block.front()] < best_top) {
    move_block_down(block);
    poll_budget();
  }
  return best_size;
}

std::size_t Manager::move_block_up(const std::vector<Var>& block) {
  const std::size_t k = block.size();
  const std::size_t top = var2level_[block.front()];
  assert(top > 0);
  // Bubble each variable of the block above down through ours, bottom of
  // that block first, which preserves its internal order.
  const std::size_t m = block_size_of(level2var_[top - 1]);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t lev = top - 1 - j; lev < top - 1 - j + k; ++lev) {
      swap_levels(lev);
    }
  }
  return live_nodes();
}

std::size_t Manager::move_block_down(const std::vector<Var>& block) {
  const std::size_t k = block.size();
  const std::size_t top = var2level_[block.front()];
  assert(top + k < level2var_.size());
  // Bubble each variable of the block below up through ours, top of that
  // block first, which preserves its internal order.
  const std::size_t m = block_size_of(level2var_[top + k]);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t lev = top + j + k; lev > top + j; --lev) {
      swap_levels(lev - 1);
    }
  }
  return live_nodes();
}

std::size_t Manager::sift_converged(double max_growth) {
  // A single sift pass settles each block against a frozen snapshot of the
  // others; repeating lets blocks react to their neighbours' new homes.
  // Stop as soon as a pass buys less than 1% (integer arithmetic: an
  // improvement of before/100 nodes or fewer does not count), with a hard
  // pass cap so a slowly oscillating table cannot spin forever.
  std::size_t before = live_nodes();
  std::size_t after = before;
  for (int pass = 0; pass < 8; ++pass) {
    after = sift(max_growth);
    if (after + before / 100 >= before) break;
    before = after;
  }
  return after;
}

// ---------------------------------------------------------------------------
// Explicit reorder
// ---------------------------------------------------------------------------

std::size_t Manager::reorder(const std::vector<Var>& order) {
  if (order.size() != var2level_.size()) {
    throw ModelError("reorder: order lists " + std::to_string(order.size()) +
                     " variables, manager has " +
                     std::to_string(var2level_.size()));
  }
  std::vector<std::size_t> target_level(order.size(),
                                        std::numeric_limits<std::size_t>::max());
  for (std::size_t lev = 0; lev < order.size(); ++lev) {
    const Var v = order[lev];
    if (v >= var2level_.size()) {
      throw ModelError("reorder: unknown variable v" + std::to_string(v));
    }
    if (target_level[v] != std::numeric_limits<std::size_t>::max()) {
      throw ModelError("reorder: variable " + var_desc(v) +
                       " listed more than once");
    }
    target_level[v] = lev;
  }
  for (const std::vector<Var>& g : groups_) {
    for (std::size_t i = 1; i < g.size(); ++i) {
      if (target_level[g[i]] != target_level[g[i - 1]] + 1) {
        throw ModelError("reorder: order splits the group of " +
                         var_desc(g[i - 1]) + " and " + var_desc(g[i]) +
                         " (targets " + std::to_string(target_level[g[i - 1]]) +
                         " and " + std::to_string(target_level[g[i]]) + ")");
      }
    }
  }
  if (order == level2var_) return live_nodes();

  ++sift_runs_;
  TraceSpan span(trace_, "reorder", "kernel");
  const auto sift_start = profiling_ ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};

  collect_garbage();
  clear_cache();
  gc_enabled_ = false;
  sift_tracking_ = true;
  gather_var_nodes();

  // Selection by levels: settle level 0, then 1, ... Each variable only
  // bubbles upward, past variables that have not been placed yet, so
  // placed prefixes never move again.
  for (std::size_t target = 0; target < order.size(); ++target) {
    const Var v = order[target];
    while (var2level_[v] > target) swap_levels(var2level_[v] - 1);
  }

  finish_reorder(true, sift_start);
  return live_nodes();
}

std::size_t Manager::swap_levels(std::size_t upper_level) {
  assert(upper_level + 1 < level2var_.size());
  const Var x = level2var_[upper_level];
  const Var y = level2var_[upper_level + 1];

  // Swap the order first so mk() sees the new levels.
  level2var_[upper_level] = y;
  level2var_[upper_level + 1] = x;
  var2level_[x] = upper_level + 1;
  var2level_[y] = upper_level;

  std::vector<std::uint32_t> xs = std::move(nodes_at_var_[x]);
  nodes_at_var_[x].clear();

  for (const std::uint32_t idx : xs) {
    if (node_at(idx).var != x) continue;  // stale: freed or already moved to y

    if (node_at(idx).refs == 0) {
      // Reclaim dead x-nodes instead of rewriting them.
      unique_remove(idx);
      const NodeRef low = node_at(idx).low;
      const NodeRef high = node_at(idx).high;
      free_node(idx);
      dec_ref(low);
      dec_ref(high);
      continue;
    }

    const NodeRef f = node_at(idx).low;   // attributed edge
    const NodeRef g = node_at(idx).high;  // regular by the canonical form
    const bool f_is_y = !is_term(f) && deref(f).var == y;
    const bool g_is_y = !is_term(g) && deref(g).var == y;
    if (!f_is_y && !g_is_y) {
      nodes_at_var_[x].push_back(idx);  // keeps var x at the new lower level
      continue;
    }

    const Split fs = f_is_y ? Split{low_of(f), high_of(f)} : Split{f, f};
    const Split gs = g_is_y ? Split{low_of(g), high_of(g)} : Split{g, g};

    unique_remove(idx);
    // Keep the node invisible to grow_buckets() while it is out of the
    // table; mk below may grow the node vector and rehash every table node.
    node_at(idx).var = kInvalidVar;
    const NodeRef n0 = mk(x, fs.low, gs.low);
    const NodeRef n1 = mk(x, fs.high, gs.high);
    // gs.high is a stored then-edge (or g itself), hence regular, so the
    // new then-edge cannot come out complemented and the rewritten node
    // keeps denoting the same function under its parents' existing flags.
    assert(!edge_complemented(n1) && "swap broke the regular-then invariant");
    assert(n0 != n1 && "swap produced a redundant node");
    // Note: mk may have reallocated the node vector; re-acquire.
    Node& n = node_at(idx);
    n.var = y;
    n.low = n0;
    n.high = n1;
    inc_ref(n0);
    inc_ref(n1);
    dec_ref(f);
    dec_ref(g);
    unique_insert(idx);
    nodes_at_var_[y].push_back(idx);
  }
  return live_nodes();
}

void Manager::gather_var_nodes() {
  nodes_at_var_.assign(var2level_.size(), {});
  const std::uint32_t size = nodes_size();
  for (std::uint32_t idx = 1; idx < size; ++idx) {
    const Node& n = node_at(idx);
    if (n.var != kInvalidVar) nodes_at_var_[n.var].push_back(idx);
  }
}

}  // namespace stgcheck::bdd
