#include "core/relation.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/flat_map.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

namespace {

void require_primed(const SymbolicStg& sym) {
  if (!sym.has_primed_vars()) {
    throw ModelError("transition relations need an encoding with primed "
                     "variables (SymbolicStg(..., with_primed_vars = true))");
  }
}

/// The constraints shared by both relation flavours: token moves for the
/// places around `t` and the fired signal's flip, one primitive constraint
/// per touched variable. Appends the touched unprimed variables to
/// `support` and returns the conjunction: the sparse relation.
Bdd core_constraints(SymbolicStg& sym, pn::TransitionId t,
                     std::vector<Var>& support) {
  bdd::Manager& m = sym.manager();
  const stg::Stg& stg = sym.stg();
  const pn::PetriNet& net = stg.net();

  const std::vector<pn::PlaceId>& pre = net.preset(t);
  const std::vector<pn::PlaceId>& post = net.postset(t);
  // Binary-searchable membership (util/flat_map.hpp) instead of a linear
  // std::find per query: presets of wide joins make this quadratic.
  const FlatSet<pn::PlaceId> pre_set(pre.begin(), pre.end());
  const FlatSet<pn::PlaceId> post_set(post.begin(), post.end());
  std::vector<Bdd> factors;
  const auto in_pre = [&](pn::PlaceId p) { return pre_set.contains(p); };
  const auto in_post = [&](pn::PlaceId p) { return post_set.contains(p); };

  const auto touch_place = [&](pn::PlaceId p) {
    const Bdd cur = m.var(sym.place_var(p));
    const Bdd nxt = m.var(sym.primed_place_var(p));
    support.push_back(sym.place_var(p));
    if (in_pre(p) && in_post(p)) {
      factors.push_back(cur & nxt);  // self-loop place: stays marked
    } else if (in_pre(p)) {
      factors.push_back(cur & !nxt);  // consumed
    } else {
      factors.push_back((!cur) & nxt);  // produced; !cur is the safeness premise
    }
  };
  for (pn::PlaceId p : pre) touch_place(p);
  for (pn::PlaceId p : post) {
    if (!in_pre(p)) touch_place(p);
  }

  const stg::TransitionLabel& label = stg.label(t);
  if (!label.is_dummy()) {
    const Bdd cur = m.var(sym.signal_var(label.signal));
    const Bdd nxt = m.var(sym.primed_signal_var(label.signal));
    support.push_back(sym.signal_var(label.signal));
    factors.push_back(label.dir == stg::Dir::kPlus ? ((!cur) & nxt)
                                                   : (cur & !nxt));
  }
  Bdd rel = m.bdd_true();
  for (const Bdd& f : factors) rel &= f;
  return rel;
}

}  // namespace

Bdd frame_constraint(SymbolicStg& sym, const std::vector<Var>& vars) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  Bdd frame = m.bdd_true();
  for (Var v : vars) {
    frame &= !(m.var(v) ^ m.var(to_primed[v]));
  }
  return frame;
}

TransitionRelation build_sparse_relation(SymbolicStg& sym, pn::TransitionId t) {
  require_primed(sym);
  TransitionRelation r;
  r.t = t;
  r.rel = core_constraints(sym, t, r.support);
  std::sort(r.support.begin(), r.support.end());
  r.support.erase(std::unique(r.support.begin(), r.support.end()),
                  r.support.end());
  return r;
}

SparseApplyData build_sparse_apply(SymbolicStg& sym,
                                   const std::vector<Var>& support) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  const std::vector<Var>& to_primed = sym.to_primed();
  SparseApplyData a;
  a.quant_cube = m.positive_cube(support);
  a.rename_to_primed.resize(m.var_count());
  for (Var v = 0; v < a.rename_to_primed.size(); ++v) a.rename_to_primed[v] = v;
  std::vector<Var> primed;
  primed.reserve(support.size());
  for (Var v : support) {
    a.rename_to_primed[v] = to_primed[v];
    primed.push_back(to_primed[v]);
  }
  a.primed_quant_cube = m.positive_cube(primed);
  a.built = true;
  return a;
}

namespace {

void finalize_cluster(SymbolicStg& sym, RelationCluster& c) {
  SparseApplyData a = build_sparse_apply(sym, c.support);
  c.quant_cube = std::move(a.quant_cube);
  c.primed_quant_cube = std::move(a.primed_quant_cube);
  c.rename_to_primed = std::move(a.rename_to_primed);
}

}  // namespace

std::vector<RelationCluster> cluster_relations(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse,
    std::size_t cap) {
  require_primed(sym);
  bdd::Manager& m = sym.manager();
  std::vector<RelationCluster> clusters;
  for (const TransitionRelation& r : sparse) {
    // Candidate clusters ranked by shared support (descending); merging
    // into a disjoint-support cluster would only add frame padding.
    std::vector<std::pair<std::size_t, std::size_t>> candidates;  // (shared, idx)
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      std::vector<Var> shared;
      std::set_intersection(clusters[c].support.begin(),
                            clusters[c].support.end(), r.support.begin(),
                            r.support.end(), std::back_inserter(shared));
      if (!shared.empty()) candidates.push_back({shared.size(), c});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    bool merged = false;
    for (const auto& [shared, idx] : candidates) {
      (void)shared;
      RelationCluster& c = clusters[idx];
      std::vector<Var> new_support;
      std::set_union(c.support.begin(), c.support.end(), r.support.begin(),
                     r.support.end(), std::back_inserter(new_support));
      // Pad each side with the frame of the variables only the other
      // side touches, so the disjunction keeps them unchanged.
      std::vector<Var> pad_cluster;
      std::set_difference(new_support.begin(), new_support.end(),
                          c.support.begin(), c.support.end(),
                          std::back_inserter(pad_cluster));
      std::vector<Var> pad_member;
      std::set_difference(new_support.begin(), new_support.end(),
                          r.support.begin(), r.support.end(),
                          std::back_inserter(pad_member));
      const Bdd candidate_rel = (c.rel & frame_constraint(sym, pad_cluster)) |
                                (r.rel & frame_constraint(sym, pad_member));
      if (m.count_nodes(candidate_rel) > cap) continue;
      c.rel = candidate_rel;
      c.support = std::move(new_support);
      c.transitions.push_back(r.t);
      merged = true;
      break;
    }
    if (!merged) {
      RelationCluster c;
      c.transitions.push_back(r.t);
      c.rel = r.rel;
      c.support = r.support;
      clusters.push_back(std::move(c));
    }
  }
  for (RelationCluster& c : clusters) finalize_cluster(sym, c);
  return clusters;
}

std::vector<RelationCluster> singleton_clusters(
    SymbolicStg& sym, const std::vector<TransitionRelation>& sparse) {
  require_primed(sym);
  std::vector<RelationCluster> clusters;
  clusters.reserve(sparse.size());
  for (const TransitionRelation& r : sparse) {
    RelationCluster c;
    c.transitions.push_back(r.t);
    c.rel = r.rel;
    c.support = r.support;
    finalize_cluster(sym, c);
    clusters.push_back(std::move(c));
  }
  return clusters;
}

RelationTemplates detect_relation_templates(
    bdd::Manager& m, const std::vector<TransitionRelation>& sparse) {
  RelationTemplates result;
  result.bdd_support.reserve(sparse.size());
  // An ordered map keyed on the *full* signature: a hash collision between
  // distinct shapes would silently merge non-isomorphic relations, which
  // is a soundness bug, not a performance one.
  std::map<std::vector<std::uint64_t>, std::size_t> group_of;
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    result.bdd_support.push_back(m.support(sparse[i].rel));
    const auto [it, inserted] =
        group_of.emplace(m.shape_signature(sparse[i].rel), result.groups.size());
    if (inserted) {
      result.groups.push_back(RelationTemplateGroup{{i}});
    } else {
      result.groups[it->second].members.push_back(i);
    }
  }
  for (const RelationTemplateGroup& g : result.groups) {
    if (g.members.size() > 1) {
      ++result.shared_groups;
      result.instances += g.members.size() - 1;
    }
  }
  return result;
}

Bdd build_full_relation(SymbolicStg& sym, pn::TransitionId t) {
  const TransitionRelation sparse = build_sparse_relation(sym, t);
  // Frame every state variable the transition does not touch.
  std::vector<Var> untouched;
  std::vector<Var> state_vars = sym.place_var_list();
  const std::vector<Var> signals = sym.signal_var_list();
  state_vars.insert(state_vars.end(), signals.begin(), signals.end());
  for (Var v : state_vars) {
    if (!std::binary_search(sparse.support.begin(), sparse.support.end(), v)) {
      untouched.push_back(v);
    }
  }
  return sparse.rel & frame_constraint(sym, untouched);
}

}  // namespace stgcheck::core
