// The partitioned relation backend: clustering respects the node cap, the
// quantification schedule quantifies each variable at the earliest legal
// cluster (and nowhere else), and the partitioned image agrees with the
// monolithic relation and the cofactor pipeline -- including on random
// STGs far from the hand-built generator families.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "random_stg.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Var;

std::unique_ptr<SymbolicStg> primed_encoding(const stg::Stg& s) {
  return std::make_unique<SymbolicStg>(s, Ordering::kInterleaved, 1 << 14,
                                       /*with_primed_vars=*/true);
}

/// The unprimed state variables transition `t` touches: preset/postset
/// places plus the fired signal -- recomputed from the net, independently
/// of the relation builder.
std::vector<Var> touched_vars(const SymbolicStg& sym, pn::TransitionId t) {
  std::set<Var> vars;
  const pn::PetriNet& net = sym.stg().net();
  for (pn::PlaceId p : net.preset(t)) vars.insert(sym.place_var(p));
  for (pn::PlaceId p : net.postset(t)) vars.insert(sym.place_var(p));
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (!label.is_dummy()) vars.insert(sym.signal_var(label.signal));
  return {vars.begin(), vars.end()};
}

// ---------------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------------

TEST(Clustering, NodeCapRespected) {
  const stg::Stg s = stg::master_read(5);
  auto sym = primed_encoding(s);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}, std::size_t{100000}}) {
    EngineOptions options;
    options.cluster_node_cap = cap;
    PartitionedRelationEngine engine(*sym, options);
    for (std::size_t c = 0; c < engine.cluster_count(); ++c) {
      // A cap cannot split a single transition; only multi-transition
      // clusters must obey it.
      if (engine.cluster_transitions(c).size() > 1) {
        EXPECT_LE(engine.cluster_nodes(c), cap) << "cap " << cap;
      }
    }
  }
}

TEST(Clustering, TinyCapYieldsSingletons) {
  const stg::Stg s = stg::muller_pipeline(4);
  auto sym = primed_encoding(s);
  EngineOptions options;
  options.cluster_node_cap = 1;  // nothing can merge
  PartitionedRelationEngine engine(*sym, options);
  EXPECT_EQ(engine.cluster_count(), s.net().transition_count());
}

TEST(Clustering, HugeCapMergesOverlappingSupports) {
  // On a pipeline every adjacent transition pair shares a place, so a
  // boundless cap must produce fewer clusters than transitions.
  const stg::Stg s = stg::muller_pipeline(6);
  auto sym = primed_encoding(s);
  EngineOptions options;
  options.cluster_node_cap = 1u << 20;
  PartitionedRelationEngine engine(*sym, options);
  EXPECT_LT(engine.cluster_count(), s.net().transition_count());
}

TEST(Clustering, EveryTransitionInExactlyOneCluster) {
  const stg::Stg s = stg::mutex_arbiter(4);
  auto sym = primed_encoding(s);
  PartitionedRelationEngine engine(*sym);
  std::vector<int> seen(s.net().transition_count(), 0);
  for (std::size_t c = 0; c < engine.cluster_count(); ++c) {
    for (pn::TransitionId t : engine.cluster_transitions(c)) ++seen[t];
  }
  for (pn::TransitionId t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], 1) << s.format_label(t);
  }
}

// ---------------------------------------------------------------------------
// Quantification schedule
// ---------------------------------------------------------------------------

TEST(QuantificationSchedule, EachVariableAtTheEarliestLegalCluster) {
  for (const stg::Stg& s : {stg::muller_pipeline(5), stg::master_read(3),
                            stg::mutex_arbiter(3), stg::select_chain(3)}) {
    auto sym = primed_encoding(s);
    PartitionedRelationEngine engine(*sym);
    const std::vector<std::vector<Var>> schedule =
        engine.quantification_schedule();
    ASSERT_EQ(schedule.size(), engine.cluster_count());
    for (std::size_t c = 0; c < engine.cluster_count(); ++c) {
      // The legal quantification set of a cluster is the union of its
      // members' touched variables: quantifying any of them in an earlier
      // cluster would lose that cluster's frame; quantifying any other
      // variable here would lose the state set's own constraint.
      std::set<Var> legal;
      for (pn::TransitionId t : engine.cluster_transitions(c)) {
        for (Var v : touched_vars(*sym, t)) legal.insert(v);
      }
      const std::set<Var> scheduled(schedule[c].begin(), schedule[c].end());
      EXPECT_EQ(scheduled, legal) << s.name() << " cluster " << c;
    }
  }
}

TEST(QuantificationSchedule, MonolithicQuantifiesEverythingAtOnce) {
  // The contrast the partitioned backend exists for: the monolithic arm's
  // single step quantifies every state variable; a capped partitioned
  // cluster quantifies only its own support.
  const stg::Stg s = stg::select_chain(4);
  auto sym = primed_encoding(s);
  EngineOptions options;
  options.cluster_node_cap = 32;  // keep clusters local
  PartitionedRelationEngine engine(*sym, options);
  const std::size_t state_vars =
      sym->place_var_list().size() + sym->signal_var_list().size();
  ASSERT_GT(engine.cluster_count(), 1u);
  for (const std::vector<Var>& cluster_vars : engine.quantification_schedule()) {
    EXPECT_LT(cluster_vars.size(), state_vars);
  }
}

// ---------------------------------------------------------------------------
// Random STGs: partitioned == monolithic == cofactor
// ---------------------------------------------------------------------------

TEST(RandomStgs, PartitionedMatchesMonolithicAndCofactor) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const stg::Stg s = testutil::random_stg(rng);
    auto sym = primed_encoding(s);
    CofactorEngine cofactor(*sym);
    MonolithicRelationEngine monolithic(*sym);
    EngineOptions options;
    options.cluster_node_cap = 1 + rng.below(500);
    PartitionedRelationEngine partitioned(*sym, options);

    // Random rings may be inconsistent STGs; images must agree regardless.
    TraversalOptions topts;
    topts.abort_on_violation = false;
    const TraversalResult ref = traverse(cofactor, topts);

    EXPECT_EQ(partitioned.image(ref.reached), monolithic.image(ref.reached))
        << "trial " << trial;
    EXPECT_EQ(partitioned.image(ref.reached), cofactor.image(ref.reached))
        << "trial " << trial;
    EXPECT_EQ(partitioned.preimage(ref.reached),
              monolithic.preimage(ref.reached))
        << "trial " << trial;
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      EXPECT_EQ(partitioned.image_via(ref.reached, t),
                cofactor.image_via(ref.reached, t))
          << "trial " << trial << " " << s.format_label(t);
      EXPECT_EQ(partitioned.preimage_via(ref.reached, t),
                cofactor.preimage_via(ref.reached, t))
          << "trial " << trial << " " << s.format_label(t);
    }

    const TraversalResult mono_r = traverse(monolithic, topts);
    const TraversalResult part_r = traverse(partitioned, topts);
    EXPECT_EQ(mono_r.reached, ref.reached) << "trial " << trial;
    EXPECT_EQ(part_r.reached, ref.reached) << "trial " << trial;
  }
}

TEST(EngineFactory, BuildsEveryKind) {
  const stg::Stg s = stg::examples::vme_read();
  auto sym = primed_encoding(s);
  for (EngineKind kind :
       {EngineKind::kCofactor, EngineKind::kMonolithicRelation,
        EngineKind::kPartitionedRelation}) {
    const std::unique_ptr<ImageEngine> engine = make_engine(kind, *sym);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_STREQ(engine->name(), to_string(kind));
    EXPECT_GT(engine->unit_count(), 0u);
  }
}

}  // namespace
}  // namespace stgcheck::core
