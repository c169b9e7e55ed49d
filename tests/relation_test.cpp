// Transition relations: the relational backends must agree exactly with
// the paper's cofactor-pipeline image on every net and every transition,
// and relational traversal must reach the same fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/image_engine.hpp"
#include "core/relation.hpp"
#include "core/traversal.hpp"
#include "example_nets.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

TEST(Relation, RequiresPrimedEncoding) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);  // no primed vars
  EXPECT_THROW(make_engine(EngineKind::kMonolithicRelation, sym), ModelError);
  EXPECT_THROW(make_engine(EngineKind::kSaturation, sym), ModelError);
  EXPECT_THROW(build_full_relation(sym, 0), ModelError);
  EXPECT_THROW(build_sparse_relation(sym, 0), ModelError);
}

class RelationAgainstPipeline : public ::testing::TestWithParam<int> {
 protected:
  static stg::Stg make(int index) {
    switch (index) {
      case 0: return stg::muller_pipeline(4);
      case 1: return stg::master_read(3);
      case 2: return stg::mutex_arbiter(3);
      case 3: return stg::select_chain(2);
      case 4: return stg::examples::vme_read();
      default: return stg::examples::input_pulse_counter();
    }
  }

  void SetUp() override {
    net = std::make_unique<stg::Stg>(make(GetParam()));
    sym = std::make_unique<SymbolicStg>(*net, Ordering::kInterleaved, 1 << 14,
                                        /*with_primed_vars=*/true);
    engine = make_engine(EngineKind::kMonolithicRelation, *sym);
    traversal = traverse(*sym);
    ASSERT_TRUE(traversal.ok());
  }

  std::unique_ptr<stg::Stg> net;
  std::unique_ptr<SymbolicStg> sym;
  std::unique_ptr<ImageEngine> engine;
  TraversalResult traversal;
};

TEST_P(RelationAgainstPipeline, RelationalTraversalMatches) {
  TraversalResult r = traverse(*engine);
  EXPECT_EQ(r.reached, traversal.reached);
  EXPECT_GT(r.stats.passes, 0u);
  EXPECT_TRUE(r.ok());
}

TEST_P(RelationAgainstPipeline, FullRelationIsSparsePlusFrame) {
  // The sparse relation conjoined with the frame of every untouched state
  // variable is exactly the full relation.
  std::vector<bdd::Var> state_vars = sym->place_var_list();
  const std::vector<bdd::Var> signals = sym->signal_var_list();
  state_vars.insert(state_vars.end(), signals.begin(), signals.end());
  for (pn::TransitionId t = 0; t < net->net().transition_count(); ++t) {
    const SparseRelation sparse = build_sparse_relation(*sym, t);
    std::vector<bdd::Var> untouched;
    for (bdd::Var v : state_vars) {
      if (std::find(sparse.support.begin(), sparse.support.end(), v) ==
          sparse.support.end()) {
        untouched.push_back(v);
      }
    }
    EXPECT_EQ(sparse.rel & frame_constraint(*sym, untouched),
              build_full_relation(*sym, t))
        << net->format_label(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, RelationAgainstPipeline, ::testing::Range(0, 6));

/// a+ and the dummy eps read r (r is in both their presets and postsets)
/// and each fills one postset-only place; b+ consumes r.
stg::Stg read_arc_dummy_net() {
  return stg::parse_astg_string(
      ".inputs a\n.outputs b\n.dummy eps\n.graph\n"
      "p0 a+\nr a+\na+ p1 r\np1 eps\nr eps\neps p2 r\np2 a-\na- p0\n"
      "r b+\nb+ q\nq b-\nb- r\n"
      ".marking { p0 r }\n.end\n");
}

TEST(FiringRule, RelationAndClosedSetCubesComeFromTheGuard) {
  const stg::Stg s = read_arc_dummy_net();
  const pn::PetriNet& net = s.net();
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  bdd::Manager& m = sym.manager();

  std::vector<Bdd> inconsistent;  // E(t) & s for s+, E(t) & !s for s-
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    // The sparse relation is the fire guard and the post cube on the
    // primed twins, nothing else.
    bdd::CubeLiterals post = sym.firing_literals(t, true);
    for (bdd::Literal& l : post) l.var = sym.to_primed()[l.var];
    EXPECT_EQ(build_sparse_relation(sym, t).rel,
              sym.fire_guard(t) & m.cube(post))
        << s.format_label(t);

    // One safeness cube E(t) & p per postset-only place p; a read place
    // is part of E(t) and gets none.
    std::vector<Bdd> expected;
    for (pn::PlaceId p : net.postset(t)) {
      const std::vector<pn::PlaceId>& pre = net.preset(t);
      if (std::find(pre.begin(), pre.end(), p) == pre.end()) {
        expected.push_back(sym.enabling_cube(t) & sym.place(p));
      }
    }
    std::vector<Bdd> owned;
    const SymbolicStg::OwnedCubes& safeness = sym.safeness_cubes();
    for (std::size_t c = 0; c < safeness.cubes.size(); ++c) {
      if (safeness.owners[c] == t) owned.push_back(m.cube(safeness.cubes[c]));
    }
    EXPECT_EQ(owned, expected) << s.format_label(t);

    const stg::TransitionLabel& label = s.label(t);
    if (!label.is_dummy()) {
      const Bdd value = sym.signal(label.signal);
      inconsistent.push_back(sym.enabling_cube(t) &
                             (label.dir == stg::Dir::kPlus ? value : !value));
    }
  }

  // a+ by hand: p0 and r marked, p1 empty, a = 0 before; p0 empty, r and
  // p1 marked, a = 1 after.
  const pn::TransitionId ap = net.find_transition("a+");
  const auto place = [&](const char* name) { return net.find_place(name); };
  const auto primed = [&](bdd::Var v) { return m.var(sym.to_primed()[v]); };
  const stg::SignalId a = s.find_signal("a");
  EXPECT_EQ(build_sparse_relation(sym, ap).rel,
            sym.place(place("p0")) & sym.place(place("r")) &
                !sym.place(place("p1")) & !sym.signal(a) &
                !primed(sym.place_var(place("p0"))) &
                primed(sym.place_var(place("r"))) &
                primed(sym.place_var(place("p1"))) &
                primed(sym.signal_var(a)));

  // One consistency cube per signal transition, none for the dummy, each
  // owned by 2s (s+ at s = 1) or 2s + 1 (s- at s = 0).
  const SymbolicStg::OwnedCubes& consistency = sym.consistency_cubes();
  ASSERT_EQ(consistency.cubes.size(), inconsistent.size());
  ASSERT_EQ(inconsistent.size(), net.transition_count() - 1);
  for (std::size_t c = 0; c < consistency.cubes.size(); ++c) {
    const Bdd cube = m.cube(consistency.cubes[c]);
    EXPECT_NE(std::find(inconsistent.begin(), inconsistent.end(), cube),
              inconsistent.end());
    const stg::SignalId sig = consistency.owners[c] / 2;
    const bool plus = consistency.owners[c] % 2 == 0;
    EXPECT_TRUE(cube.implies(plus ? sym.signal(sig) : !sym.signal(sig)));
  }
}

/// Every example net, and the read-arc + dummy net as the last index.
class FullRelationsAfterReorder : public ::testing::TestWithParam<int> {};

TEST_P(FullRelationsAfterReorder, RelNextMatchesCofactorImage) {
  // Each full relation applied alone by the twin-pair product, and the
  // monolithic engine's image (the same product over their OR), against
  // the paper's image: on the order the relations were built in, after a
  // sift, and after a reversal of the (v, v') pairs.
  const stg::Stg s = GetParam() < testutil::kExampleNetCount
                         ? testutil::example_net(GetParam())
                         : read_arc_dummy_net();
  SymbolicStg sym(s, Ordering::kInterleaved, 1 << 14,
                  /*with_primed_vars=*/true);
  bdd::Manager& m = sym.manager();
  const pn::TransitionId n = s.net().transition_count();
  const Bdd reached = traverse(sym).reached;
  const std::unique_ptr<ImageEngine> engine =
      make_engine(EngineKind::kMonolithicRelation, sym);
  std::vector<Bdd> full;
  for (pn::TransitionId t = 0; t < n; ++t) {
    full.push_back(build_full_relation(sym, t));
  }
  const auto check = [&](const char* when) {
    Bdd expected = m.bdd_false();
    for (pn::TransitionId t = 0; t < n; ++t) {
      const Bdd image = sym.image(reached, t);
      EXPECT_EQ(m.rel_next(reached, full[t], sym.state_cube()), image)
          << when << ", " << s.format_label(t);
      expected |= image;
    }
    EXPECT_EQ(engine->fresh_unit(reached, 0, m.bdd_false()), expected) << when;
  };
  check("as built");
  m.sift();
  check("after sift");
  // Every variable is half of a (v, v') group, so the order is a list of
  // adjacent pairs; reverse the list, keeping each pair intact.
  const std::vector<bdd::Var> order = m.current_order();
  std::vector<bdd::Var> reversed;
  for (std::size_t i = order.size(); i >= 2; i -= 2) {
    reversed.push_back(order[i - 2]);
    reversed.push_back(order[i - 1]);
  }
  m.reorder(reversed);
  check("after the pair reversal");
  m.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(ExampleNets, FullRelationsAfterReorder,
                         ::testing::Range(0, testutil::kExampleNetCount + 1));

TEST(Relation, CountsUnaffectedByPrimedVars) {
  stg::Stg s = stg::mutex_arbiter(3);
  SymbolicStg plain(s);
  SymbolicStg primed(s, Ordering::kInterleaved, 1 << 14, true);
  TraversalResult r1 = traverse(plain);
  TraversalResult r2 = traverse(primed);
  EXPECT_DOUBLE_EQ(r1.stats.states, r2.stats.states);
  EXPECT_DOUBLE_EQ(r1.stats.markings, r2.stats.markings);
  EXPECT_DOUBLE_EQ(plain.count_codes(r1.reached), primed.count_codes(r2.reached));
}

}  // namespace
}  // namespace stgcheck::core
