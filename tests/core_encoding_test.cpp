// Symbolic encoding: variables, cubes, image/preimage semantics.
#include <gtest/gtest.h>

#include "core/encoding.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;

TEST(Encoding, VariablesCoverPlacesAndSignals) {
  stg::Stg s = stg::examples::pulse_cycle();
  for (Ordering ordering :
       {Ordering::kInterleaved, Ordering::kDeclaration, Ordering::kSignalsFirst,
        Ordering::kRandom}) {
    SymbolicStg sym(s, ordering);
    EXPECT_EQ(sym.manager().var_count(),
              s.net().place_count() + s.signal_count());
    // All variables distinct.
    std::vector<bool> seen(sym.manager().var_count(), false);
    for (pn::PlaceId p = 0; p < s.net().place_count(); ++p) {
      ASSERT_FALSE(seen[sym.place_var(p)]);
      seen[sym.place_var(p)] = true;
    }
    for (stg::SignalId sig = 0; sig < s.signal_count(); ++sig) {
      ASSERT_FALSE(seen[sym.signal_var(sig)]);
      seen[sym.signal_var(sig)] = true;
    }
  }
}

TEST(Encoding, EmptyNetRejected) {
  stg::Stg s;
  EXPECT_THROW(SymbolicStg sym(s), ModelError);
}

TEST(Encoding, EnablingCubeMatchesPreset) {
  stg::Stg s = stg::examples::mutex2();
  SymbolicStg sym(s);
  const pn::TransitionId g1p = s.net().find_transition("g1+");
  // g1+ needs req1 and free.
  Bdd expected = sym.place(s.net().find_place("req1")) &
                 sym.place(s.net().find_place("free"));
  EXPECT_EQ(sym.enabling_cube(g1p), expected);
}

TEST(Encoding, InitialStateIsOneMinterm) {
  stg::Stg s = stg::examples::vme_read();
  SymbolicStg sym(s);
  Bdd init = sym.initial_state();
  EXPECT_DOUBLE_EQ(sym.count_states(init), 1.0);
}

TEST(Encoding, InitialStateUnknownSignalsUnconstrained) {
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, am);
  s.connect(am, ap, 1);
  // No initial value for a: two minterms (a free).
  SymbolicStg sym(s);
  EXPECT_DOUBLE_EQ(sym.count_states(sym.initial_state()), 2.0);
}

TEST(Encoding, ImageFiresOneTransition) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  const pn::TransitionId ap = s.net().find_transition("a+");
  Bdd init = sym.initial_state();
  Bdd next = sym.image(init, ap);
  EXPECT_DOUBLE_EQ(sym.count_states(next), 1.0);
  // In the successor, a = 1 and b+ is enabled.
  const stg::SignalId a = s.find_signal("a");
  EXPECT_TRUE(next.implies(sym.signal(a)));
  EXPECT_TRUE(next.implies(sym.enabling_cube(s.net().find_transition("b+"))));
  // Disabled transition: empty image.
  EXPECT_TRUE(sym.image(init, s.net().find_transition("b-")).is_false());
}

TEST(Encoding, PreimageInvertsImage) {
  stg::Stg s = stg::examples::vme_read();
  SymbolicStg sym(s);
  Bdd state = sym.initial_state();
  // Walk a few transitions forward and check preimage returns exactly the
  // predecessor at each step.
  for (const char* name : {"dsr+", "lds+", "ldtack+", "d+"}) {
    const pn::TransitionId t = s.net().find_transition(name);
    ASSERT_NE(t, pn::kNoId);
    Bdd next = sym.image(state, t);
    ASSERT_FALSE(next.is_false()) << name;
    EXPECT_EQ(sym.preimage(next, t), state) << name;
    state = next;
  }
}

TEST(Encoding, ImageDetectsUnsafeFiring) {
  stg::Stg s = stg::examples::unsafe_two_token_ring();
  SymbolicStg sym(s);
  const pn::TransitionId ap = s.net().find_transition("a+");
  // Firing a+ puts a second token on p1 (already marked initially); the
  // image leaves that firing out.
  EXPECT_FALSE(sym.unsafe_states(sym.initial_state(), ap).is_false());
  EXPECT_TRUE(sym.image(sym.initial_state(), ap).is_false());
}

TEST(Encoding, ImageSafeFiringReportsNothing) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  EXPECT_TRUE(
      sym.unsafe_states(sym.initial_state(), s.net().find_transition("a+"))
          .is_false());
}

TEST(Encoding, MarkingCubeRejectsUnsafeMarking) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  pn::Marking m(s.net().place_count());
  m.set_tokens(0, 2);
  EXPECT_THROW(sym.marking_cube(m), ModelError);
}

TEST(Encoding, DummyTransitionsKeepSignals) {
  stg::Stg s;
  const stg::SignalId a = s.add_signal("a", stg::SignalKind::kInput);
  auto ap = s.add_transition(a, stg::Dir::kPlus);
  auto eps = s.add_dummy("eps");
  auto am = s.add_transition(a, stg::Dir::kMinus);
  s.connect(ap, eps);
  s.connect(eps, am);
  s.connect(am, ap, 1);
  s.set_initial_value(a, false);
  SymbolicStg sym(s);
  Bdd after_ap = sym.image(sym.initial_state(), ap);
  Bdd after_eps = sym.image(after_ap, eps);
  // eps moved the token but a stays 1.
  EXPECT_FALSE(after_eps.is_false());
  EXPECT_TRUE(after_eps.implies(sym.signal(a)));
}

TEST(Encoding, EnabledSignalUnionsInstances) {
  stg::Stg s = stg::examples::nondeterministic_choice();
  SymbolicStg sym(s);
  const stg::SignalId a = s.find_signal("a");
  Bdd e = sym.enabled_signal(a, stg::Dir::kPlus);
  // Both a+ and a+/2 are enabled initially.
  EXPECT_TRUE(sym.initial_state().implies(e));
  Bdd e_union = sym.enabling_cube(s.net().find_transition("a+")) |
                sym.enabling_cube(s.net().find_transition("a+/2"));
  EXPECT_EQ(e, e_union);
}

TEST(Encoding, CountsSeparateMarkingsAndCodes) {
  stg::Stg s = stg::examples::pulse_cycle();
  SymbolicStg sym(s);
  // Fire the whole cycle collecting states.
  Bdd all = sym.initial_state();
  Bdd cur = all;
  for (const char* name : {"a+", "b+", "b-", "a-"}) {
    cur = sym.image(cur, s.net().find_transition(name));
    all |= cur;
  }
  EXPECT_DOUBLE_EQ(sym.count_states(all), 4.0);
  EXPECT_DOUBLE_EQ(sym.count_markings(all), 4.0);
  EXPECT_DOUBLE_EQ(sym.count_codes(all), 3.0);  // 00, 10, 11 (10 repeats)
}

}  // namespace
}  // namespace stgcheck::core
