#include "stg/generators.hpp"

#include "util/error.hpp"

namespace stgcheck::stg {

namespace {

using pn::PlaceId;
using pn::TransitionId;

/// Shorthand for Stg::connect with a token.
PlaceId marked(Stg& stg, TransitionId from, TransitionId to) {
  return stg.connect(from, to, 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// muller_pipeline
// ---------------------------------------------------------------------------

Stg muller_pipeline(std::size_t n) {
  if (n == 0) throw ModelError("muller_pipeline needs at least one stage");
  Stg stg;
  stg.set_name("muller" + std::to_string(n));

  const SignalId in = stg.add_signal("in", SignalKind::kInput);
  std::vector<SignalId> c(n + 1);
  c[0] = in;  // stage 0 is the environment input
  for (std::size_t i = 1; i <= n; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    c[i] = stg.add_signal(name, SignalKind::kOutput);
  }

  std::vector<TransitionId> plus(n + 1);
  std::vector<TransitionId> minus(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    plus[i] = stg.add_transition(c[i], Dir::kPlus);
    minus[i] = stg.add_transition(c[i], Dir::kMinus);
  }

  // Stage i latches when the previous stage is full and the next is empty:
  //   ci+ after c(i-1)+            (data arrives)
  //   ci+ after c(i+1)-  [marked]  (bubble available)
  //   ci- after c(i-1)-            (reset wave)
  //   ci- after c(i+1)+            (data consumed downstream)
  for (std::size_t i = 1; i <= n; ++i) {
    stg.connect(plus[i - 1], plus[i]);
    stg.connect(minus[i - 1], minus[i]);
    if (i < n) {
      marked(stg, minus[i + 1], plus[i]);
      stg.connect(plus[i + 1], minus[i]);
    }
  }
  // Environment handshake: in+ acknowledged by c1+, re-armed by c1-.
  stg.connect(plus[1], minus[0]);
  marked(stg, minus[1], plus[0]);

  for (std::size_t i = 0; i <= n; ++i) stg.set_initial_value(c[i], false);
  return stg;
}

// ---------------------------------------------------------------------------
// master_read
// ---------------------------------------------------------------------------

Stg master_read(std::size_t n) {
  if (n == 0) throw ModelError("master_read needs at least one channel");
  Stg stg;
  stg.set_name("mread" + std::to_string(n));

  // A master bracket handshake (go/done) encloses n parallel 4-phase slave
  // read handshakes (r_i/d_i): on go+ the master forks all read requests,
  // done+ joins all data arrivals, and the falling half-round resets
  // everything. The bracket phase (go, done) makes every state code unique
  // -- a turn-free ring of symmetric channels would hide "whose turn it is"
  // in the marking and violate CSC.
  const SignalId go = stg.add_signal("go", SignalKind::kInput);
  const SignalId done = stg.add_signal("done", SignalKind::kOutput);
  const TransitionId go_p = stg.add_transition(go, Dir::kPlus);
  const TransitionId go_m = stg.add_transition(go, Dir::kMinus);
  const TransitionId done_p = stg.add_transition(done, Dir::kPlus);
  const TransitionId done_m = stg.add_transition(done, Dir::kMinus);

  for (std::size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const SignalId r = stg.add_signal("r" + k, SignalKind::kOutput);
    const SignalId d = stg.add_signal("d" + k, SignalKind::kInput);
    const TransitionId rp = stg.add_transition(r, Dir::kPlus);
    const TransitionId dp = stg.add_transition(d, Dir::kPlus);
    const TransitionId rm = stg.add_transition(r, Dir::kMinus);
    const TransitionId dm = stg.add_transition(d, Dir::kMinus);
    stg.connect(go_p, rp);    // fork on go+
    stg.connect(rp, dp);
    stg.connect(dp, done_p);  // join into done+
    stg.connect(go_m, rm);    // fork on go-
    stg.connect(rm, dm);
    stg.connect(dm, done_m);  // join into done-
    stg.set_initial_value(r, false);
    stg.set_initial_value(d, false);
  }
  stg.connect(done_p, go_m);
  marked(stg, done_m, go_p);
  stg.set_initial_value(go, false);
  stg.set_initial_value(done, false);
  return stg;
}

// ---------------------------------------------------------------------------
// mutex_arbiter
// ---------------------------------------------------------------------------

Stg mutex_arbiter(std::size_t n) {
  if (n == 0) throw ModelError("mutex_arbiter needs at least one user");
  Stg stg;
  stg.set_name("mutex" + std::to_string(n));

  const PlaceId free = stg.add_place("free", 1);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::string k = std::to_string(i);
    const SignalId r = stg.add_signal("r" + k, SignalKind::kInput);
    const SignalId g = stg.add_signal("g" + k, SignalKind::kOutput);
    const TransitionId rp = stg.add_transition(r, Dir::kPlus);
    const TransitionId gp = stg.add_transition(g, Dir::kPlus);
    const TransitionId rm = stg.add_transition(r, Dir::kMinus);
    const TransitionId gm = stg.add_transition(g, Dir::kMinus);

    const PlaceId idle = stg.add_place("idle" + k, 1);
    const PlaceId req = stg.add_place("req" + k, 0);
    const PlaceId cs = stg.add_place("cs" + k, 0);
    const PlaceId done = stg.add_place("done" + k, 0);

    stg.arc_pt(idle, rp);
    stg.arc_tp(rp, req);
    stg.arc_pt(req, gp);
    stg.arc_pt(free, gp);  // the grants compete for the shared token
    stg.arc_tp(gp, cs);
    stg.arc_pt(cs, rm);
    stg.arc_tp(rm, done);
    stg.arc_pt(done, gm);
    stg.arc_tp(gm, idle);
    stg.arc_tp(gm, free);

    stg.set_initial_value(r, false);
    stg.set_initial_value(g, false);
  }
  return stg;
}

// ---------------------------------------------------------------------------
// select_chain
// ---------------------------------------------------------------------------

Stg select_chain(std::size_t n) {
  if (n == 0) throw ModelError("select_chain needs at least one stage");
  Stg stg;
  stg.set_name("select" + std::to_string(n));

  std::vector<PlaceId> stage(n);
  for (std::size_t i = 0; i < n; ++i) {
    stage[i] = stg.add_place("st" + std::to_string(i), i == 0 ? 1 : 0);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const SignalId x = stg.add_signal("x" + k, SignalKind::kInput);
    const SignalId y = stg.add_signal("y" + k, SignalKind::kInput);
    const SignalId z = stg.add_signal("z" + k, SignalKind::kOutput);

    const PlaceId next = stage[(i + 1) % n];

    // Branch A: x-selected.
    const TransitionId xp = stg.add_transition(x, Dir::kPlus);
    const TransitionId zp1 = stg.add_transition(z, Dir::kPlus);
    const TransitionId xm = stg.add_transition(x, Dir::kMinus);
    const TransitionId zm1 = stg.add_transition(z, Dir::kMinus);
    stg.arc_pt(stage[i], xp);
    stg.connect(xp, zp1);
    stg.connect(zp1, xm);
    stg.connect(xm, zm1);
    stg.arc_tp(zm1, next);

    // Branch B: y-selected; second instances of the z transitions.
    const TransitionId yp = stg.add_transition(y, Dir::kPlus);
    const TransitionId zp2 = stg.add_transition(z, Dir::kPlus);
    const TransitionId ym = stg.add_transition(y, Dir::kMinus);
    const TransitionId zm2 = stg.add_transition(z, Dir::kMinus);
    stg.arc_pt(stage[i], yp);
    stg.connect(yp, zp2);
    stg.connect(zp2, ym);
    stg.connect(ym, zm2);
    stg.arc_tp(zm2, next);

    stg.set_initial_value(x, false);
    stg.set_initial_value(y, false);
    stg.set_initial_value(z, false);
  }
  return stg;
}

// ---------------------------------------------------------------------------
// Named family instances
// ---------------------------------------------------------------------------

const std::vector<FamilyInstance>& family_instances() {
  static const std::vector<FamilyInstance> kInstances = {
      {"muller16", muller_pipeline, 16},
      {"muller32", muller_pipeline, 32},
      {"muller64", muller_pipeline, 64},
      {"mread8", master_read, 8},
      {"mutex12", mutex_arbiter, 12},
      {"mutex24", mutex_arbiter, 24},
      {"mutex48", mutex_arbiter, 48},
      {"select24", select_chain, 24},
      {"select48", select_chain, 48},
      {"select96", select_chain, 96},
  };
  return kInstances;
}

Stg make_family_instance(std::string_view name) {
  for (const FamilyInstance& f : family_instances()) {
    if (name == f.name) return f.make(f.n);
  }
  std::string valid;
  for (const FamilyInstance& f : family_instances()) {
    if (!valid.empty()) valid += ", ";
    valid += f.name;
  }
  throw ModelError("unknown family instance '" + std::string(name) +
                   "' (valid: " + valid + ")");
}

// ---------------------------------------------------------------------------
// Fixed example nets
// ---------------------------------------------------------------------------

namespace examples {

Stg mutex2() {
  Stg stg = mutex_arbiter(2);
  stg.set_name("mutex2");
  return stg;
}

namespace {

SignalKind ab_kind(bool output_ab) {
  return output_ab ? SignalKind::kOutput : SignalKind::kInput;
}

}  // namespace

Stg fig3_d1(bool output_ab) {
  Stg stg;
  stg.set_name("fig3_d1");
  const SignalId a = stg.add_signal("a", ab_kind(output_ab));
  const SignalId b = stg.add_signal("b", ab_kind(output_ab));
  const SignalId c = stg.add_signal("c", SignalKind::kOutput);

  const TransitionId a1 = stg.add_transition(a, Dir::kPlus);   // a+
  const TransitionId a2 = stg.add_transition(a, Dir::kPlus);   // a+/2
  const TransitionId b1 = stg.add_transition(b, Dir::kPlus);   // b+
  const TransitionId b2 = stg.add_transition(b, Dir::kPlus);   // b+/2
  const TransitionId cp = stg.add_transition(c, Dir::kPlus);

  // One marked choice place feeds a+ and b+/2: a direct (symmetric fake)
  // conflict. Whichever fires, the other signal's first instance becomes
  // enabled, so neither signal is ever disabled.
  const PlaceId p0 = stg.add_place("p0", 1);
  stg.arc_pt(p0, a1);
  stg.arc_pt(p0, b2);
  stg.connect(a1, b1);  // after a+, b+ fires
  stg.connect(b2, a2);  // after b+/2, a+/2 fires
  // Both paths reconverge on the same place, from which c+ fires.
  const PlaceId join = stg.add_place("join", 0);
  stg.arc_tp(b1, join);
  stg.arc_tp(a2, join);
  stg.arc_pt(join, cp);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(cp, sink);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  stg.set_initial_value(c, false);
  return stg;
}

Stg fig3_d2(bool output_ab) {
  Stg stg;
  stg.set_name("fig3_d2");
  const SignalId a = stg.add_signal("a", ab_kind(output_ab));
  const SignalId b = stg.add_signal("b", ab_kind(output_ab));
  const SignalId c = stg.add_signal("c", SignalKind::kOutput);

  const TransitionId ap = stg.add_transition(a, Dir::kPlus);
  const TransitionId bp = stg.add_transition(b, Dir::kPlus);
  const TransitionId cp = stg.add_transition(c, Dir::kPlus);

  const PlaceId pa = stg.add_place("pa", 1);
  const PlaceId pb = stg.add_place("pb", 1);
  stg.arc_pt(pa, ap);
  stg.arc_pt(pb, bp);
  const PlaceId ja = stg.add_place("ja", 0);
  const PlaceId jb = stg.add_place("jb", 0);
  stg.arc_tp(ap, ja);
  stg.arc_tp(bp, jb);
  stg.arc_pt(ja, cp);
  stg.arc_pt(jb, cp);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(cp, sink);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  stg.set_initial_value(c, false);
  return stg;
}

Stg fake_asymmetric(bool output_ab) {
  Stg stg;
  stg.set_name("fake_asymmetric");
  const SignalId a = stg.add_signal("a", ab_kind(output_ab));
  const SignalId b = stg.add_signal("b", ab_kind(output_ab));
  const SignalId c = stg.add_signal("c", SignalKind::kOutput);

  const TransitionId a1 = stg.add_transition(a, Dir::kPlus);  // a+
  const TransitionId b1 = stg.add_transition(b, Dir::kPlus);  // b+
  const TransitionId b2 = stg.add_transition(b, Dir::kPlus);  // b+/2
  const TransitionId c1 = stg.add_transition(c, Dir::kPlus);  // c+
  const TransitionId c2 = stg.add_transition(c, Dir::kPlus);  // c+/2

  // a+ and b+ conflict on p0. Firing a+ re-enables signal b through b+/2
  // (fake for b); firing b+ kills signal a for good (real for a).
  const PlaceId p0 = stg.add_place("p0", 1);
  stg.arc_pt(p0, a1);
  stg.arc_pt(p0, b1);
  stg.connect(a1, b2);
  stg.connect(b2, c1);
  stg.connect(b1, c2);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(c1, sink);
  stg.arc_tp(c2, sink);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  stg.set_initial_value(c, false);
  return stg;
}

Stg inconsistent_rise_rise() {
  Stg stg;
  stg.set_name("inconsistent");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);
  const SignalId b = stg.add_signal("b", SignalKind::kOutput);

  const TransitionId b1 = stg.add_transition(b, Dir::kPlus);
  const TransitionId ap = stg.add_transition(a, Dir::kPlus);
  const TransitionId b2 = stg.add_transition(b, Dir::kPlus);

  const PlaceId p0 = stg.add_place("p0", 1);
  stg.arc_pt(p0, b1);
  stg.connect(b1, ap);
  stg.connect(ap, b2);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(b2, sink);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  return stg;
}

Stg unsafe_two_token_ring() {
  Stg stg;
  stg.set_name("unsafe_ring");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);
  const SignalId b = stg.add_signal("b", SignalKind::kOutput);

  const TransitionId ap = stg.add_transition(a, Dir::kPlus);
  const TransitionId bp = stg.add_transition(b, Dir::kPlus);
  const TransitionId am = stg.add_transition(a, Dir::kMinus);
  const TransitionId bm = stg.add_transition(b, Dir::kMinus);

  // Ring a+ -> b+ -> a- -> b- with two adjacent tokens: place p1 can hold
  // two tokens at once.
  const PlaceId p0 = stg.add_place("p0", 1);
  const PlaceId p1 = stg.add_place("p1", 1);
  const PlaceId p2 = stg.add_place("p2", 0);
  const PlaceId p3 = stg.add_place("p3", 0);
  stg.arc_pt(p0, ap);
  stg.arc_tp(ap, p1);
  stg.arc_pt(p1, bp);
  stg.arc_tp(bp, p2);
  stg.arc_pt(p2, am);
  stg.arc_tp(am, p3);
  stg.arc_pt(p3, bm);
  stg.arc_tp(bm, p0);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  return stg;
}

Stg nondeterministic_choice() {
  Stg stg;
  stg.set_name("nondet");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);

  const TransitionId a1 = stg.add_transition(a, Dir::kPlus);   // a+
  const TransitionId a2 = stg.add_transition(a, Dir::kPlus);   // a+/2
  const TransitionId m1 = stg.add_transition(a, Dir::kMinus);  // a-
  const TransitionId m2 = stg.add_transition(a, Dir::kMinus);  // a-/2

  // Both a+ transitions compete for the same token and lead to different
  // markings: the SG has two distinct a+ successors from the initial state.
  const PlaceId p0 = stg.add_place("p0", 1);
  stg.arc_pt(p0, a1);
  stg.arc_pt(p0, a2);
  const PlaceId p1 = stg.add_place("p1", 0);
  const PlaceId p2 = stg.add_place("p2", 0);
  stg.arc_tp(a1, p1);
  stg.arc_tp(a2, p2);
  stg.arc_pt(p1, m1);
  stg.arc_pt(p2, m2);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(m1, sink);
  stg.arc_tp(m2, sink);

  stg.set_initial_value(a, false);
  return stg;
}

Stg noncommutative_diamond() {
  Stg stg;
  stg.set_name("noncommutative");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);
  const SignalId b = stg.add_signal("b", SignalKind::kInput);
  const SignalId c = stg.add_signal("c", SignalKind::kOutput);

  const TransitionId a1 = stg.add_transition(a, Dir::kPlus);  // a+
  const TransitionId a2 = stg.add_transition(a, Dir::kPlus);  // a+/2
  const TransitionId b1 = stg.add_transition(b, Dir::kPlus);  // b+
  const TransitionId b2 = stg.add_transition(b, Dir::kPlus);  // b+/2
  const TransitionId c1 = stg.add_transition(c, Dir::kPlus);  // c+
  const TransitionId c2 = stg.add_transition(c, Dir::kPlus);  // c+/2

  // Like fig3_d1 but the two branches end in different places: the a+;b+
  // and b+;a+ diamonds close on different markings.
  const PlaceId p0 = stg.add_place("p0", 1);
  stg.arc_pt(p0, a1);
  stg.arc_pt(p0, b2);
  stg.connect(a1, b1);
  stg.connect(b2, a2);
  const PlaceId ra = stg.add_place("ra", 0);
  const PlaceId rb = stg.add_place("rb", 0);
  stg.arc_tp(b1, ra);
  stg.arc_tp(a2, rb);
  stg.arc_pt(ra, c1);
  stg.arc_pt(rb, c2);
  const PlaceId sink = stg.add_place("sink", 0);
  stg.arc_tp(c1, sink);
  stg.arc_tp(c2, sink);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  stg.set_initial_value(c, false);
  return stg;
}

Stg pulse_cycle() {
  Stg stg;
  stg.set_name("pulse_cycle");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);
  const SignalId b = stg.add_signal("b", SignalKind::kOutput);

  const TransitionId ap = stg.add_transition(a, Dir::kPlus);
  const TransitionId bp = stg.add_transition(b, Dir::kPlus);
  const TransitionId bm = stg.add_transition(b, Dir::kMinus);
  const TransitionId am = stg.add_transition(a, Dir::kMinus);

  stg.connect(ap, bp);
  stg.connect(bp, bm);
  stg.connect(bm, am);
  marked(stg, am, ap);

  stg.set_initial_value(a, false);
  stg.set_initial_value(b, false);
  return stg;
}

Stg output_cycle() {
  Stg stg;
  stg.set_name("output_cycle");
  const SignalId x = stg.add_signal("x", SignalKind::kOutput);
  const SignalId y = stg.add_signal("y", SignalKind::kOutput);

  const TransitionId xp = stg.add_transition(x, Dir::kPlus);
  const TransitionId yp = stg.add_transition(y, Dir::kPlus);
  const TransitionId ym = stg.add_transition(y, Dir::kMinus);
  const TransitionId xm = stg.add_transition(x, Dir::kMinus);

  stg.connect(xp, yp);
  stg.connect(yp, ym);
  stg.connect(ym, xm);
  marked(stg, xm, xp);

  stg.set_initial_value(x, false);
  stg.set_initial_value(y, false);
  return stg;
}

Stg output_cycle_resolved() {
  Stg stg;
  stg.set_name("output_cycle_csc");
  const SignalId x = stg.add_signal("x", SignalKind::kOutput);
  const SignalId y = stg.add_signal("y", SignalKind::kOutput);
  const SignalId u = stg.add_signal("u", SignalKind::kInternal);

  const TransitionId xp = stg.add_transition(x, Dir::kPlus);
  const TransitionId yp = stg.add_transition(y, Dir::kPlus);
  const TransitionId up = stg.add_transition(u, Dir::kPlus);
  const TransitionId ym = stg.add_transition(y, Dir::kMinus);
  const TransitionId xm = stg.add_transition(x, Dir::kMinus);
  const TransitionId um = stg.add_transition(u, Dir::kMinus);

  // u+ inserted between y+ and y-, u- after x-: every state code is unique.
  stg.connect(xp, yp);
  stg.connect(yp, up);
  stg.connect(up, ym);
  stg.connect(ym, xm);
  stg.connect(xm, um);
  marked(stg, um, xp);

  stg.set_initial_value(x, false);
  stg.set_initial_value(y, false);
  stg.set_initial_value(u, false);
  return stg;
}

Stg input_pulse_counter() {
  Stg stg;
  stg.set_name("pulse_counter");
  const SignalId a = stg.add_signal("a", SignalKind::kInput);
  const SignalId x = stg.add_signal("x", SignalKind::kOutput);
  const SignalId y = stg.add_signal("y", SignalKind::kOutput);

  const TransitionId ap1 = stg.add_transition(a, Dir::kPlus);   // a+
  const TransitionId xp = stg.add_transition(x, Dir::kPlus);    // x+
  const TransitionId am1 = stg.add_transition(a, Dir::kMinus);  // a-
  const TransitionId ap2 = stg.add_transition(a, Dir::kPlus);   // a+/2
  const TransitionId yp = stg.add_transition(y, Dir::kPlus);    // y+
  const TransitionId am2 = stg.add_transition(a, Dir::kMinus);  // a-/2
  const TransitionId xm = stg.add_transition(x, Dir::kMinus);   // x-
  const TransitionId ym = stg.add_transition(y, Dir::kMinus);   // y-

  // First pulse raises x, second raises y, then both reset.
  stg.connect(ap1, xp);
  stg.connect(xp, am1);
  stg.connect(am1, ap2);
  stg.connect(ap2, yp);
  stg.connect(yp, am2);
  stg.connect(am2, xm);
  stg.connect(xm, ym);
  marked(stg, ym, ap1);

  stg.set_initial_value(a, false);
  stg.set_initial_value(x, false);
  stg.set_initial_value(y, false);
  return stg;
}

Stg vme_read() {
  Stg stg;
  stg.set_name("vme_read");
  const SignalId dsr = stg.add_signal("dsr", SignalKind::kInput);
  const SignalId ldtack = stg.add_signal("ldtack", SignalKind::kInput);
  const SignalId lds = stg.add_signal("lds", SignalKind::kOutput);
  const SignalId d = stg.add_signal("d", SignalKind::kOutput);
  const SignalId dtack = stg.add_signal("dtack", SignalKind::kOutput);

  const TransitionId dsr_p = stg.add_transition(dsr, Dir::kPlus);
  const TransitionId lds_p = stg.add_transition(lds, Dir::kPlus);
  const TransitionId ldtack_p = stg.add_transition(ldtack, Dir::kPlus);
  const TransitionId d_p = stg.add_transition(d, Dir::kPlus);
  const TransitionId dtack_p = stg.add_transition(dtack, Dir::kPlus);
  const TransitionId dsr_m = stg.add_transition(dsr, Dir::kMinus);
  const TransitionId d_m = stg.add_transition(d, Dir::kMinus);
  const TransitionId dtack_m = stg.add_transition(dtack, Dir::kMinus);
  const TransitionId lds_m = stg.add_transition(lds, Dir::kMinus);
  const TransitionId ldtack_m = stg.add_transition(ldtack, Dir::kMinus);

  stg.connect(dsr_p, lds_p);
  stg.connect(lds_p, ldtack_p);
  stg.connect(ldtack_p, d_p);
  stg.connect(d_p, dtack_p);
  stg.connect(dtack_p, dsr_m);
  stg.connect(dsr_m, d_m);
  stg.connect(d_m, dtack_m);
  stg.connect(d_m, lds_m);
  stg.connect(lds_m, ldtack_m);
  marked(stg, dtack_m, dsr_p);
  marked(stg, ldtack_m, lds_p);

  for (SignalId s :
       std::vector<SignalId>{dsr, ldtack, lds, d, dtack}) {
    stg.set_initial_value(s, false);
  }
  return stg;
}

}  // namespace examples

}  // namespace stgcheck::stg
