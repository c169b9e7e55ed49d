// Substrate microbenchmarks: throughput of the BDD package on the kernels
// the traversal is made of (google-benchmark).
#include <benchmark/benchmark.h>

#include "bdd/bdd.hpp"
#include "core/traversal.hpp"
#include "stg/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace stgcheck;
using bdd::Bdd;

/// Random SOP over `vars` variables with `cubes` cubes of ~`density` lits.
Bdd random_sop(bdd::Manager& m, Rng& rng, std::size_t vars, std::size_t cubes) {
  Bdd f = m.bdd_false();
  for (std::size_t c = 0; c < cubes; ++c) {
    Bdd term = m.bdd_true();
    for (bdd::Var v = 0; v < vars; ++v) {
      if (rng.below(3) == 0) term &= rng.flip() ? m.var(v) : !m.var(v);
    }
    f |= term;
  }
  return f;
}

void BM_BddConjunction(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  bdd::Manager m;
  for (std::size_t v = 0; v < vars; ++v) m.new_var();
  Rng rng(7);
  Bdd f = random_sop(m, rng, vars, 24);
  Bdd g = random_sop(m, rng, vars, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f & g);
  }
  state.counters["nodes"] = static_cast<double>(m.stats().live_count);
  state.counters["cache_hit_rate"] = m.stats().cache_hit_rate();
}
BENCHMARK(BM_BddConjunction)->Arg(16)->Arg(32)->Arg(64);

// Negation is an edge-flag flip in the complement-edge kernel: this is
// the O(1) baseline the set-difference and check formulas now ride on.
void BM_BddNegation(benchmark::State& state) {
  bdd::Manager m;
  for (std::size_t v = 0; v < 64; ++v) m.new_var();
  Rng rng(19);
  Bdd f = random_sop(m, rng, 64, 32);
  for (auto _ : state) {
    Bdd nf = !f;
    benchmark::DoNotOptimize(nf);
  }
  state.counters["nodes"] = static_cast<double>(m.stats().live_count);
}
BENCHMARK(BM_BddNegation);

void BM_BddExists(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  bdd::Manager m;
  for (std::size_t v = 0; v < vars; ++v) m.new_var();
  Rng rng(11);
  Bdd f = random_sop(m, rng, vars, 24);
  std::vector<bdd::Var> half;
  for (bdd::Var v = 0; v < vars; v += 2) half.push_back(v);
  Bdd cube = m.positive_cube(half);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.exists(f, cube));
  }
}
BENCHMARK(BM_BddExists)->Arg(16)->Arg(32)->Arg(64);

void BM_BddAndExists(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  bdd::Manager m;
  for (std::size_t v = 0; v < vars; ++v) m.new_var();
  Rng rng(13);
  Bdd f = random_sop(m, rng, vars, 24);
  Bdd g = random_sop(m, rng, vars, 24);
  std::vector<bdd::Var> half;
  for (bdd::Var v = 0; v < vars; v += 2) half.push_back(v);
  Bdd cube = m.positive_cube(half);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.and_exists(f, g, cube));
  }
}
BENCHMARK(BM_BddAndExists)->Arg(16)->Arg(32)->Arg(64);

void BM_SatCount(benchmark::State& state) {
  bdd::Manager m;
  for (std::size_t v = 0; v < 48; ++v) m.new_var();
  Rng rng(17);
  Bdd f = random_sop(m, rng, 48, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.sat_count(f));
  }
}
BENCHMARK(BM_SatCount);

/// The traversal inner kernel: one image computation on a real encoding.
void BM_ImageKernel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  stg::Stg s = stg::muller_pipeline(n);
  core::SymbolicStg sym(s);
  core::TraversalResult r = core::traverse(sym);
  for (auto _ : state) {
    for (pn::TransitionId t = 0; t < s.net().transition_count(); ++t) {
      benchmark::DoNotOptimize(sym.image(r.reached, t));
    }
  }
  state.counters["reached_nodes"] =
      static_cast<double>(sym.manager().count_nodes(r.reached));
}
BENCHMARK(BM_ImageKernel)->Arg(8)->Arg(16)->Arg(24);

/// The chained firing of the traversal loop at the kernel layer: the fresh
/// states of every transition of muller<n> (first argument) from its
/// reached set. With the second argument 0, known is the whole reached
/// set, as in chaining's last pass, where every image is already known;
/// with 1, only the half of it with signal 0 high, so half of each image
/// is fresh. The Minus arm builds the image and subtracts; the Fresh arm
/// is the one walk (SymbolicStg::fresh_image) that replaces the two. A
/// garbage collection outside the timed region frees each iteration's
/// results and clears the computed cache, so every iteration times the
/// walks themselves, not one cache hit per call; the fixed iteration
/// count bounds the untimed collections.
struct FreshKernelInput {
  stg::Stg s;
  core::SymbolicStg sym;
  Bdd reached;
  Bdd known;

  explicit FreshKernelInput(const benchmark::State& state)
      : s(stg::muller_pipeline(static_cast<std::size_t>(state.range(0)))),
        sym(s) {
    reached = core::traverse(sym).reached;
    known = state.range(1) == 0 ? reached : reached & sym.signal(0);
  }
};

void BM_ImageMinusKernel(benchmark::State& state) {
  FreshKernelInput in(state);
  for (auto _ : state) {
    for (pn::TransitionId t = 0; t < in.s.net().transition_count(); ++t) {
      benchmark::DoNotOptimize(in.sym.image(in.reached, t).minus(in.known));
    }
    state.PauseTiming();
    in.sym.manager().collect_garbage();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ImageMinusKernel)
    ->ArgsProduct({{8, 16, 24}, {0, 1}})
    ->Iterations(50);

void BM_FreshImageKernel(benchmark::State& state) {
  FreshKernelInput in(state);
  for (auto _ : state) {
    for (pn::TransitionId t = 0; t < in.s.net().transition_count(); ++t) {
      benchmark::DoNotOptimize(in.sym.fresh_image(in.reached, t, in.known));
    }
    state.PauseTiming();
    in.sym.manager().collect_garbage();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FreshImageKernel)
    ->ArgsProduct({{8, 16, 24}, {0, 1}})
    ->Iterations(50);

void BM_FullTraversal(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  stg::Stg s = stg::muller_pipeline(n);
  for (auto _ : state) {
    core::SymbolicStg sym(s);
    core::TraversalResult r = core::traverse(sym);
    benchmark::DoNotOptimize(r.stats.states);
  }
}
BENCHMARK(BM_FullTraversal)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// The closed-set tests of a saturated traversal at the kernel layer:
/// mutex48's reached set against its consistency and safeness cubes,
/// built once and shared by the two arms below.
struct ClosedSet {
  stg::Stg net = stg::mutex_arbiter(48);
  core::SymbolicStg sym{net, core::Ordering::kInterleaved, 1 << 14,
                        /*with_primed_vars=*/true};
  Bdd reached;
  std::vector<bdd::CubeLiterals> cubes;
  std::vector<Bdd> cube_bdds;
  std::vector<bool> per_cube;  // the answers of one disjoint call per cube

  ClosedSet() {
    core::TraversalOptions options;
    options.engine = core::EngineKind::kSaturation;
    reached = core::traverse(sym, options).reached;
    for (const auto* list : {&sym.consistency_cubes(), &sym.safeness_cubes()}) {
      cubes.insert(cubes.end(), list->cubes.begin(), list->cubes.end());
    }
    for (const bdd::CubeLiterals& c : cubes) {
      cube_bdds.push_back(sym.manager().cube(c));
      per_cube.push_back(!reached.disjoint_with(cube_bdds.back()));
    }
  }

  static ClosedSet& get() {
    static ClosedSet instance;
    return instance;
  }
  void counters(benchmark::State& state) const {
    state.counters["cubes"] = static_cast<double>(cubes.size());
    state.counters["reached_nodes"] =
        static_cast<double>(sym.manager().count_nodes(reached));
  }
};

// One disjoint_with walk per cube. Each iteration starts from an empty
// computed cache, as the traversal's first test of a new reached set does.
void BM_ClosedSetDisjointPerCube(benchmark::State& state) {
  ClosedSet& cs = ClosedSet::get();
  for (auto _ : state) {
    state.PauseTiming();
    cs.sym.manager().collect_garbage();
    state.ResumeTiming();
    std::vector<bool> meets;
    meets.reserve(cs.cube_bdds.size());
    for (const Bdd& c : cs.cube_bdds) meets.push_back(!cs.reached.disjoint_with(c));
    if (meets != cs.per_cube) state.SkipWithError("answers differ");
  }
  cs.counters(state);
}
BENCHMARK(BM_ClosedSetDisjointPerCube)->Unit(benchmark::kMillisecond);

// The same answers from one cubes_meeting call.
void BM_ClosedSetCubesMeeting(benchmark::State& state) {
  ClosedSet& cs = ClosedSet::get();
  for (auto _ : state) {
    state.PauseTiming();
    cs.sym.manager().collect_garbage();
    state.ResumeTiming();
    const std::vector<bool> meets =
        cs.sym.manager().cubes_meeting(cs.reached, cs.cubes);
    if (meets != cs.per_cube) state.SkipWithError("answers differ");
  }
  cs.counters(state);
}
BENCHMARK(BM_ClosedSetCubesMeeting)->Unit(benchmark::kMillisecond);

void BM_Sifting(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    stg::Stg s = stg::master_read(6);
    core::SymbolicStg sym(s, core::Ordering::kRandom);
    core::TraversalResult r = core::traverse(sym);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sym.manager().sift());
  }
}
BENCHMARK(BM_Sifting)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
