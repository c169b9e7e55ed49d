// Fig. 5 ablation: the paper's chaining traversal against a classic
// frontier BFS, a full-fixpoint recomputation, the monolithic relation
// and the saturation backend -- each with dynamic reordering off and on.
// The "saturation" arm computes the whole fixpoint with the in-kernel
// REACH operation (per-transition sparse relations partitioned by level,
// no whole-space frontiers; see docs/architecture.md).
//
// Chaining lets transitions later in the pass fire from states discovered
// earlier in the same pass, cutting the number of outer passes (and hence
// peak intermediate BDDs) on long pipelines. The monolithic relation is
// the textbook baseline the paper argued against.
//
// The sift toggle measures the reordering lever the paper never had:
// variable groups keep each primed twin pair together, so even the
// relational backends can reorder mid-traversal. The sift arms run the
// single sift pass the checker runs; the "reorders" column counts sifts.
// The between-pass GC and watermark run on the same schedule in both
// arms (core::AutoSiftPolicy), so comparing a "+sift" row against its
// baseline isolates what the reordering itself buys. Expect wins where
// the traversal's working set
// dominates and losses where sifting optimizes the persistent BDDs at the
// expense of the relational image intermediates (mread8 monolithic):
// dynamic reordering is a lever, not a free lunch.
//
// Every row reports peak_intermediate_nodes: the worst transient live-node
// overhead of a single image/preimage step (peak inside the step minus
// live entering it), sampled by the engines' step gauges. The select24
// monolithic arm's multi-million-node and_exists intermediates live here,
// not in any stored BDD.
//
// Every row also reports the kernel-health counters that complement-edge
// and cache work move: the computed-cache hit rate and the unique-table
// load factor, both read from ManagerStats at the end of the arm.
//
// Results are printed and also written to BENCH_traversal.json.
// Usage: bench_traversal_strategies [--sift | --no-sift]
//                                   [--family <name>]... [--out <path>]
//   --sift     only the sift-on arms  (writes BENCH_traversal.sift.json)
//   --no-sift  only the sift-off arms (writes BENCH_traversal.nosift.json)
//   --family   run only the named instance (classic: muller16, mread8,
//              mutex12, select24; scaled: muller32/64, mutex24/48,
//              select48/96 -- the scaled tiers run only the saturation
//              arm); repeatable. The CI bench-smoke job uses this to
//              gate on the fast families.
//   --out      override the output JSON path.
//   (default: both arms, all families, written to BENCH_traversal.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "stg/generators.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcheck;

struct Row {
  std::string family;
  std::string arm;
  bool sift = false;
  std::size_t passes = 0;
  std::size_t images = 0;
  std::size_t peak_reached = 0;   // BDD size of Reached (Table 1 "peak")
  std::size_t peak_live = 0;      // manager-wide live-node high water
  std::size_t peak_intermediate = 0;  // worst single-step transient overhead
  std::size_t relation_nodes = 0; // 0 for the cofactor arms
  std::size_t units = 0;
  std::size_t reorders = 0;       // completed sift passes
  double cache_hit_rate = 0;      // computed-cache hits / lookups
  double unique_load = 0;         // unique-table nodes per bucket
  double seconds = 0;
  double states = 0;
  // Observability extras (profiling armed on every arm): phase timings
  // and the per-group cache hit rates that split the aggregate
  // cache_hit_rate (binary ops / REACH / permute memo -- the groups
  // partition the aggregate exactly).
  double gc_time_ms = 0;
  double sift_time_ms = 0;
  double cache_hit_binary = 0;
  double cache_hit_reach = 0;
  double cache_hit_permute = 0;
};

std::vector<Row> g_rows;

void record(const Row& row) {
  std::printf(
      "  %-22s passes=%4zu images=%6zu peak=%8zu live-peak=%8zu "
      "inter=%8zu rel=%6zu units=%4zu "
      "reorders=%2zu hit=%.3f load=%.2f time=%7.3fs states=%.3e\n",
      row.arm.c_str(), row.passes, row.images, row.peak_reached,
      row.peak_live, row.peak_intermediate, row.relation_nodes, row.units,
      row.reorders, row.cache_hit_rate, row.unique_load, row.seconds,
      row.states);
  std::fflush(stdout);
  g_rows.push_back(row);
}

core::TraversalOptions arm_options(core::TraversalStrategy strategy,
                                   bool sift) {
  core::TraversalOptions options;
  options.strategy = strategy;
  options.auto_sift = sift;
  return options;
}

void run_cofactor_arm(const stg::Stg& s, const std::string& name,
                      core::TraversalStrategy strategy, bool sift) {
  Stopwatch watch;
  core::SymbolicStg sym(s);
  sym.manager().set_profiling(true);  // arm GC/sift phase timings
  core::CofactorEngine engine(sym);
  core::TraversalResult r =
      core::traverse(engine, arm_options(strategy, sift));
  const bdd::ManagerStats ms = sym.manager().stats();
  const bdd::ManagerProfile prof = sym.manager().profile();
  record(Row{s.name(), name, sift, r.stats.passes,
             r.stats.image_computations, r.stats.peak_reached_nodes,
             sym.manager().peak_live_nodes(),
             engine.stats().peak_intermediate_nodes,
             engine.stats().relation_nodes, engine.stats().units,
             sym.manager().reorder_epoch(), ms.cache_hit_rate(),
             ms.unique_load_factor(), watch.seconds(), r.stats.states,
             prof.gc_seconds * 1e3, prof.sift_seconds * 1e3,
             ms.binary_cache_hit_rate(), ms.reach_cache_hit_rate(),
             ms.permute_cache_hit_rate()});
}

void run_relation_arm(const stg::Stg& s, const std::string& name,
                      core::EngineKind kind, core::TraversalStrategy strategy,
                      bool sift) {
  Stopwatch watch;
  core::SymbolicStg sym(s, core::Ordering::kInterleaved, 1 << 14,
                        /*with_primed_vars=*/true);
  sym.manager().set_profiling(true);  // arm GC/sift phase timings
  const std::unique_ptr<core::ImageEngine> engine =
      core::make_engine(kind, sym);
  core::TraversalResult r =
      core::traverse(*engine, arm_options(strategy, sift));
  const bdd::ManagerStats ms = sym.manager().stats();
  const bdd::ManagerProfile prof = sym.manager().profile();
  record(Row{s.name(), name, sift, r.stats.passes,
             r.stats.image_computations, r.stats.peak_reached_nodes,
             sym.manager().peak_live_nodes(),
             engine->stats().peak_intermediate_nodes,
             engine->stats().relation_nodes, engine->stats().units,
             sym.manager().reorder_epoch(),
             ms.cache_hit_rate(), ms.unique_load_factor(), watch.seconds(),
             r.stats.states,
             prof.gc_seconds * 1e3, prof.sift_seconds * 1e3,
             ms.binary_cache_hit_rate(), ms.reach_cache_hit_rate(),
             ms.permute_cache_hit_rate()});
}

void run(const stg::Stg& s, bool sift_off, bool sift_on, bool scaled) {
  std::printf("--- %s ---\n", s.name().c_str());
  std::vector<bool> toggles;
  if (sift_off) toggles.push_back(false);
  if (sift_on) toggles.push_back(true);
  // The scaled tiers (muller32/64, mutex24/48, select48/96) measure
  // saturation at size, not the full ablation: they run only the
  // saturation arm, whose wall-clock stays in seconds where the frontier
  // arms would take minutes to hours.
  if (scaled) {
    for (const bool sift : toggles) {
      const char* suffix = sift ? "+sift" : "";
      run_relation_arm(s, std::string("saturation") + suffix,
                       core::EngineKind::kSaturation,
                       core::TraversalStrategy::kChaining, sift);
    }
    return;
  }
  for (const bool sift : toggles) {
    const char* suffix = sift ? "+sift" : "";
    run_cofactor_arm(s, std::string("chaining (Fig.5)") + suffix,
                     core::TraversalStrategy::kChaining, sift);
    run_cofactor_arm(s, std::string("frontier BFS") + suffix,
                     core::TraversalStrategy::kFrontierBfs, sift);
    run_cofactor_arm(s, std::string("full fixpoint") + suffix,
                     core::TraversalStrategy::kFullFixpoint, sift);
    run_relation_arm(s, std::string("monolithic rel.") + suffix,
                     core::EngineKind::kMonolithicRelation,
                     core::TraversalStrategy::kFrontierBfs, sift);
    // The saturation arm: the whole fixpoint in one in-kernel REACH.
    run_relation_arm(s, std::string("saturation") + suffix,
                     core::EngineKind::kSaturation,
                     core::TraversalStrategy::kChaining, sift);
  }
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    // A state count beyond double range prints as "inf", which no JSON
    // parser takes; spell it the way Python's json module reads back, so
    // the regression gate can see and reject it.
    char states_buf[32];
    if (std::isfinite(r.states)) {
      std::snprintf(states_buf, sizeof states_buf, "%.6e", r.states);
    } else {
      std::snprintf(states_buf, sizeof states_buf, "%s",
                    r.states > 0 ? "Infinity" : "-Infinity");
    }
    std::fprintf(f,
                 "  {\"family\": \"%s\", \"arm\": \"%s\", \"sift\": %s, "
                 "\"passes\": %zu, "
                 "\"images\": %zu, \"peak_reached_nodes\": %zu, "
                 "\"peak_live_nodes\": %zu, \"peak_intermediate_nodes\": %zu, "
                 "\"relation_nodes\": %zu, "
                 "\"units\": %zu, "
                 "\"reorders\": %zu, "
                 "\"cache_hit_rate\": %.4f, \"unique_table_load\": %.4f, "
                 "\"gc_time_ms\": %.3f, \"sift_time_ms\": %.3f, "
                 "\"cache_hit_binary\": %.4f, \"cache_hit_reach\": %.4f, "
                 "\"cache_hit_permute\": %.4f, "
                 "\"seconds\": %.6f, \"states\": %s}%s\n",
                 r.family.c_str(), r.arm.c_str(), r.sift ? "true" : "false",
                 r.passes, r.images,
                 r.peak_reached,
                 r.peak_live, r.peak_intermediate, r.relation_nodes, r.units,
                 r.reorders, r.cache_hit_rate,
                 r.unique_load, r.gc_time_ms, r.sift_time_ms,
                 r.cache_hit_binary, r.cache_hit_reach, r.cache_hit_permute,
                 r.seconds, states_buf,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path, g_rows.size());
}

bool family_selected(const std::vector<std::string>& families,
                     const char* name) {
  if (families.empty()) return true;
  for (const std::string& f : families) {
    if (f == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool sift_off = true;
  bool sift_on = true;
  std::vector<std::string> families;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sift") == 0) {
      sift_off = false;
    } else if (std::strcmp(argv[i], "--no-sift") == 0) {
      sift_on = false;
    } else if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
      families.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sift | --no-sift] [--family <name>]... "
                   "[--out <path>]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!sift_off && !sift_on) {
    // Both flags together would run nothing and clobber the JSON with [].
    std::fprintf(stderr, "--sift and --no-sift are mutually exclusive\n");
    return 1;
  }
  // The shared roster (stg::family_instances) drives --family validation
  // and the dispatch: the classic sizes run the full ablation, the scaled
  // tiers run the saturation pair only (see run()).
  const auto is_classic = [](const std::string& name) {
    return name == "muller16" || name == "mread8" || name == "mutex12" ||
           name == "select24";
  };
  for (const std::string& f : families) {
    const bool known =
        std::any_of(stg::family_instances().begin(),
                    stg::family_instances().end(),
                    [&](const stg::FamilyInstance& fam) { return f == fam.name; });
    if (!known) {
      std::fprintf(stderr, "unknown family '%s'\n", f.c_str());
      return 1;
    }
  }
  std::puts("=== Traversal strategy ablation (Fig. 5) ===");
  for (const stg::FamilyInstance& fam : stg::family_instances()) {
    if (family_selected(families, fam.name)) {
      run(fam.make(fam.n), sift_off, sift_on,
          /*scaled=*/!is_classic(fam.name));
    }
  }
  if (out_path != nullptr) {
    write_json(out_path);
    return 0;
  }
  // Restricted runs write to a mode- and subset-suffixed file so a half
  // table never clobbers the canonical comparison artifact (or another
  // restricted run's output).
  const std::string mode = sift_off && sift_on ? "" : sift_on ? ".sift" : ".nosift";
  const std::string subset = families.empty() ? "" : ".partial";
  write_json(("BENCH_traversal" + subset + mode + ".json").c_str());
  return 0;
}
