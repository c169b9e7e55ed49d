// The checks layer bench: the cost of each Sec. 5 check on the scaled
// families, with the traversal that feeds them timed apart.
//
// Each family is traversed once under the saturation engine, as
// `stg_check --engine saturation` traverses it; then four checks run on
// the reached set and are timed separately:
//   * transition persistency (Fig. 6a),
//   * signal persistency (Fig. 6b; the mutex families declare all-pairs
//     arbitration, as bench_table1 does),
//   * fake conflicts (Sec. 5.4, check_fake_freedom),
//   * CSC (Sec. 5.3, check_csc).
//
// mutex(n) is the conflict-rich family (n grant conflicts on one place);
// select(n) exercises multi-instance labels; the Muller pipelines are the
// marked-graph control group with no structural conflict at all, so their
// pair checks cost nothing and CSC is the whole layer.
//
// Usage: bench_persistency_csc [--family <name>]... [--out <path>]
//   --family  run only the named roster instance (repeatable; any name of
//             stg::family_instances). Default: muller32, muller64,
//             mutex24, mutex48, select24, select48.
//   --out     also write the rows as a JSON array to <path>.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checks.hpp"
#include "core/image_engine.hpp"
#include "core/traversal.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcheck;

struct Row {
  std::string family;
  double states = 0;
  double traversal_s = 0;
  double transition_persistency_s = 0;
  std::size_t transition_conflicts = 0;
  double signal_persistency_s = 0;
  std::size_t persistency_violations = 0;
  double fake_conflicts_s = 0;
  std::size_t fake_offending = 0;
  double csc_s = 0;
  std::size_t csc_conflicts = 0;
  std::size_t check_image_calls = 0;  // image_via calls made by the checks
  std::size_t peak_live_nodes = 0;
};

core::SymPersistencyOptions arbitration(const stg::Stg& s,
                                        const stg::FamilyInstance& fam) {
  core::SymPersistencyOptions options;
  if (std::string(fam.name).rfind("mutex", 0) != 0) return options;
  for (const auto& [a, b] : bench::mutex_options(fam.n).arbitration_pairs) {
    options.arbitration_pairs.push_back({s.find_signal(a), s.find_signal(b)});
  }
  return options;
}

Row run(const stg::FamilyInstance& fam) {
  const stg::Stg s = fam.make(fam.n);
  Row row;
  row.family = fam.name;

  Stopwatch watch;
  core::SymbolicStg sym(s, core::Ordering::kInterleaved, 1 << 14,
                        /*with_primed_vars=*/true);
  const std::unique_ptr<core::ImageEngine> engine =
      core::make_engine(core::EngineKind::kSaturation, sym);
  core::TraversalOptions topt;
  topt.engine = core::EngineKind::kSaturation;
  const core::TraversalResult traversal = core::traverse(*engine, topt);
  row.traversal_s = watch.restart();
  row.states = traversal.stats.states;
  const bdd::Bdd& reached = traversal.reached;
  const std::size_t images_before = engine->stats().image_calls;

  row.transition_conflicts =
      core::transition_persistency(*engine, reached).size();
  row.transition_persistency_s = watch.restart();

  row.persistency_violations =
      core::signal_persistency(*engine, reached, arbitration(s, fam)).size();
  row.signal_persistency_s = watch.restart();

  row.fake_offending =
      core::check_fake_freedom(*engine, reached).offending.size();
  row.fake_conflicts_s = watch.restart();

  row.csc_conflicts = core::check_csc(sym, reached).conflicts.size();
  row.csc_s = watch.restart();

  row.check_image_calls = engine->stats().image_calls - images_before;
  row.peak_live_nodes = sym.manager().peak_live_nodes();

  std::printf(
      "%-9s states=%.3e  T+C=%7.3fs  trans-pers=%7.3fs (%zu)  "
      "sig-pers=%7.3fs (%zu)  fake=%7.3fs (%zu)  csc=%7.3fs (%zu)  "
      "images=%zu  peak=%zu\n",
      row.family.c_str(), row.states, row.traversal_s,
      row.transition_persistency_s, row.transition_conflicts,
      row.signal_persistency_s, row.persistency_violations,
      row.fake_conflicts_s, row.fake_offending, row.csc_s, row.csc_conflicts,
      row.check_image_calls, row.peak_live_nodes);
  std::fflush(stdout);
  return row;
}

bool write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // select96's state count overflows a double; spell it as Python's
    // json module reads it back.
    char states[32];
    if (std::isfinite(r.states)) {
      std::snprintf(states, sizeof states, "%.6e", r.states);
    } else {
      std::snprintf(states, sizeof states, "Infinity");
    }
    std::fprintf(f,
                 "  {\"family\": \"%s\", \"engine\": \"saturation\", "
                 "\"states\": %s, \"traversal_s\": %.6f, "
                 "\"transition_persistency_s\": %.6f, "
                 "\"transition_conflicts\": %zu, "
                 "\"signal_persistency_s\": %.6f, "
                 "\"persistency_violations\": %zu, "
                 "\"fake_conflicts_s\": %.6f, \"fake_offending\": %zu, "
                 "\"csc_s\": %.6f, \"csc_conflicts\": %zu, "
                 "\"check_image_calls\": %zu, \"peak_live_nodes\": %zu}%s\n",
                 r.family.c_str(), states, r.traversal_s,
                 r.transition_persistency_s, r.transition_conflicts,
                 r.signal_persistency_s, r.persistency_violations,
                 r.fake_conflicts_s, r.fake_offending, r.csc_s,
                 r.csc_conflicts, r.check_image_calls, r.peak_live_nodes,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path, rows.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> families;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
      families.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--family <name>]... [--out <path>]\n",
                   argv[0]);
      return 1;
    }
  }
  if (families.empty()) {
    families = {"muller32", "muller64", "mutex24",
                "mutex48",  "select24", "select48"};
  }
  const std::vector<stg::FamilyInstance>& roster = stg::family_instances();
  std::vector<const stg::FamilyInstance*> selected;
  for (const std::string& name : families) {
    const auto it = std::find_if(
        roster.begin(), roster.end(),
        [&](const stg::FamilyInstance& fam) { return name == fam.name; });
    if (it == roster.end()) {
      std::fprintf(stderr, "unknown family '%s'\n", name.c_str());
      return 1;
    }
    selected.push_back(&*it);
  }

  std::puts("=== Checks layer: persistency (Fig. 6), fake conflicts "
            "(Sec. 5.4), CSC (Sec. 5.3) under saturation ===");
  std::vector<Row> rows;
  for (const stg::FamilyInstance* fam : selected) rows.push_back(run(*fam));
  if (out_path != nullptr && !write_json(out_path, rows)) return 1;
  return 0;
}
