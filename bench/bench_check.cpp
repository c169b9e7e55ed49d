// Roster sweep of whole checks: every row is one CheckSession run --
// encode, traverse (T+C), deadlock, NI-p, Com, CSC -- the path stg_check
// and stg_checkd take, so a row costs what a user's check costs.
//
// Rows:
//   * each roster family (stg::family_instances(); the mutex families
//     with all-pairs arbitration, as bench_common.hpp::mutex_options)
//     x {default, cofactor, monolithic, saturation}. "default" runs a
//     default CheckConfig, which names no engine;
//   * four failing mutations x {default, cofactor, saturation}:
//       muller64-extra-token  muller64 with a token on <in+,c1+>
//       select48-st5-marked   select48 with st5 marked
//       mread8-extra-token    mread8 with a token on <go+,r0+>
//       mutex24-req1-marked   mutex24 (arbitrated) with req1 marked
//
// The monolithic rows run under a live-node cap (kMonolithicNodeCap). A
// row whose budget trips records "tripped": true and the limit, with the
// gauges of the partial run (no report, so no states or passes). muller64
// has no monolithic row: its breadth-first run needs several times the
// 562 passes of muller32 (muller16 takes 154), and its first 300 passes
// alone take 49 s on a 4-core box.
//
// Each row records the verdict, states, passes, image calls, sift runs,
// the session's peak live nodes, the seconds of every phase
// (ImplementabilityReport::times) and the session's wall time ("seconds",
// encoding build included). A completed row also records the traversal
// layer: the manager's peak when the traversal ended
// ("traversal_peak_live_nodes", read from the session's traversal_done
// event) and the reached set's peak and final BDD size. Counts and peaks
// are deterministic; the seconds are the median of --repeat runs, whose
// counts must agree, after one untimed warm-up check.
// Every default row must equal its saturation row in everything but
// seconds; the bench exits 1 if one does not.
//
// Usage: bench_check [--family NAME]... [--repeat N] [--out FILE]
//   --family  run only the named family or mutation; repeatable. The CI
//             bench-smoke gate runs muller16, mutex12, muller64, mread8,
//             mutex24 and muller64-extra-token.
//   --repeat  runs per row (default 3); the median run's seconds are kept.
//   --out     output path (default BENCH_check.json, or
//             BENCH_check.partial.json when --family is given).
// The output is checked against BENCH_check.json with
// scripts/check_bench_regression.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "stg/generators.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcheck;

constexpr std::size_t kMonolithicNodeCap = 2'000'000;

struct Net {
  std::string name;
  stg::Stg stg;
  core::CheckOptions options;  // arbitration pairs only
  bool mutation = false;       // a failing mutation: no monolithic row
};

struct Row {
  std::string family;
  std::string arm;
  std::string level;  // "-" when the budget tripped before a verdict
  std::string limit;  // the tripped limit, empty otherwise
  double states = 0;
  std::size_t passes = 0;
  std::size_t images = 0;
  std::size_t reorders = 0;  // sift runs
  std::size_t peak_live = 0;
  // The traversal layer; 0 in a row whose budget tripped (not written).
  std::size_t traversal_peak_live = 0;
  std::size_t peak_reached = 0;
  std::size_t final_reached = 0;
  core::PhaseTimes times;
  double seconds = 0;

  /// Everything but the seconds: what must agree across repeats, and
  /// between a default row and its saturation row.
  bool same_counts(const Row& o) const {
    return level == o.level && limit == o.limit &&
           states == o.states && passes == o.passes && images == o.images &&
           reorders == o.reorders && peak_live == o.peak_live &&
           traversal_peak_live == o.traversal_peak_live &&
           peak_reached == o.peak_reached && final_reached == o.final_reached;
  }
};

core::CheckOptions family_options(const stg::FamilyInstance& fam) {
  return std::string(fam.name).rfind("mutex", 0) == 0
             ? bench::mutex_options(fam.n)
             : core::CheckOptions{};
}

std::vector<Net> roster() {
  std::vector<Net> nets;
  for (const stg::FamilyInstance& fam : stg::family_instances()) {
    nets.push_back({fam.name, fam.make(fam.n), family_options(fam), false});
  }
  // Each mutation adds one token to its family's initial marking.
  const struct {
    const char* name;
    const char* family;
    const char* place;
  } mutations[] = {
      {"muller64-extra-token", "muller64", "<in+,c1+>"},
      {"select48-st5-marked", "select48", "st5"},
      {"mread8-extra-token", "mread8", "<go+,r0+>"},
      {"mutex24-req1-marked", "mutex24", "req1"},
  };
  for (const auto& m : mutations) {
    const auto base = std::find_if(nets.begin(), nets.end(),
                                   [&](const Net& n) { return n.name == m.family; });
    Net net = *base;
    net.name = m.name;
    net.mutation = true;
    pn::PetriNet& pnet = net.stg.net();
    pnet.set_initial_tokens(pnet.find_place(m.place), 1);
    nets.push_back(std::move(net));
  }
  return nets;
}

/// The manager's peak live nodes when the traversal ended: the
/// peak_live_nodes metric of the session's traversal_done record.
std::size_t traversal_peak(const core::EventLog& events) {
  for (const core::EventRecord& r : events.records()) {
    if (r.kind != core::EventKind::kTraversalDone) continue;
    for (const auto& [name, value] : r.metrics) {
      if (name == "peak_live_nodes") return static_cast<std::size_t>(value);
    }
  }
  return 0;
}

Row run_once(const Net& net, const std::string& arm) {
  core::SessionOptions options;
  options.check = net.options;
  if (arm == "cofactor") options.check.engine = core::EngineKind::kCofactor;
  if (arm == "saturation") options.check.engine = core::EngineKind::kSaturation;
  if (arm == "monolithic") {
    options.check.engine = core::EngineKind::kMonolithicRelation;
    options.limits.max_live_nodes = kMonolithicNodeCap;
  }
  Stopwatch watch;
  core::CheckSession session(net.stg, std::move(options));
  const core::ImplementabilityReport& report = session.run();
  Row row;
  row.seconds = watch.seconds();
  row.family = net.name;
  row.arm = arm;
  if (session.trip()) {
    row.level = "-";
    row.limit = to_string(session.trip()->kind);
  } else {
    row.level = core::to_string(report.level);
  }
  row.states = report.traversal.stats.states;
  row.passes = report.traversal.stats.passes;
  row.images = report.traversal.stats.image_computations;
  row.reorders = session.encoding()->manager().profile().sift_runs;
  row.peak_live = session.encoding()->manager().peak_live_nodes();
  row.times = report.times;
  if (!session.trip()) {
    row.traversal_peak_live = traversal_peak(session.events());
    row.peak_reached = report.traversal.stats.peak_reached_nodes;
    row.final_reached = report.traversal.stats.final_reached_nodes;
  }
  return row;
}

/// Runs the row `repeat` times and keeps the median run's seconds; the
/// counts must agree across runs (the kernel is sequential).
bool run_row(const Net& net, const std::string& arm, int repeat,
             std::vector<Row>& rows) {
  std::vector<Row> runs;
  for (int r = 0; r < repeat; ++r) runs.push_back(run_once(net, arm));
  std::sort(runs.begin(), runs.end(),
            [](const Row& a, const Row& b) { return a.seconds < b.seconds; });
  const Row& row = runs[runs.size() / 2];
  const bool stable = std::all_of(runs.begin(), runs.end(),
                                  [&](const Row& r) { return r.same_counts(row); });
  std::printf("  %-10s %-40s states=%.4e passes=%4zu images=%6zu "
              "sifts=%zu peak=%8zu  T+C %.3f  DL %.3f  NI-p %.3f  Com %.3f  "
              "CSC %.3f  time %8.4fs%s%s\n",
              arm.c_str(), row.level.c_str(), row.states, row.passes,
              row.images, row.reorders, row.peak_live,
              row.times.traversal_consistency, row.times.deadlock,
              row.times.persistency, row.times.commutativity, row.times.csc,
              row.seconds, row.limit.empty() ? "" : "  [tripped: ",
              row.limit.empty() ? "" : (row.limit + "]").c_str());
  std::fflush(stdout);
  if (!stable) {
    std::fprintf(stderr, "%s / %s: counts differ between repeats\n",
                 net.name.c_str(), arm.c_str());
  }
  rows.push_back(row);
  return stable;
}

json::Value to_json(const Row& r) {
  using json::Value;
  Value phases = Value::object();
  phases.set("traversal", Value(r.times.traversal_consistency));
  phases.set("deadlock", Value(r.times.deadlock));
  phases.set("persistency", Value(r.times.persistency));
  phases.set("commutativity", Value(r.times.commutativity));
  phases.set("csc", Value(r.times.csc));
  Value obj = Value::object();
  obj.set("family", Value(r.family));
  obj.set("arm", Value(r.arm));
  // Every check runs with auto-sift armed; "reorders" counts the sifts.
  obj.set("sift", Value(true));
  obj.set("level", Value(r.level));
  obj.set("tripped", Value(!r.limit.empty()));
  if (!r.limit.empty()) obj.set("limit", Value(r.limit));
  obj.set("states", Value(r.states));
  obj.set("passes", Value(r.passes));
  obj.set("images", Value(r.images));
  obj.set("reorders", Value(r.reorders));
  obj.set("peak_live_nodes", Value(r.peak_live));
  if (r.limit.empty()) {
    obj.set("traversal_peak_live_nodes", Value(r.traversal_peak_live));
    obj.set("peak_reached_nodes", Value(r.peak_reached));
    obj.set("final_reached_nodes", Value(r.final_reached));
  }
  obj.set("phase_seconds", std::move(phases));
  obj.set("seconds", Value(r.seconds));
  return obj;
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  %s%s\n", to_json(rows[i]).dump().c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> selected;
  int repeat = 3;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
      selected.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--family NAME]... [--repeat N] [--out FILE]\n",
                   argv[0]);
      return 1;
    }
  }
  const std::vector<Net> nets = roster();
  for (const std::string& name : selected) {
    if (std::none_of(nets.begin(), nets.end(),
                     [&](const Net& n) { return n.name == name; })) {
      std::fprintf(stderr, "unknown family '%s'\n", name.c_str());
      return 1;
    }
  }
  if (out_path.empty()) {
    out_path = selected.empty() ? "BENCH_check.json" : "BENCH_check.partial.json";
  }

  std::puts("=== Whole checks through CheckSession (stg_check / stg_checkd) ===");
  // One untimed check first, so the allocator's first growth is not
  // charged to the first row, which is always a default row.
  run_once(nets.front(), "default");
  std::vector<Row> rows;
  bool ok = true;
  for (const Net& net : nets) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), net.name) == selected.end()) {
      continue;
    }
    std::printf("--- %s ---\n", net.name.c_str());
    std::vector<std::string> arms = {"default", "cofactor", "saturation"};
    if (!net.mutation && net.name != "muller64") {
      arms.insert(arms.begin() + 2, "monolithic");
    }
    const std::size_t first = rows.size();
    for (const std::string& arm : arms) ok &= run_row(net, arm, repeat, rows);

    const auto row_of = [&](const char* arm) -> const Row& {
      return *std::find_if(rows.begin() + first, rows.end(),
                           [&](const Row& r) { return r.arm == arm; });
    };
    const Row& def = row_of("default");
    if (!def.same_counts(row_of("saturation"))) {
      std::fprintf(stderr, "%s: the default row differs from saturation\n",
                   net.name.c_str());
      ok = false;
    }
    double best = def.seconds;
    for (std::size_t i = first; i < rows.size(); ++i) {
      if (rows[i].limit.empty()) best = std::min(best, rows[i].seconds);
    }
    std::printf("  default / best: %.2fx\n", def.seconds / best);
  }
  if (!write_json(out_path, rows)) return 1;
  return ok ? 0 : 1;
}
