// Sec. 6 of the paper: "we have found that BDDs may have an exponential
// size if appropriate heuristics for variable ordering are not used."
//
// This ablation quantifies that remark: the same traversal (the paper's
// cofactor chaining, auto-sift off) under each static order. The
// structural interleaving keeps each place variable next to the variables
// it interacts with; clustering keeps fork-join branches together (it
// wins on mread); shuffling everything inflates the peak BDD by orders of
// magnitude.
//
// Usage: bench_ordering_ablation [--out FILE]
//   Rows (family, arm = ordering, sift = false) go to FILE (default
//   BENCH_ordering.json) in the schema scripts/check_bench_regression.py
//   reads: states, passes, images, peak_live_nodes (the manager's
//   high-water mark), peak_reached_nodes and seconds.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/traversal.hpp"
#include "stg/generators.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcheck;

void run(const stg::Stg& s, std::vector<json::Value>& rows) {
  std::printf("--- %s (places=%zu signals=%zu) ---\n", s.name().c_str(),
              s.net().place_count(), s.signal_count());
  for (const core::Ordering ordering :
       {core::Ordering::kInterleaved, core::Ordering::kClustered,
        core::Ordering::kRandom}) {
    Stopwatch watch;
    core::SymbolicStg sym(s, ordering);
    core::TraversalOptions options;
    options.auto_sift = false;  // measure the raw static orders
    core::TraversalResult r = core::traverse(sym, options);
    const double seconds = watch.seconds();
    const std::size_t peak_live = sym.manager().peak_live_nodes();
    std::printf("  %-14s peak=%8zu live-peak=%8zu final=%8zu nodes  "
                "time=%7.3fs  (states=%.3e)\n",
                core::to_string(ordering), r.stats.peak_reached_nodes,
                peak_live, r.stats.final_reached_nodes, seconds,
                r.stats.states);
    std::fflush(stdout);

    json::Value row = json::Value::object();
    row.set("family", json::Value(s.name()));
    row.set("arm", json::Value(core::to_string(ordering)));
    row.set("sift", json::Value(false));
    row.set("states", json::Value(r.stats.states));
    row.set("passes", json::Value(r.stats.passes));
    row.set("images", json::Value(r.stats.image_computations));
    row.set("peak_live_nodes", json::Value(peak_live));
    row.set("peak_reached_nodes", json::Value(r.stats.peak_reached_nodes));
    row.set("seconds", json::Value(seconds));
    rows.push_back(std::move(row));
  }

  // Extension: dynamic reordering. Sifting after traversal shrinks the
  // final representation regardless of the initial order.
  core::SymbolicStg sym(s, core::Ordering::kRandom);
  core::TraversalResult r = core::traverse(sym);
  const std::size_t before = sym.manager().count_nodes(r.reached);
  Stopwatch sift_watch;
  sym.manager().sift();
  std::printf("  %-14s %8zu -> %6zu nodes for Reached  (sift time %.3fs)\n",
              "random+sift", before, sym.manager().count_nodes(r.reached),
              sift_watch.seconds());
}

bool write_json(const std::string& path, const std::vector<json::Value>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  %s%s\n", rows[i].dump().c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_ordering.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 1;
    }
  }
  std::puts("=== Variable ordering ablation (Sec. 6 remark) ===");
  std::vector<json::Value> rows;
  run(stg::muller_pipeline(12), rows);
  run(stg::master_read(6), rows);
  run(stg::mutex_arbiter(8), rows);
  return write_json(out_path, rows) ? 0 : 1;
}
