// Shared helpers for the benchmark binaries: row formatting matching the
// layout of the paper's Table 1, and the arbitration options for the
// mutex family.
#pragma once

#include <cstdio>
#include <string>

#include "core/implementability.hpp"
#include "stg/generators.hpp"

namespace stgcheck::bench {

/// All-pairs arbitration declaration for mutex_arbiter(n): the grant
/// conflicts are by design, so the full pipeline can proceed.
inline core::CheckOptions mutex_options(std::size_t n) {
  core::CheckOptions options;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      options.arbitration_pairs.push_back(
          {"g" + std::to_string(i), "g" + std::to_string(j)});
    }
  }
  return options;
}

inline void print_table1_header() {
  std::printf("%-12s %7s %7s %8s %12s %9s %9s | %8s %8s %8s %8s %8s %8s\n",
              "example", "places", "trans", "signals", "states",
              "BDD-peak", "BDD-final", "T+C", "DL", "NI-p", "Com", "CSC",
              "Total");
  std::printf("%s\n", std::string(133, '-').c_str());
}

inline void print_table1_row(const stg::Stg& stg,
                             const core::ImplementabilityReport& report) {
  std::printf("%-12s %7zu %7zu %8zu %12.4e %9zu %9zu | %8.3f %8.3f %8.3f %8.3f "
              "%8.3f %8.3f\n",
              stg.name().c_str(), stg.net().place_count(),
              stg.net().transition_count(), stg.signal_count(),
              report.traversal.stats.states,
              report.traversal.stats.peak_reached_nodes,
              report.traversal.stats.final_reached_nodes,
              report.times.traversal_consistency, report.times.deadlock,
              report.times.persistency, report.times.commutativity,
              report.times.csc, report.times.total);
  std::fflush(stdout);
}

}  // namespace stgcheck::bench
