// Regenerates Table 1 of the paper: symbolic verification of scalable
// STGs with exponentially growing state spaces.
//
// Paper columns: example | # places | # signals | # states |
//                BDD size (peak | final) | CPU s: T+C | NI-p | CSC | Total
// (We add the transition count and the Com column the text describes.)
//
// The families:
//   muller(n)  Muller C-element pipeline     marked graph, persistency free
//   mread(n)   master-read controller        marked graph
//   mutex(n)   n-user ME element             conflict-rich, arbitration
//   select(n)  free-choice input selections  multi-instance labels
//
// The absolute seconds differ from the 1995 hardware, but the paper's
// claim reproduces: state counts grow exponentially while BDD sizes and
// CPU times stay polynomial, and marked graphs get their persistency check
// for free (structural shortcut).
//
// Every row runs the paper's own method, pinned rather than inherited from
// the library defaults so that a later default change cannot move the
// table: the cofactor engine, the chaining traversal of Fig. 5 and
// auto-sift (always on in check_implementability).
#include "bench_common.hpp"

namespace {

using namespace stgcheck;

core::CheckOptions paper_method(core::CheckOptions options = {}) {
  options.engine = core::EngineKind::kCofactor;
  options.strategy = core::TraversalStrategy::kChaining;
  return options;
}

}  // namespace

int main() {
  using namespace stgcheck::bench;

  std::puts("=== Table 1: checking STG implementability by symbolic traversal ===");
  print_table1_header();

  for (std::size_t n : {8u, 16u, 24u, 32u, 40u}) {
    stg::Stg s = stg::muller_pipeline(n);
    core::ImplementabilityReport r =
        core::check_implementability(s, paper_method());
    print_table1_row(s, r);
  }
  for (std::size_t n : {2u, 4u, 6u, 8u}) {
    stg::Stg s = stg::master_read(n);
    core::ImplementabilityReport r =
        core::check_implementability(s, paper_method());
    print_table1_row(s, r);
  }
  for (std::size_t n : {4u, 8u, 12u, 16u}) {
    stg::Stg s = stg::mutex_arbiter(n);
    core::ImplementabilityReport r =
        core::check_implementability(s, paper_method(mutex_options(n)));
    print_table1_row(s, r);
  }
  for (std::size_t n : {8u, 16u, 32u}) {
    stg::Stg s = stg::select_chain(n);
    core::ImplementabilityReport r =
        core::check_implementability(s, paper_method());
    print_table1_row(s, r);
  }
  return 0;
}
