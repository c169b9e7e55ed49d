// Complete State Coding in depth: excitation/quiescent regions, the
// contradictory code sets, and the reducible/irreducible classification
// (Secs. 3.3, 3.4, 5.3 of the paper).
//
// Four specimens:
//   pulse_cycle          CSC violation, IRREDUCIBLE: the contradictory
//                        states are joined by the input-only path a-, a+
//                        (mutually complementary input sequences);
//   output_cycle         same code clash but among outputs: REDUCIBLE;
//   output_cycle_resolved the reduction, realized: CSC holds;
//   vme_read             the classic VME bus controller read cycle.
#include <cstdio>

#include "core/checks.hpp"
#include "core/traversal.hpp"
#include "stg/generators.hpp"

namespace {

void analyze(const stgcheck::stg::Stg& stg) {
  using namespace stgcheck;
  std::printf("---- %s ----\n", stg.name().c_str());

  core::SymbolicStg sym(stg);
  core::TraversalResult traversal = core::traverse(sym);
  bdd::Manager& m = sym.manager();
  std::printf("states: %.0f, codes: %.0f\n", traversal.stats.states,
              sym.count_codes(traversal.reached));

  for (stg::SignalId a : stg.noninput_signals()) {
    const core::SignalRegions r = core::signal_regions(sym, traversal.reached, a);
    const bdd::Bdd clash = (r.er_plus & r.qr_minus) | (r.er_minus & r.qr_plus);
    std::printf("  signal %-4s ER(+): %-22s QR(-): %s\n",
                stg.signal_name(a).c_str(), m.to_string(r.er_plus, 4).c_str(),
                m.to_string(r.qr_minus, 4).c_str());
    if (!clash.is_false()) {
      std::printf("    CSC(%s) VIOLATED on codes: %s\n",
                  stg.signal_name(a).c_str(), m.to_string(clash, 4).c_str());
    }
  }

  const core::SymCscResult csc = core::check_csc(sym, traversal.reached);
  std::printf("USC: %s, CSC: %s\n", csc.unique_state_coding ? "yes" : "NO",
              csc.complete_state_coding ? "yes" : "NO");
  if (!csc.complete_state_coding) {
    const core::SymReducibilityResult red =
        core::check_csc_reducibility(sym, traversal.reached, csc);
    if (red.reducible) {
      std::puts("verdict: REDUCIBLE - internal signal insertion can fix it");
    } else {
      std::printf("verdict: IRREDUCIBLE for");
      for (stg::SignalId s : red.irreducible_signals) {
        std::printf(" %s", stg.signal_name(s).c_str());
      }
      std::puts(" - mutually complementary input sequences; the interface"
                " must change");
    }
  }
  std::puts("");
}

}  // namespace

int main() {
  using namespace stgcheck;
  analyze(stg::examples::pulse_cycle());
  analyze(stg::examples::output_cycle());
  analyze(stg::examples::output_cycle_resolved());
  analyze(stg::examples::vme_read());
  return 0;
}
