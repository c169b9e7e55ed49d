// Figures 3 and 4 of the paper: transition vs signal persistency and the
// classification of fake conflicts.
//
// D1 contains two transitions in direct conflict (a+ vs b+/2) that are
// both non-persistent, yet both *signals* remain persistent: whichever
// fires, the other signal's alternative instance becomes enabled -- a
// *symmetric fake conflict*. D2 realizes the same state graph with plain
// concurrency and no conflict at all. The asymmetric variant keeps signal
// b alive after a+ but kills signal a after b+.
#include <cstdio>

#include "core/checks.hpp"
#include "core/traversal.hpp"
#include "sg/explicit_checks.hpp"
#include "sg/state_graph.hpp"
#include "stg/generators.hpp"

namespace {

void analyze(const stgcheck::stg::Stg& stg) {
  using namespace stgcheck;
  std::printf("---- %s ----\n", stg.name().c_str());

  core::SymbolicStg sym(stg);
  core::TraversalResult traversal = core::traverse(sym);
  std::printf("reachable full states: %.0f\n", traversal.stats.states);

  const auto transition_conflicts =
      core::transition_persistency(sym, traversal.reached);
  std::printf("non-persistent transition pairs: %zu\n", transition_conflicts.size());
  for (const auto& v : transition_conflicts) {
    std::printf("  transition %s disabled by %s\n",
                stg.format_label(v.victim).c_str(),
                stg.format_label(v.disabler).c_str());
  }

  const auto signal_violations = core::signal_persistency(sym, traversal.reached);
  std::printf("signal persistency violations:  %zu\n", signal_violations.size());
  for (const auto& v : signal_violations) {
    std::printf("  signal %s disabled by %s\n",
                stg.signal_name(v.victim).c_str(),
                stg.format_label(v.disabler).c_str());
  }

  for (const auto& report : core::analyze_fake_conflicts(sym, traversal.reached)) {
    const char* kind = report.symmetric_fake()    ? "symmetric fake"
                       : report.asymmetric_fake() ? "asymmetric fake"
                                                  : "real";
    std::printf("conflict %s vs %s: %s\n", stg.format_label(report.t1).c_str(),
                stg.format_label(report.t2).c_str(), kind);
  }
  const auto freedom = core::check_fake_freedom(sym, traversal.reached);
  std::printf("fake-free STG: %s\n\n", freedom.fake_free ? "yes" : "NO");
}

}  // namespace

int main() {
  using namespace stgcheck;

  std::puts("== Fig. 3: same state graph, conflict vs concurrency ==");
  analyze(stg::examples::fig3_d1());
  analyze(stg::examples::fig3_d2());

  // The two nets realize the same SG: same code count, same state count.
  sg::StateGraph g1 = sg::build_state_graph(stg::examples::fig3_d1());
  sg::StateGraph g2 = sg::build_state_graph(stg::examples::fig3_d2());
  std::printf("D1 codes: %zu, D2 codes: %zu (identical SG per Sec. 3.2)\n\n",
              g1.distinct_codes(), g2.distinct_codes());

  std::puts("== Fig. 4: asymmetric fake conflicts ==");
  analyze(stg::examples::fake_asymmetric(/*output_ab=*/false));
  std::puts("(as inputs the asymmetric fake is a legal choice; as outputs:)");
  analyze(stg::examples::fake_asymmetric(/*output_ab=*/true));
  return 0;
}
