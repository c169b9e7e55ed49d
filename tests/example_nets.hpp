// The shared roster of example nets the cross-validation suites sweep:
// generator families at two sizes plus every hand-built example STG.
// Kept in one place so engine-parametrized suites (explicit-vs-symbolic
// cross-validation, fire-guard identities) agree on what "all example nets"
// means.
#pragma once

#include "stg/generators.hpp"

namespace stgcheck::testutil {

inline stg::Stg example_net(int index) {
  switch (index) {
    case 0: return stg::muller_pipeline(2);
    case 1: return stg::muller_pipeline(5);
    case 2: return stg::master_read(2);
    case 3: return stg::master_read(4);
    case 4: return stg::mutex_arbiter(2);
    case 5: return stg::mutex_arbiter(4);
    case 6: return stg::select_chain(2);
    case 7: return stg::select_chain(4);
    case 8: return stg::examples::fig3_d1();
    case 9: return stg::examples::fig3_d2();
    case 10: return stg::examples::fake_asymmetric(false);
    case 11: return stg::examples::fake_asymmetric(true);
    case 12: return stg::examples::pulse_cycle();
    case 13: return stg::examples::output_cycle();
    case 14: return stg::examples::output_cycle_resolved();
    case 15: return stg::examples::input_pulse_counter();
    case 16: return stg::examples::vme_read();
    case 17: return stg::examples::noncommutative_diamond();
    default: return stg::examples::nondeterministic_choice();
  }
}

inline constexpr int kExampleNetCount = 19;

}  // namespace stgcheck::testutil
