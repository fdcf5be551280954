// Reproduces paper Table 1: running times (seconds) of FTSA, MC-FTSA and
// FTBAR for 100..5000 tasks on 50 processors with ε = 5.
//
// Each row gives the DAG's edge count e, the seconds per schedule and the
// microseconds per edge: at fixed m the paper's O(e·m² + v·log ω) bound for
// FTSA is linear in e, and this generator's e grows faster than v.  Every
// row runs all three schedulers.  The paper reports a complexity gap (FTBAR
// 465 s at 5000 tasks); this FTBAR memoises its message-arrival rows, so all
// three grow at about the same rate here, and EXPERIMENTS.md records one
// run.  FTSCHED_REPS / FTSCHED_SEED override repetitions and seeding.
#include <iostream>

#include "ftsched/experiments/figures.hpp"

int main() {
  ftsched::run_table1(std::cout, ftsched::table1_config());
  return 0;
}
