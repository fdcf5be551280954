// Ablation: the MC-FTSA end-to-end fault-tolerance repair
// (McFtsaOptions::enforce_fault_tolerance in core/mc_ftsa.hpp).
//
// The paper's Prop. 4.3 guarantees only per-edge channel survival; our
// exhaustive validator showed that the paper-faithful selection can lose a
// task to a SINGLE crash.  This bench quantifies (a) how often random
// ε-crash scenarios actually break paper-mode schedules, and (b) what the
// repair costs in messages and latency bounds.
#include <iostream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/workload/paper_workload.hpp"

using namespace ftsched;

int main() {
  const auto graphs = static_cast<std::size_t>(env_int("FTSCHED_GRAPHS", 30));
  const auto seed = static_cast<std::uint64_t>(env_int("FTSCHED_SEED", 42));
  const std::size_t trials = 50;  // crash scenarios per schedule

  std::cout << "=== Ablation: MC-FTSA soundness repair (paper-faithful vs "
               "enforced; "
            << graphs << " graphs, m=20, " << trials
            << " random crash scenarios each) ===\n";
  TextTable table({"epsilon", "mode", "lower", "upper", "interproc-msgs",
                   "repair-rate", "crash-failure-rate"});
  for (std::size_t epsilon : {1u, 2u, 5u}) {
    for (const bool enforce : {false, true}) {
      OnlineStats lower;
      OnlineStats upper;
      OnlineStats msgs;
      OnlineStats repair;
      OnlineStats failures;
      Rng root(seed);
      for (std::size_t i = 0; i < graphs; ++i) {
        Rng rng = root.split();
        PaperWorkloadParams params;
        params.granularity = 1.0;
        const auto w = make_paper_workload(rng, params);
        const auto s =
            make_scheduler("mc-ftsa:eps=" + std::to_string(epsilon) +
                           ",seed=" + std::to_string(rng()) +
                           ",enforce=" + (enforce ? "1" : "0"))
                ->run(w->costs());
        lower.add(normalized_latency(s.lower_bound(), w->costs()));
        upper.add(normalized_latency(s.upper_bound(), w->costs()));
        msgs.add(static_cast<double>(s.interproc_message_count()));
        repair.add(static_cast<double>(s.repaired_tasks().size()) /
                   static_cast<double>(w->graph().task_count()));
        std::size_t failed = 0;
        for (std::size_t trial = 0; trial < trials; ++trial) {
          const FailureScenario scenario =
              random_crashes(rng, w->platform().proc_count(), epsilon);
          if (!simulate(s, scenario).success) ++failed;
        }
        failures.add(static_cast<double>(failed) /
                     static_cast<double>(trials));
      }
      table.add_numeric_row(
          std::to_string(epsilon) + " " +
              (enforce ? "enforced" : "paper"),
          {lower.mean(), upper.mean(), msgs.mean(), repair.mean(),
           failures.mean()});
    }
  }
  table.print(std::cout);
  std::cout << "csv:\n" << table.csv();
  std::cout << "(crash-failure-rate must be 0 in enforced mode; a non-zero\n"
               " rate in paper mode is the Prop.-4.3 soundness gap.)\n";
  return 0;
}
