// Ablation: static schedules vs online rescheduling policies under
// repair/restart failure dynamics.  The policy axis pairs every cell on
// identical workload instances and failure draws (the policy index is not
// part of the RNG stream), so each row of one failure law differs *only*
// in how the run reacts to the drawn crashes: `none` executes the static
// schedule as-is (a repaired processor resumes the work it parked),
// `requeue-heft` / `reactive-ftsa` remap not-yet-started replicas onto
// survivors (and repaired processors) at every event.
//
// Because `none` honours repairs too, each gate compares a policy with the
// static replay under the *same* failure law, so it measures what the
// policy adds, not what the repair adds.  Under `bernoulli:` crashes are
// permanent and requeue-heft must rescue runs the static schedule loses
// (success rate); under `repair:` reactive-ftsa must finish its surviving
// runs sooner than the static replay (survivor latency).  The bench exits
// 2 when either fails, so CI catches a regression in the online path's
// usefulness, not just its determinism.
#include <iostream>
#include <string>
#include <vector>

#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/table.hpp"

using namespace ftsched;

int main() {
  const auto graphs = static_cast<std::size_t>(env_int("FTSCHED_GRAPHS", 30));

  FigureConfig config = figure_config(2);  // epsilon = 2, m = 20
  config.granularities = {1.0};
  config.extra_crash_counts.clear();
  config.graphs_per_point = graphs;
  config.failure_models = {"bernoulli:p=0.2", "repair:p=0.2,mttr=0.5"};
  config.policies = {"none", "requeue-heft", "reactive-ftsa"};
  const SweepResult sweep = run_sweep(config);

  std::cout << "=== Ablation: rescheduling policies (epsilon="
            << config.epsilon << ", m=" << config.proc_count << ", "
            << graphs
            << " graphs; identical crash draws in every policy row) ===\n";
  TextTable table({"failure model / policy", "FTSA success",
                   "FTSA latency|ok", "FTSA moves", "MC-FTSA success"});
  auto stats_of = [&](const std::string& series, const std::string& failure,
                      const std::string& policy) {
    // A cell where no run survived never emits its survivor series at all;
    // report the empty accumulator instead of throwing.
    const auto it = sweep.series.find(
        sweep_series_name(sweep, series, "paper", "t0", failure, policy));
    return it == sweep.series.end() ? OnlineStats{} : it->second[0];
  };
  auto success_of = [&](const std::string& failure,
                        const std::string& policy) {
    return stats_of("FTSA-Success", failure, policy).mean();
  };
  for (const std::string& failure : sweep.failures) {
    for (const std::string& policy : sweep.policies) {
      const OnlineStats latency = stats_of("FTSA-DrawnCrash", failure, policy);
      const OnlineStats moves = stats_of("FTSA-Moves", failure, policy);
      table.add_numeric_row(
          failure + " / " + policy,
          {success_of(failure, policy),
           latency.count() ? latency.mean() : 0.0,
           moves.count() ? moves.mean() : 0.0,
           stats_of("MC-FTSA-Success", failure, policy).mean()});
    }
  }
  table.print(std::cout);
  std::cout << "csv:\n" << table.csv();
  std::cout << "(success = completed runs / all runs per cell; latency is "
               "normalized and averaged\n over the survivors only; moves = "
               "mean replica remaps the policy applied per run —\n 0 for "
               "`none`, the static replay, whose repaired processors resume "
               "their parked work)\n";

  // The acceptance gates, each policy against `none` under one law.
  const std::string permanent = "bernoulli:p=0.2";
  const std::string repair = "repair:p=0.2,mttr=0.5";
  const double static_ok = success_of(permanent, "none");
  const double requeue_ok = success_of(permanent, "requeue-heft");
  const double static_latency =
      stats_of("FTSA-DrawnCrash", repair, "none").mean();
  const double reactive_latency =
      stats_of("FTSA-DrawnCrash", repair, "reactive-ftsa").mean();
  std::cout << "gate: " << permanent << " requeue-heft success " << requeue_ok
            << " vs none " << static_ok << "; " << repair
            << " reactive-ftsa survivor latency " << reactive_latency
            << " vs none " << static_latency << "\n";
  int status = 0;
  if (!(requeue_ok > static_ok)) {
    std::cerr << "FAIL: requeue-heft did not rescue more runs than the static "
                 "schedule under permanent crashes\n";
    status = 2;
  }
  if (!(reactive_latency < static_latency)) {
    std::cerr << "FAIL: reactive-ftsa survivors did not finish sooner than the "
                 "static replay under the repair law\n";
    status = 2;
  }
  return status;
}
