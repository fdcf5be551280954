// Domain scenario: a multi-machine sweep, simulated in-process.
//
// A coordinator builds a SweepPlan, splits it into N shards and ships one
// shard spec ("i/N" plus the FigureConfig) to each worker; every worker
// runs only its slice and streams one line per coordinate to a shard
// file; the coordinator merges the files back in coordinate order.  This example plays all the roles in one process — each "worker"
// writes to its own buffer — and then *proves* the protocol's guarantee by
// comparing the merged result against the unsharded run: they are
// bit-identical, not merely close.
//
//   ./sharded_sweep [--figure 1] [--graphs 6] [--shards 3] [--procs 8]
//                   [--seed 42] [--failures "eps;bernoulli:p=0.1"]
#include <iostream>
#include <sstream>
#include <vector>

#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/cli.hpp"

using namespace ftsched;

int main(int argc, char** argv) {
  CliParser cli("sharded_sweep: plan/execute/merge pipeline demo — shard a "
                "sweep, merge the shard files, verify bit-identity");
  cli.add_option("figure", "1", "paper figure whose config seeds the grid");
  cli.add_option("graphs", "6", "instances per (cell, granularity) point");
  cli.add_option("shards", "3", "worker count to split the grid across");
  cli.add_option("procs", "8", "processors in the generated platforms");
  cli.add_option("seed", "42", "root seed");
  cli.add_option("failures", "eps;bernoulli:p=0.1",
                 "';'-separated FailureModel specs — the bit-identity "
                 "contract covers the failure dimension too");
  if (!cli.parse(argc, argv)) return 0;

  FigureConfig config = figure_config(static_cast<int>(cli.get_int("figure")));
  config.graphs_per_point = static_cast<std::size_t>(cli.get_int("graphs"));
  config.proc_count = static_cast<std::size_t>(cli.get_int("procs"));
  config.workload.proc_count = config.proc_count;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  {
    std::istringstream specs(cli.get("failures"));
    std::string item;
    while (std::getline(specs, item, ';')) {
      if (!item.empty()) config.failure_models.push_back(item);
    }
  }
  const auto shard_count = static_cast<std::size_t>(cli.get_int("shards"));

  // Coordinator: enumerate the grid.
  const SweepPlan plan(config);
  std::cout << "plan: " << plan.grid_size() << " instances ("
            << plan.workloads().size() << "x" << plan.scenarios().size()
            << "x" << plan.failures().size() << " cells, "
            << plan.granularities().size() << " granularities, "
            << plan.repetitions() << " reps)\n";
  std::cout << "fingerprint: " << plan.fingerprint() << "\n\n";

  // Workers: each runs its shard and streams records to "its" file.
  std::vector<std::stringstream> files(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    const SweepPlan shard = plan.shard(i, shard_count);
    ShardWriterSink sink(files[i], shard);
    run_plan(shard, sink);
    std::cout << "worker " << i << ": shard " << shard.shard_label() << ", "
              << sink.samples_written() << " instances -> "
              << files[i].str().size() << " bytes of shard file\n";
  }

  // Coordinator again: parse + merge the shard files.
  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards.push_back(read_shard(files[i], "worker" + std::to_string(i)));
  }
  const SweepResult merged = merge_shards(shards);

  // The proof: one unsharded run, compared field by field, double by
  // double (sweep_results_identical is exact, not approximate).
  const SweepResult reference = run_sweep(config);
  const bool identical = sweep_results_identical(reference, merged);
  std::cout << "\nmerged vs unsharded run: "
            << (identical ? "bit-identical" : "DIVERGED") << "\n\n";
  if (!identical) return 2;

  std::cout << "merged CSV:\n" << sweep_to_csv(merged);
  return 0;
}
