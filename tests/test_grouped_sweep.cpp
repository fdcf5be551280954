// Schedule-once/simulate-many sweep evaluation: run_plan and
// SweepPlan::evaluate_group must be bit-identical to the per-coordinate
// reference (each coordinate evaluated alone) for every thread count, window
// size and shard partition — including shards whose base-key groups are
// partial (a strided shard keeps only some (scenario, failure) cells of a
// group) — and their schedule and simulation counts are pinned exactly.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/error.hpp"
#include "per_coordinate.hpp"

namespace ftsched {
namespace {

using reference::evaluate_alone;
using reference::per_coordinate_result;
using reference::per_coordinate_shard_bytes;

/// 2 workloads x 2 scenarios x 2 failure models x 2 granularities x 2 reps
/// = 32 instances in 8 base-key groups of 4 cells each.
FigureConfig grid_config() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.0};
  config.graphs_per_point = 2;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 17;
  config.threads = 2;
  config.workloads = {"paper", "chain:size=10"};
  config.scenarios = {"t0", "frac:f=0.5"};
  config.failure_models = {"eps", "bernoulli:p=0.3"};
  return config;
}

TEST(GroupedSweep, GroupSelectionPartitionsTheSelection) {
  const SweepPlan plan(grid_config());
  const auto groups = plan.group_selection();
  EXPECT_EQ(groups.size(), 2u * 2u * 2u);  // W x P x R base keys
  std::set<std::size_t> seen;
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    const InstanceCoord first = plan.coord(group.front());
    for (std::size_t i = 0; i < group.size(); ++i) {
      EXPECT_TRUE(seen.insert(group[i]).second) << "index in two groups";
      const InstanceCoord c = plan.coord(group[i]);
      // Same base key: only the (scenario, failure) cell may differ.
      EXPECT_EQ(c.workload, first.workload);
      EXPECT_EQ(c.gran, first.gran);
      EXPECT_EQ(c.rep, first.rep);
      if (i > 0) {
        EXPECT_GT(group[i], group[i - 1]);  // members ascend
      }
    }
    // Full plan: every group carries all S x F cells.
    EXPECT_EQ(group.size(), 2u * 2u);
  }
  EXPECT_EQ(seen.size(), plan.size());
}

TEST(GroupedSweep, EvaluateGroupMatchesEvaluatePerCoordinate) {
  const SweepPlan plan(grid_config());
  for (const auto& group : plan.group_selection()) {
    const std::vector<SeriesSample> samples = plan.evaluate_group(group);
    ASSERT_EQ(samples.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      EXPECT_EQ(samples[i], evaluate_alone(plan, group[i]))
          << "group sample " << i << " diverged from the member alone";
    }
  }
}

TEST(GroupedSweep, EvaluateGroupRejectsMixedBaseKeys) {
  const SweepPlan plan(grid_config());
  const auto groups = plan.group_selection();
  ASSERT_GE(groups.size(), 2u);
  // First member of two different groups: distinct base keys.
  const std::vector<std::size_t> mixed{groups[0].front(), groups[1].front()};
  EXPECT_THROW((void)plan.evaluate_group(mixed), InvalidArgument);
  EXPECT_THROW((void)plan.evaluate_group({}), InvalidArgument);
}

TEST(GroupedSweep, BitIdenticalAcrossThreadCountsAndWindows) {
  FigureConfig config = grid_config();
  config.threads = 1;
  const SweepResult reference = per_coordinate_result(SweepPlan(config));

  for (const std::size_t threads : {1u, 2u, 3u}) {
    for (const std::size_t window : {0u, 1u, 2u}) {
      config.threads = threads;
      const SweepPlan plan(config);
      OnlineStatsSink sink(plan);
      run_plan(plan, sink, RunPlanOptions{.window = window});
      EXPECT_TRUE(sweep_results_identical(reference, sink.take()))
          << "threads=" << threads << " window=" << window;
    }
  }
}

TEST(GroupedSweep, ShardsWithPartialGroupsStayByteIdentical) {
  const SweepPlan plan(grid_config());
  // A 3-way stride of a 4-cell-per-group grid leaves every shard with
  // partial groups; make sure that premise actually holds, then compare
  // the grouped shard stream byte for byte against the reference.
  for (std::size_t i = 0; i < 3; ++i) {
    const SweepPlan shard = plan.shard(i, 3);
    bool any_partial = false;
    for (const auto& group : shard.group_selection()) {
      if (group.size() < 4) any_partial = true;
    }
    EXPECT_TRUE(any_partial) << "shard " << i << " has only full groups";
    EXPECT_EQ(shard_bytes(shard), per_coordinate_shard_bytes(shard))
        << "shard " << i;
  }
  // Nested uneven shard (a shard of a shard), small window.
  const SweepPlan nested = plan.shard(1, 2).shard(0, 3);
  EXPECT_EQ(shard_bytes(nested, RunPlanOptions{.window = 1}),
            per_coordinate_shard_bytes(nested));
}

TEST(GroupedSweep, MergedShardsFromGroupedRunsMatchUngroupedFullRun) {
  const FigureConfig config = grid_config();
  const SweepPlan plan(config);
  const SweepResult reference = per_coordinate_result(plan);

  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    std::stringstream file(shard_bytes(plan.shard(i, 3)));
    shards.push_back(read_shard(file, "g" + std::to_string(i)));
  }
  EXPECT_TRUE(sweep_results_identical(reference, merge_shards(shards)));
}

TEST(GroupedSweep, SingleCellGridGroupsAreSingletons) {
  // Without scenario/failure dimensions every group is one coordinate and
  // run_plan degenerates to the per-coordinate reference.
  FigureConfig config = grid_config();
  config.workloads.clear();
  config.scenarios.clear();
  config.failure_models.clear();
  const SweepPlan plan(config);
  for (const auto& group : plan.group_selection()) {
    EXPECT_EQ(group.size(), 1u);
  }
  EXPECT_EQ(shard_bytes(plan), per_coordinate_shard_bytes(plan));
}

/// The figure-1 grid at 4 graphs per point crossed with three crash
/// scenarios and three failure models: 10 granularities x 4 reps = 40
/// (workload, granularity, rep) groups of 9 cells, 360 instances.
FigureConfig nine_cell_figure1_config() {
  FigureConfig config = figure_config(1);
  config.graphs_per_point = 4;
  config.seed = 42;
  config.scenarios = {"t0", "frac:f=0.5", "uniform:hi=1"};
  config.failure_models = {"eps", "fixed:k=1", "bernoulli:p=0.3"};
  return config;
}

TEST(GroupedSweep, NineCellFigure1GridCountsAreExact) {
  // Deterministic stand-ins for wall time: 40 groups run the five
  // scheduler passes 200 times where 360 lone coordinates run them 1 800
  // times, and the groups' caches answer 1 064 of the 2 160 crash
  // simulations the cells ask for.
  const SweepPlan plan(nine_cell_figure1_config());
  ASSERT_EQ(plan.size(), 360u);
  const auto groups = plan.group_selection();
  EXPECT_EQ(groups.size(), 40u);
  for (const auto& group : groups) EXPECT_EQ(group.size(), 9u);

  RunPlanStats stats;
  const std::string grouped =
      shard_bytes(plan, RunPlanOptions{.stats = &stats});
  EXPECT_EQ(stats.simulations_run, 1096u);
  EXPECT_EQ(stats.dedupe_hits, 1064u);
  EXPECT_EQ(grouped, per_coordinate_shard_bytes(plan));
}

TEST(GroupedSweep, SmallNineCellGridMatchesPerCoordinateBytes) {
  // The CLI grid `sweep --figure 1 --graphs 4 --procs 10 --granularities
  // 0.4;1.0;1.6 --scenario t0;frac:f=0.5;uniform:hi=1 --failures
  // eps;fixed:k=1;bernoulli:p=0.3 --seed 5`, built from its flags.
  const SweepPlan plan(sweep_config_from_args(
      {"--figure", "1", "--graphs", "4", "--procs", "10", "--granularities",
       "0.4;1.0;1.6", "--scenario", "t0;frac:f=0.5;uniform:hi=1",
       "--failures", "eps;fixed:k=1;bernoulli:p=0.3", "--seed", "5"}));
  ASSERT_EQ(plan.size(), 3u * 4u * 9u);
  EXPECT_EQ(shard_bytes(plan), per_coordinate_shard_bytes(plan));
}

}  // namespace
}  // namespace ftsched
