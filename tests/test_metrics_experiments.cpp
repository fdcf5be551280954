// Tests for the metrics layer and the experiment harness (configs, runner,
// small smoke sweeps of the paper figures).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 6,
                                         std::size_t tasks = 30) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, OverheadPercent) {
  EXPECT_DOUBLE_EQ(overhead_percent(150.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(overhead_percent(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(overhead_percent(80.0, 100.0), -20.0);
  EXPECT_THROW((void)overhead_percent(1.0, 0.0), InvalidArgument);
}

TEST(Metrics, NormalizedLatency) {
  const auto w = small_workload(1);
  // Workloads with edges normalize by the mean edge communication cost
  // (granularity-invariant; see metrics.hpp).
  const double unit = w->costs().mean_avg_comm();
  ASSERT_GT(unit, 0.0);
  EXPECT_DOUBLE_EQ(normalized_latency(unit * 7.0, w->costs()), 7.0);
}

TEST(Metrics, NormalizedLatencyEdgelessFallsBackToExec) {
  TaskGraph g;
  (void)g.add_task();
  const Platform p(2, 1.0);
  const CostModel costs(g, p, {{4.0, 4.0}});
  EXPECT_DOUBLE_EQ(normalized_latency(8.0, costs), 2.0);
}

TEST(Metrics, NormalizedLatencyInvariantUnderGranularity) {
  // Rescaling execution times (what the granularity sweep does) must not
  // change the normalization unit.
  const auto w = small_workload(12);
  const double before = w->costs().mean_avg_comm();
  w->costs().scale_exec(3.0);
  EXPECT_DOUBLE_EQ(w->costs().mean_avg_comm(), before);
}

TEST(Metrics, CommStatsBounds) {
  const auto w = small_workload(2);
  const std::size_t e = w->graph().edge_count();
  const auto ftsa = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  McFtsaOptions mo;
  mo.epsilon = 2;
  mo.enforce_fault_tolerance = false;  // paper mode: exact linear count
  const auto mc = mc_ftsa_schedule(w->costs(), mo);
  const CommStats fs = comm_stats(ftsa);
  EXPECT_EQ(fs.ftsa_bound, e * 9);
  EXPECT_EQ(fs.mc_bound, e * 3);
  EXPECT_LE(fs.channels, fs.ftsa_bound);
  EXPECT_LE(fs.interproc_messages, fs.channels);
  const CommStats ms = comm_stats(mc);
  EXPECT_EQ(ms.channels, ms.mc_bound);
}

TEST(Metrics, Utilization) {
  const auto w = small_workload(3);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const UtilizationStats u = utilization(s);
  EXPECT_GT(u.mean, 0.0);
  EXPECT_LE(u.max, 1.0 + 1e-9);
  EXPECT_GE(u.min, 0.0);
  EXPECT_LE(u.min, u.mean);
  EXPECT_LE(u.mean, u.max);
}

// ---------------------------------------------------------------- configs

TEST(Config, FigureParameters) {
  EXPECT_EQ(figure_config(1).epsilon, 1u);
  EXPECT_EQ(figure_config(2).epsilon, 2u);
  EXPECT_EQ(figure_config(3).epsilon, 5u);
  EXPECT_EQ(figure_config(4).epsilon, 2u);
  EXPECT_EQ(figure_config(1).proc_count, 20u);
  EXPECT_EQ(figure_config(4).proc_count, 5u);
  EXPECT_EQ(figure_config(1).granularities.size(), 10u);
  EXPECT_DOUBLE_EQ(figure_config(1).granularities.front(), 0.2);
  EXPECT_NEAR(figure_config(1).granularities.back(), 2.0, 1e-12);
  EXPECT_THROW((void)figure_config(0), InvalidArgument);
  EXPECT_THROW((void)figure_config(5), InvalidArgument);
}

TEST(Config, EnvironmentOverrides) {
  ::setenv("FTSCHED_GRAPHS", "7", 1);
  ::setenv("FTSCHED_SEED", "99", 1);
  const FigureConfig c = figure_config(1);
  EXPECT_EQ(c.graphs_per_point, 7u);
  EXPECT_EQ(c.seed, 99u);
  ::unsetenv("FTSCHED_GRAPHS");
  ::unsetenv("FTSCHED_SEED");
}

TEST(Config, Table1Defaults) {
  const Table1Config c = table1_config();
  EXPECT_EQ(c.proc_count, 50u);
  EXPECT_EQ(c.epsilon, 5u);
  EXPECT_EQ(c.task_counts.size(), 6u);
}

// ---------------------------------------------------------------- runner

TEST(Runner, InstanceEmitsAllSeries) {
  const auto w = small_workload(5, /*procs=*/8, /*tasks=*/40);
  Rng rng(1);
  InstanceOptions options;
  options.epsilon = 2;
  options.extra_crash_counts = {1};
  const InstanceSchedules schedules = build_instance_schedules(*w, options);
  const CellDraw draw =
      draw_instance_cell(schedules, rng, CrashTimeLaw{}, FailureModel{});
  const SeriesSample sample = simulate_drawn_cell(schedules, draw, nullptr);
  for (const char* name :
       {"FTSA-LowerBound", "FTSA-UpperBound", "MC-FTSA-LowerBound",
        "MC-FTSA-UpperBound", "FTBAR-LowerBound", "FTBAR-UpperBound",
        "FaultFree-FTSA", "FaultFree-FTBAR", "FTSA-0Crash", "FTSA-1Crash",
        "FTSA-2Crash", "MC-FTSA-2Crash", "FTBAR-2Crash", "OH-FTSA-2Crash",
        "Msg-FTSA", "Msg-MC-FTSA"}) {
    ASSERT_TRUE(sample.count(name)) << "missing series " << name;
  }
  // Sanity relations.
  EXPECT_LE(sample.at("FTSA-LowerBound"),
            sample.at("FTSA-UpperBound") + 1e-9);
  EXPECT_LE(sample.at("MC-FTSA-LowerBound"),
            sample.at("MC-FTSA-UpperBound") + 1e-9);
  EXPECT_GT(sample.at("FaultFree-FTSA"), 0.0);
  EXPECT_LT(sample.at("Msg-MC-FTSA"), sample.at("Msg-FTSA"));
  // Crash latencies stay within the guaranteed bound.
  EXPECT_LE(sample.at("FTSA-2Crash"), sample.at("FTSA-UpperBound") + 1e-9);
}

TEST(Runner, SweepAggregatesSixtyMeansCorrectly) {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.5};
  config.graphs_per_point = 3;
  config.proc_count = 6;
  config.workload.proc_count = 6;
  config.seed = 7;
  const SweepResult sweep = run_sweep(config);
  ASSERT_EQ(sweep.granularities.size(), 2u);
  const auto it = sweep.series.find("FTSA-LowerBound");
  ASSERT_NE(it, sweep.series.end());
  ASSERT_EQ(it->second.size(), 2u);
  EXPECT_EQ(it->second[0].count(), 3u);
  EXPECT_EQ(it->second[1].count(), 3u);
  EXPECT_GT(it->second[0].mean(), 0.0);
  // Coarser granularity => relatively cheaper comm => latency normalized by
  // task size grows with granularity in the paper's figures. We only check
  // positivity here; the trend is asserted in the integration test.
  EXPECT_GT(it->second[1].mean(), 0.0);
}

TEST(Runner, DeterministicForSeed) {
  FigureConfig config = figure_config(1);
  config.granularities = {1.0};
  config.graphs_per_point = 2;
  config.proc_count = 5;
  config.seed = 3;
  const SweepResult a = run_sweep(config);
  const SweepResult b = run_sweep(config);
  EXPECT_DOUBLE_EQ(a.series.at("FTSA-LowerBound")[0].mean(),
                   b.series.at("FTSA-LowerBound")[0].mean());
  EXPECT_DOUBLE_EQ(a.series.at("FaultFree-FTBAR")[0].mean(),
                   b.series.at("FaultFree-FTBAR")[0].mean());
  EXPECT_DOUBLE_EQ(a.series.at("FTSA-1Crash")[0].mean(),
                   b.series.at("FTSA-1Crash")[0].mean());
}

// ---------------------------------------------------------------- figures

TEST(Figures, PrintFigureProducesAllBlocks) {
  FigureConfig config = figure_config(2);
  config.granularities = {1.0};
  config.graphs_per_point = 2;
  config.proc_count = 6;
  config.workload.proc_count = 6;
  const SweepResult sweep = run_sweep(config);
  std::ostringstream os;
  print_figure(os, config, sweep);
  const std::string out = os.str();
  EXPECT_NE(out.find("Figure 2"), std::string::npos);
  EXPECT_NE(out.find("(a) normalized latency"), std::string::npos);
  EXPECT_NE(out.find("(b) normalized latency"), std::string::npos);
  EXPECT_NE(out.find("(c) average overhead"), std::string::npos);
  EXPECT_NE(out.find("FTSA-2Crash"), std::string::npos);
  EXPECT_NE(out.find("csv:"), std::string::npos);
}

TEST(Figures, Figure4SkipsBoundsBlock) {
  FigureConfig config = figure_config(4);
  config.granularities = {1.0};
  config.graphs_per_point = 2;
  const SweepResult sweep = run_sweep(config);
  std::ostringstream os;
  print_figure(os, config, sweep);
  EXPECT_EQ(os.str().find("(a) normalized latency: schedule bounds"),
            std::string::npos);
  EXPECT_NE(os.str().find("FTSA-1Crash"), std::string::npos);
}

TEST(Figures, Table1SmallRun) {
  Table1Config config;
  config.task_counts = {30, 60};
  config.proc_count = 8;
  config.epsilon = 2;
  config.repetitions = 1;
  std::ostringstream os;
  run_table1(os, config);
  const std::string out = os.str();
  EXPECT_NE(out.find("Table 1"), std::string::npos);
  EXPECT_NE(out.find("30"), std::string::npos);
  EXPECT_NE(out.find("FTBAR"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
