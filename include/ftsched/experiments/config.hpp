// Experiment configurations matching the paper's §6 setup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {

struct FigureConfig {
  int figure = 1;
  std::size_t epsilon = 1;
  std::size_t proc_count = 20;
  /// Graphs averaged per granularity point (paper: 60).
  std::size_t graphs_per_point = 60;
  std::uint64_t seed = 42;
  /// Granularity sweep (paper: 0.2 .. 2.0, step 0.2).
  std::vector<double> granularities;
  /// Additional FTSA crash counts plotted besides 0 and ε
  /// (Figure 2 adds 1; Figures 3 and 4 add 2 resp. 1).
  std::vector<std::size_t> extra_crash_counts;
  /// Worker threads for run_sweep: 0 = hardware_concurrency, 1 = serial.
  /// Results are bit-identical for every value (per-instance RNG streams).
  std::size_t threads = 0;
  PaperWorkloadParams workload;
  /// Workload-family dimension: WorkloadRegistry specs ("paper",
  /// "fft:size=16", "trace:file=g.txt", ...).  Empty = the paper §6 family
  /// configured by `workload` above (the figure reproductions).
  std::vector<std::string> workloads;
  /// Crash-scenario dimension: CrashTimeLaw specs ("t0", "frac:f=0.5",
  /// "uniform:hi=1", "exp:mean=0.3").  Empty = {"t0"}, the paper's worst
  /// case.  With more than one (workload, scenario) cell, run_sweep
  /// decorates series names with a "[workload|scenario]" suffix.
  std::vector<std::string> scenarios;
  /// Failure-model dimension: FailureModel specs ("eps", "fixed:k=3",
  /// "bernoulli:p=0.1", "domain:size=4").  Empty = {"eps"}, the paper's ε
  /// uniform victims — byte-identical legacy RNG streams and series.  With
  /// more than one failure cell the series suffix grows a third part:
  /// "[workload|scenario|failure]".
  std::vector<std::string> failure_models;
  /// Online-rescheduling policy dimension: PolicyRegistry specs ("none",
  /// "requeue-heft", "reactive-ftsa").  Empty = {"none"}, the static
  /// schedule replayed unchanged — byte-identical legacy streams, series
  /// and shards.  A non-none policy reruns each drawn failure cell with the
  /// policy live (ScheduleSimulator::run_summary(failures, policy)),
  /// letting it remap pending replicas on every crash/repair event.  With more
  /// than one policy cell the series suffix grows a fourth part:
  /// "[workload|scenario|failure|policy]".
  std::vector<std::string> policies;
};

/// Configuration for paper Figure 1 (ε=1), 2 (ε=2), 3 (ε=5) or
/// 4 (m=5, ε=2).  Honors the environment overrides FTSCHED_GRAPHS and
/// FTSCHED_SEED so benches stay fast in CI and exact for reproduction.
[[nodiscard]] FigureConfig figure_config(int figure);

struct Table1Config {
  std::vector<std::size_t> task_counts{100, 500, 1000, 2000, 3000, 5000};
  std::size_t proc_count = 50;  ///< paper: 50 processors
  std::size_t epsilon = 5;      ///< paper: 5 supported failures
  std::size_t repetitions = 3;  ///< timing repetitions per size
  std::uint64_t seed = 42;
};

/// Honors FTSCHED_SEED / FTSCHED_REPS.
[[nodiscard]] Table1Config table1_config();

}  // namespace ftsched
