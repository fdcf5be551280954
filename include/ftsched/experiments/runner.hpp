// Per-instance evaluation and granularity-sweep aggregation.
//
// For one workload instance the runner computes every series the paper's
// figures plot — schedule bounds, fault-free latencies, simulated crash
// latencies and overheads — as a name → value map; the sweep averages the
// maps over `graphs_per_point` random instances per granularity.
//
// Algorithms are resolved through the SchedulerRegistry: each evaluated
// algorithm is a registry spec ("ftsa", "mc-ftsa:selector=matching", ...)
// plus the series it emits, so registering a new scheduler makes it
// sweepable without touching the runner.  The sweep runs on a
// ParallelExecutor with one RNG stream per (granularity, instance) pair,
// giving bit-identical results for every thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/config.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace ftsched {

/// Series name → value (normalized latency or overhead %), one instance.
using SeriesSample = std::map<std::string, double>;

/// One algorithm an instance is scheduled and simulated with, plus the
/// series it emits.
///
/// `spec` is a SchedulerRegistry spec; the runner injects the instance's
/// epsilon (as `eps`) and tie-break seed (as `seed`) unless the spec pins
/// them explicitly and the algorithm supports the key.
struct InstanceAlgo {
  /// Series name prefix, e.g. "FTSA" → FTSA-LowerBound, FTSA-<k>Crash, ...
  std::string key;
  /// Registry spec, e.g. "ftsa" or "mc-ftsa:selector=matching".
  std::string spec;
  /// Crash counts simulated (deduplicated and sorted before use).
  std::vector<std::size_t> crash_counts;
  /// Emit the OH-<key>-LowerBound overhead twin.
  bool overhead_of_lower_bound = false;
  /// Non-empty: emit this series with the fraction of tasks repaired by
  /// MC-FTSA's end-to-end enforcement.
  std::string repair_series;
};

struct InstanceOptions {
  std::size_t epsilon = 1;
  /// FTSA crash counts to simulate besides 0 and epsilon.
  std::vector<std::size_t> extra_crash_counts;
  SimulationOptions sim;
  std::uint64_t seed = 0;  ///< scheduler tie-break seed
  /// Algorithms to evaluate; empty = the paper's trio (FTSA, MC-FTSA,
  /// FTBAR) with the series layout described below.
  std::vector<InstanceAlgo> algos;
};

/// The default algorithm list build_instance_schedules uses when
/// `options.algos` is empty (exposed so callers can extend rather than
/// replace it).
[[nodiscard]] std::vector<InstanceAlgo> default_instance_algos(
    const InstanceOptions& options);

/// The schedule phase of one instance: the fault-free references, every
/// algorithm's schedule and all schedule-derived series, bundled for reuse.
///
/// A ReplicatedSchedule depends only on (costs, epsilon, seed) — never on
/// the crash-time law or failure model — so one InstanceSchedules can be
/// simulated under many (scenario, failure) cells.  This is the
/// schedule-once/simulate-many seam the grouped sweep engine
/// (experiments/sweep_plan.hpp) exploits: scheduling dominates the
/// per-instance cost, so reusing it across S×F cells removes the hot path's
/// redundant work.  `workload` must outlive the bundle (the schedules point
/// into its cost model).
struct InstanceSchedules {
  struct Algo {
    InstanceAlgo algo;
    std::unique_ptr<ReplicatedSchedule> schedule;
    /// Build-once/simulate-many engine over *schedule: its static structure
    /// is reused by every crash simulation of every cell.  Reset per run —
    /// one InstanceSchedules must not be simulated from two threads
    /// concurrently.
    std::unique_ptr<ScheduleSimulator> simulator;
    /// algo.crash_counts, deduplicated and sorted.
    std::vector<std::size_t> crash_counts;
    /// Series names for crash_counts[i]: {"<A>-<k>Crash", "OH-<A>-<k>Crash"}.
    /// Built once with the schedules so the simulate phase never assembles
    /// strings per cell.
    std::vector<std::pair<std::string, std::string>> crash_series_names;
    /// Graceful-degradation names: "<A>-Success", "<A>-DrawnCrash",
    /// "OH-<A>-DrawnCrash" (used only under non-default failure models).
    std::string success_series;
    std::string drawn_series;
    std::string oh_drawn_series;
    /// Online-rescheduling name "<A>-Moves" (policy-driven cells only):
    /// replica moves the policy applied in the run.
    std::string moves_series;
  };

  const Workload* workload = nullptr;
  std::size_t epsilon = 1;
  double ftsa_star = 0.0;  ///< FTSA* reference anchoring overhead series
  /// Schedule-derived series, identical for every cell: FaultFree-*,
  /// <A>-LowerBound/-UpperBound, OH-<A>-LowerBound, Msg-<A>, repair rate.
  SeriesSample schedule_series;
  std::vector<Algo> algos;
};

/// Runs the schedule phase: fault-free references plus one schedule per
/// algorithm, shared by every (scenario, failure, policy) cell.  Draws
/// nothing from any RNG: all scheduler randomness is keyed off
/// options.seed.
[[nodiscard]] InstanceSchedules build_instance_schedules(
    const Workload& workload, const InstanceOptions& options);

/// The random half of one (scenario, failure) cell: the drawn victim set
/// and per-victim unit crash instants, separated from the deterministic
/// simulation so identical draws can be recognised across cells.
struct CellDraw {
  std::vector<std::size_t> victims;   ///< distinct processor indices
  std::vector<double> unit_times;     ///< unit crash instants, one per victim
  bool default_model = true;          ///< legacy ε-uniform model?
  /// Unit repair delays, one per victim — non-empty only under a failure
  /// model with a repair law (FailureModel::has_repair()).  victims[i]
  /// restarts at (unit_times[i] + unit_repair_delays[i]) × anchor on every
  /// simulate path, static replay and online policies alike.
  std::vector<double> unit_repair_delays;

  /// The outages of the first `count` victims: each crashes at its unit
  /// time scaled by `anchor` (a schedule's failure-free lower bound; unit
  /// time 0 is the paper's t=0 worst case) and, under a repair law,
  /// restarts its unit repair delay later on the same scale.  A delay that
  /// rounds to no time at all at this anchor is recorded as never
  /// repaired rather than as a zero-length outage.
  [[nodiscard]] FailureScenario scenario(double anchor,
                                         std::size_t count) const;
};

/// Draws one cell's randomness from `rng` for a platform of `proc_count`
/// processors tolerating `epsilon` crashes: victims first, then unit
/// times.  Burst and repair laws draw *after* that stream: a burst law
/// re-anchors the unit times on a common onset plus per-victim offsets, and
/// a repair law appends the unit repair delays — so every pre-existing
/// model's stream stays bit-identical.
[[nodiscard]] CellDraw draw_cell(Rng& rng, std::size_t proc_count,
                                 std::size_t epsilon,
                                 const CrashTimeLaw& crash_law,
                                 const FailureModel& failure_model);

/// draw_cell on the platform and ε of `schedules`.
[[nodiscard]] CellDraw draw_instance_cell(const InstanceSchedules& schedules,
                                          Rng& rng,
                                          const CrashTimeLaw& crash_law,
                                          const FailureModel& failure_model);

/// Memo of crash-simulation results shared by the cells of one group.
///
/// A simulation is keyed by everything that determines its outcome on a
/// fixed InstanceSchedules: the algorithm index and the *content* of the
/// (victims, unit-times, unit-repair-delays) prefix actually simulated —
/// bit patterns, not model labels — so any two cells whose draws coincide
/// (the shared k = 0 scenario, fixed:k=ε vs eps, coinciding Bernoulli
/// draws, ...) run the event simulation once and fan the Summary out,
/// while a repair law never shares an entry with the crash-only law that
/// draws the same victims and instants.  Single-threaded: one
/// cache serves one group on one worker, mirroring the InstanceSchedules
/// threading contract.
class SimulationCache {
 public:
  struct Stats {
    std::uint64_t simulations = 0;  ///< event simulations actually run
    std::uint64_t hits = 0;         ///< simulations answered from the memo
  };

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend SeriesSample simulate_drawn_cell(const InstanceSchedules& schedules,
                                          const CellDraw& draw,
                                          SimulationCache* cache);

  struct Key {
    std::size_t algo = 0;
    std::vector<std::size_t> victims;
    /// Unit-time bit patterns, then those of any repair delays.
    std::vector<std::uint64_t> times;
    [[nodiscard]] friend bool operator<(const Key& a, const Key& b) {
      if (a.algo != b.algo) return a.algo < b.algo;
      if (a.victims != b.victims) return a.victims < b.victims;
      return a.times < b.times;
    }
  };

  std::map<Key, ScheduleSimulator::Summary> memo_;
  Stats stats_;
};

/// Runs the simulate phase of one cell on a fixed draw: the static replay
/// of each algorithm's schedule (ScheduleSimulator::run_summary with no
/// policy) under the drawn scenario — crashes, plus the repairs a repair
/// law drew, so repaired processors resume their parked work.  With a
/// cache, repeated draws are served from the memo.  The result is
/// bit-identical with and without a cache.
///
/// Emitted series, merged with the schedule-derived ones: per algorithm
/// <A>, <A>-<k>Crash (k in crash_counts) and its OH- overhead twin
/// (relative to FaultFree-FTSA, in percent).  The victims of the draw are
/// shared across algorithms and truncated for smaller crash counts, so
/// every curve faces the same failures.  A non-default failure model may
/// draw more than ε victims; it adds a "DrawnCrashes" count and, per
/// algorithm, "<A>-Success" (cell mean = the graceful-degradation success
/// fraction; nothing is asserted past ε) and, on success, the
/// "<A>-DrawnCrash" latency and its overhead.  Fixed-count series are kept
/// for the counts the draw covers.
[[nodiscard]] SeriesSample simulate_drawn_cell(const InstanceSchedules& schedules,
                                               const CellDraw& draw,
                                               SimulationCache* cache);

/// Runs the *online* simulate phase of one cell on a fixed draw: per
/// algorithm, builds the same failure scenario as simulate_drawn_cell
/// (repairs from draw.unit_repair_delays, or never) and executes
/// ScheduleSimulator::run_summary with `policy` reacting to
/// every crash/repair event.  Emits "DrawnCrashes" plus, per algorithm,
/// "<A>-Success", "<A>-DrawnCrash"/"OH-<A>-DrawnCrash" on success, and
/// "<A>-Moves" — the same graceful-degradation layout as a non-default
/// static model (the policy part of the series *label* is what tells the
/// cells apart), never the legacy fixed-count series.  The policy is
/// re-prepared per algorithm; one call owns it for the duration.
[[nodiscard]] SeriesSample simulate_online_cell(
    const InstanceSchedules& schedules, const CellDraw& draw,
    ReschedulePolicy& policy);

/// Aggregated sweep: per granularity, per series, an OnlineStats over the
/// instances.
///
/// With more than one (workload, scenario) cell, every series name carries
/// a "[workload|scenario]" suffix; `workloads`/`scenarios` record the cell
/// labels in sweep order.
struct SweepResult {
  std::vector<double> granularities;
  /// Workload-family labels swept (always at least {"paper"}).
  std::vector<std::string> workloads;
  /// Crash-scenario labels swept (always at least {"t0"}).
  std::vector<std::string> scenarios;
  /// Failure-model labels swept (always at least {"eps"}).
  std::vector<std::string> failures;
  /// Rescheduling-policy labels swept (always at least {"none"}).
  std::vector<std::string> policies;
  /// result[series][granularity index]
  std::map<std::string, std::vector<OnlineStats>> series;
};

/// The one renderer of the cell-decoration rule: undecorated for a
/// single-cell sweep, "series[workload|scenario]" otherwise, with a third
/// "|failure" part only when the failure dimension itself is swept
/// (multi_failure) and a fourth "|policy" part only when the policy
/// dimension is swept (multi_policy) — so grids without --failures /
/// --policy keep their exact legacy names.  Shared by sweep_series_name
/// SweepPlan::series_label and merge_shards, so aggregated and merged
/// results can never disagree on series names.
[[nodiscard]] std::string decorate_series_name(const std::string& series,
                                               const std::string& workload,
                                               const std::string& scenario,
                                               bool multi_cell,
                                               const std::string& failure = "",
                                               bool multi_failure = false,
                                               const std::string& policy = "",
                                               bool multi_policy = false);

/// The name a sweep series gets inside cell (workload, scenario, failure,
/// policy) of `sweep` (see decorate_series_name).  The shorter forms are
/// for sweeps whose policy (resp. failure) dimension is unswept — the
/// missing label defaults to the sweep's single cell label.
[[nodiscard]] std::string sweep_series_name(const SweepResult& sweep,
                                            const std::string& series,
                                            const std::string& workload,
                                            const std::string& scenario);
[[nodiscard]] std::string sweep_series_name(const SweepResult& sweep,
                                            const std::string& series,
                                            const std::string& workload,
                                            const std::string& scenario,
                                            const std::string& failure);
[[nodiscard]] std::string sweep_series_name(const SweepResult& sweep,
                                            const std::string& series,
                                            const std::string& workload,
                                            const std::string& scenario,
                                            const std::string& failure,
                                            const std::string& policy);

/// True iff the two results are bit-identical (same series, same per-point
/// statistics down to the last double) — the determinism contract of the
/// parallel sweep.
[[nodiscard]] bool sweep_results_identical(const SweepResult& a,
                                           const SweepResult& b);

/// Runs the full sweep described by `config` on `config.threads` workers
/// (0 = hardware_concurrency), ranging over the full cross product
/// (workload family × crash scenario × failure model × granularity ×
/// graphs_per_point).
///
/// Thin wrapper over the plan/execute/merge pipeline
/// (experiments/sweep_plan.hpp): `SweepPlan` enumerates the grid,
/// `run_plan` evaluates it in parallel (one Rng::derive stream per
/// instance) and streams samples in coordinate order into an
/// OnlineStatsSink.  The result is bit-identical for every thread count,
/// and to any sharded run of the same plan combined with `merge_shards`
/// (experiments/sweep_io.hpp).
[[nodiscard]] SweepResult run_sweep(const FigureConfig& config);

}  // namespace ftsched
