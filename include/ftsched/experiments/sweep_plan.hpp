// Stage 1 and 2 of the plan/execute/merge sweep pipeline.
//
// `SweepPlan` makes the sweep grid explicit: built from a FigureConfig, it
// enumerates every instance of the (workload family × crash scenario ×
// failure model × rescheduling policy × granularity × repetition) cross
// product as an addressable InstanceCoord
// with a stable id, and `plan.shard(i, n)` deterministically selects the
// i-th of n disjoint subsets — the unit of work a coordinator hands to one
// machine.  `run_plan(plan, sink)` executes the selected instances on a
// ParallelExecutor and streams every per-instance sample into a SweepSink,
// decoupling execution from aggregation:
//
//   * OnlineStatsSink aggregates in memory and reproduces exactly the
//     SweepResult the monolithic run_sweep used to build (run_sweep is now
//     a thin wrapper over this pair);
//   * ShardWriterSink (experiments/sweep_io.hpp) serializes the samples
//     losslessly to a shard file, and merge_shards combines shard
//     files back into a SweepResult that is bit-identical to the unsharded
//     run for any shard partition of the grid.
//
// Every instance runs on an RNG stream keyed off the root seed by its
// coordinates via Rng::derive (scenario cells share streams for paired
// comparison), so any subset of the grid is computable in isolation and
// results never depend on thread count or shard layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftsched/experiments/config.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace ftsched {

/// Address of one sweep instance inside the full grid.
///
/// `id` is the stable linear id: with W workload families, S scenarios,
/// F failure models, L rescheduling policies, P granularity points and R
/// repetitions,
///   id = ((((workload * S + scenario) * F + failure) * L + policy) * P +
///         gran) * R + rep,
/// i.e. exactly the serial aggregation order of the unsharded sweep (and,
/// with the default single policy cell L = 1 — resp. single failure cell
/// F = 1 — exactly the pre-policy-dimension resp. pre-failure-dimension
/// id).  Ids are invariant under sharding — a shard keeps the full-grid
/// ids of the instances it selects — which is what lets merge_shards
/// restore the canonical coordinate order.
struct InstanceCoord {
  std::size_t workload = 0;  ///< workload-family index
  std::size_t scenario = 0;  ///< crash-scenario index
  std::size_t failure = 0;   ///< failure-model index
  std::size_t policy = 0;    ///< rescheduling-policy index
  std::size_t gran = 0;      ///< granularity index
  std::size_t rep = 0;       ///< repetition
  std::uint64_t id = 0;      ///< stable linear id within the full grid
};

/// Streaming consumer of per-instance samples.  run_plan invokes
/// on_sample once per selected instance, serially, in increasing-id order
/// (instances are *evaluated* in parallel; delivery is ordered), so sinks
/// need no locking and deterministic aggregation comes for free.
class SweepSink {
 public:
  virtual ~SweepSink() = default;

  virtual void on_sample(const InstanceCoord& coord,
                         const SeriesSample& sample) = 0;
};

/// An addressable sweep grid plus a selected subset of it.
///
/// Construction resolves the (workload × scenario) cells once — specs
/// parsed, trace files loaded — and validates cell labels; shard() only
/// narrows the selection, so sharding is cheap and repeatable.  Copyable;
/// cells are shared between copies (families are immutable).
class SweepPlan {
 public:
  /// Builds the full-grid plan for `config` (every instance selected).
  explicit SweepPlan(const FigureConfig& config);

  [[nodiscard]] const FigureConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<double>& granularities() const noexcept {
    return config_.granularities;
  }
  /// Workload-family labels, sweep order (always at least {"paper"}).
  [[nodiscard]] const std::vector<std::string>& workloads() const noexcept {
    return workload_labels_;
  }
  /// Crash-scenario labels, sweep order (always at least {"t0"}).
  [[nodiscard]] const std::vector<std::string>& scenarios() const noexcept {
    return scenario_labels_;
  }
  /// Failure-model labels, sweep order (always at least {"eps"}).
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failure_labels_;
  }
  /// Rescheduling-policy labels, sweep order (always at least {"none"}).
  [[nodiscard]] const std::vector<std::string>& policies() const noexcept {
    return policy_labels_;
  }
  [[nodiscard]] std::size_t repetitions() const noexcept {
    return config_.graphs_per_point;
  }

  /// Instances in the full grid (W × S × F × L × P × R).
  [[nodiscard]] std::uint64_t grid_size() const noexcept;
  /// Instances selected by this plan (== grid_size() before sharding).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool complete() const noexcept { return count_ == grid_size(); }
  /// "full", or the "i/n" shard chain ("0/3" / "0/3,1/2" when nested).
  [[nodiscard]] const std::string& shard_label() const noexcept {
    return shard_label_;
  }

  /// Coordinates of the k-th *selected* instance (k < size()).
  [[nodiscard]] InstanceCoord coord(std::size_t k) const;
  /// Decomposes a full-grid id (id < grid_size()).
  [[nodiscard]] InstanceCoord coord_of_id(std::uint64_t id) const;

  /// The i-th of `count` disjoint strided subsets of this plan's selection
  /// (instance k goes to shard k mod count).  Shards of the full plan
  /// partition the grid; sharding a shard partitions further.  Throws
  /// InvalidArgument unless index < count.
  [[nodiscard]] SweepPlan shard(std::size_t index, std::size_t count) const;

  /// The series name samples of `coord` aggregate under: undecorated for a
  /// single-cell grid, "name[workload|scenario]" otherwise, with a third
  /// "|failure" part when the failure dimension is swept and a fourth
  /// "|policy" part when the policy dimension is swept (the same rule as
  /// sweep_series_name).
  [[nodiscard]] std::string series_label(const InstanceCoord& coord,
                                         const std::string& series) const;

  /// Canonical one-line identity of the *grid* (seed, epsilon, processor
  /// count, repetitions, crash counts, exact granularities, workload /
  /// scenario / failure-model / policy cell labels) — independent of
  /// sharding and thread count.  merge_shards refuses to combine shards
  /// whose fingerprints differ.
  [[nodiscard]] std::string fingerprint() const;

  /// Selected-instance indices (arguments for coord()) grouped by base key
  /// (workload, granularity, repetition): every index of one group shares
  /// the derived RNG stream, hence the workload instance and all schedules
  /// — the groups differ only in their (scenario, failure, policy) cell.
  /// Groups
  /// are ordered by their first selected index and members ascend, so a
  /// shard's partial groups are exactly the selected subset of the full
  /// plan's groups.
  [[nodiscard]] std::vector<std::vector<std::size_t>> group_selection() const;

  /// Schedule-once/simulate-many evaluation of one group_selection() group:
  /// generates the workload and runs the schedule phase once, then
  /// simulates each member's (scenario, failure, policy) cell off a
  /// snapshot of the shared RNG stream — `none` cells through the static
  /// replay (shared SimulationCache), reactive cells through the online
  /// simulator with one policy instance per label.  Returns one sample per
  /// member, in order — bit-identical to evaluating each member alone
  /// (evaluate_group({k})), because the schedule phase draws nothing from
  /// the instance stream.  A sample depends only on (config, coord), never
  /// on the group or shard it was evaluated in.  Throws if the indices do
  /// not all share one base key.
  ///
  /// All members share one SimulationCache, so cells whose (victims,
  /// instants) draws coincide run the event simulation once (cross-cell
  /// draw dedupe — the shared schedules make cached Summaries valid across
  /// the whole group).  When `stats` is non-null the cache counters are
  /// accumulated into it.
  [[nodiscard]] std::vector<SeriesSample> evaluate_group(
      const std::vector<std::size_t>& members,
      SimulationCache::Stats* stats = nullptr) const;

 private:
  struct Cell {
    std::shared_ptr<const WorkloadFamily> family;
    CrashTimeLaw law;
    FailureModel model;
  };

  /// The (workload, granularity, repetition) key shared by all cells of one
  /// instance: both the Rng::derive key and the schedule-reuse group key.
  [[nodiscard]] std::uint64_t base_key(const InstanceCoord& coord) const noexcept;
  [[nodiscard]] const Cell& cell(const InstanceCoord& coord) const;

  FigureConfig config_;
  /// workload-major: (workload * S + scenario) * F + failure.  The policy
  /// dimension is deliberately *not* a cell factor: a policy never changes
  /// the workload, law or model — only how the drawn cell is simulated —
  /// so policy cells share Cell state (and, via the shared base key,
  /// instance streams: paired static-vs-reactive draws).
  std::vector<Cell> cells_;
  std::vector<std::string> workload_labels_;
  std::vector<std::string> scenario_labels_;
  std::vector<std::string> failure_labels_;
  std::vector<std::string> policy_labels_;
  std::vector<bool> policy_noop_;  ///< per policy label: is_noop()
  Rng root_;
  // The selection: full-grid ids first_ + k * stride_ for k < count_.
  // Every plan starts as (0, 1, grid_size()) and shard() maps a strided
  // selection to a strided selection, so no id list is ever built.
  std::uint64_t first_ = 0;
  std::uint64_t stride_ = 1;
  std::size_t count_ = 0;
  std::string shard_label_ = "full";
};

/// Execution counters of one run_plan call, summed over its groups'
/// SimulationCaches.
struct RunPlanStats {
  std::uint64_t simulations_run = 0;  ///< event simulations actually run
  std::uint64_t dedupe_hits = 0;      ///< simulations served from group caches
};

/// Execution options of run_plan (the grid identity — fingerprint, ids,
/// sample values — never depends on them).
struct RunPlanOptions {
  /// Bounded reordering window, in jobs: a worker may start job j only
  /// once fewer than `window` earlier jobs are still incomplete, and every
  /// completed order-prefix is delivered to the sink while workers run —
  /// so a large shard no longer materialises all its samples before the
  /// first delivery.  0 = auto (max(16, 4 × worker count)); any value >= 1
  /// is deadlock-free (the job at the window's base always proceeds).
  std::size_t window = 0;
  /// Optional dedupe counters, accumulated across all groups under the
  /// delivery lock.  Must outlive the run_plan call.
  RunPlanStats* stats = nullptr;
  /// Worker-thread override for the in-process executor; unset = use
  /// plan.config().threads (where 0 = hardware concurrency).  Execution
  /// backends (experiments/backend.hpp) route their `threads` spec option
  /// through this, so one plan can be re-run under different worker counts
  /// without rebuilding its FigureConfig.
  std::optional<std::size_t> threads;
};

/// Evaluates the plan's selected instances, one evaluate_group job per
/// group_selection() group, on `plan.config().threads` workers
/// (0 = hardware_concurrency) and streams the samples into `sink`
/// serially in increasing-id order.  Bit-identical for every thread count,
/// shard partition and RunPlanOptions choice; samples are delivered as
/// their order-prefix completes (so a sink may have consumed a prefix if
/// run_plan later throws).
void run_plan(const SweepPlan& plan, SweepSink& sink,
              const RunPlanOptions& options = {});

/// In-memory aggregation sink: accumulates every sample into per-series
/// OnlineStats, reproducing the monolithic run_sweep's SweepResult —
/// bit-identically when run over the full grid in coordinate order.
class OnlineStatsSink final : public SweepSink {
 public:
  /// `plan` must outlive the sink (labels and series decoration).
  explicit OnlineStatsSink(const SweepPlan& plan);
  /// The sink keeps a pointer to the plan: a temporary would dangle.
  explicit OnlineStatsSink(const SweepPlan&& plan) = delete;

  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override;

  /// Moves the aggregated result out (the sink is spent afterwards).
  [[nodiscard]] SweepResult take();

 private:
  const SweepPlan* plan_;
  SweepResult result_;
  /// Per-cell memo of undecorated series name → aggregated column, filled
  /// on first sight: steady-state aggregation builds no decorated-label
  /// strings and does no lookup in the decorated series map.  std::map
  /// nodes are stable, so the cached pointers stay valid until take()
  /// moves the result out (which drops the cache).
  std::vector<std::map<std::string, std::vector<OnlineStats>*>> label_cache_;
};

}  // namespace ftsched
