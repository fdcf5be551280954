// The per-coordinate reference the grouped sweep is checked against: every
// selected coordinate evaluated alone, re-derived here from the plan's
// config and labels instead of through SweepPlan::evaluate_group.  Each
// coordinate gets its own root stream, workload, schedules and draw, runs
// with no SimulationCache and, for a live policy, a fresh policy instance,
// so nothing is shared across cells or across a cell's algorithms: any
// reuse in run_plan that changes a sample, the group cache's key included,
// shows up as a difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "ftsched/core/reschedule.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace ftsched::reference {

/// Selected instance k of `plan`, evaluated alone.
inline SeriesSample evaluate_alone(const SweepPlan& plan, std::size_t k) {
  const FigureConfig& config = plan.config();
  const InstanceCoord c = plan.coord(k);
  // The instance stream is keyed by (workload, granularity, repetition)
  // off the root seed; every cell of that key starts from it.
  const std::uint64_t base_key =
      (c.workload * config.granularities.size() + c.gran) *
          config.graphs_per_point +
      c.rep;
  Rng rng = Rng(config.seed).derive(base_key);
  const WorkloadFamilyPtr family =
      config.workloads.empty()
          ? make_paper_family(config.workload)
          : make_workload_family(plan.workloads()[c.workload]);
  const auto workload = family->generate(
      rng, SweepPoint{config.granularities[c.gran], config.proc_count});
  InstanceOptions options;
  options.epsilon = config.epsilon;
  options.extra_crash_counts = config.extra_crash_counts;
  options.seed = rng();
  const InstanceSchedules schedules =
      build_instance_schedules(*workload, options);
  const CellDraw draw = draw_instance_cell(
      schedules, rng, CrashTimeLaw::parse(plan.scenarios()[c.scenario]),
      FailureModel::parse(plan.failures()[c.failure]));
  const ReschedulePolicyPtr policy =
      make_reschedule_policy(plan.policies()[c.policy]);
  if (policy->is_noop()) return simulate_drawn_cell(schedules, draw, nullptr);
  return simulate_online_cell(schedules, draw, *policy);
}

/// Feeds `sink` every selected instance of `plan`, each evaluated alone, in
/// the order run_plan delivers them.
inline void run_per_coordinate(const SweepPlan& plan, SweepSink& sink) {
  for (std::size_t k = 0; k < plan.size(); ++k) {
    sink.on_sample(plan.coord(k), evaluate_alone(plan, k));
  }
}

/// The per-coordinate run aggregated in memory.
inline SweepResult per_coordinate_result(const SweepPlan& plan) {
  OnlineStatsSink sink(plan);
  run_per_coordinate(plan, sink);
  return sink.take();
}

/// The per-coordinate run as the shard byte stream (every sample, hex-float
/// exact, in delivery order).
inline std::string per_coordinate_shard_bytes(const SweepPlan& plan) {
  std::stringstream out;
  ShardWriterSink sink(out, plan);
  run_per_coordinate(plan, sink);
  return out.str();
}

}  // namespace ftsched::reference

namespace ftsched {

/// run_plan's output as the shard byte stream, to compare with
/// reference::per_coordinate_shard_bytes.
inline std::string shard_bytes(const SweepPlan& plan,
                               const RunPlanOptions& options = {}) {
  std::stringstream out;
  ShardWriterSink sink(out, plan);
  run_plan(plan, sink, options);
  return out.str();
}

}  // namespace ftsched
