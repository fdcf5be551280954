// The per-coordinate reference the grouped sweep is checked against: every
// selected coordinate evaluated alone, as a one-member group.  Nothing is
// shared across cells — no schedules, no policy instance, no simulation-
// cache entry — so any cross-cell reuse in run_plan that changes a sample
// shows up as a difference.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>

#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"

namespace ftsched::reference {

/// Selected instance k of `plan`, evaluated alone.
inline SeriesSample evaluate_alone(const SweepPlan& plan, std::size_t k) {
  return plan.evaluate_group({k})[0];
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
