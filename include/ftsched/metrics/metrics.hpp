// Evaluation metrics (paper §6).
#pragma once

#include <cstddef>

#include "ftsched/core/schedule.hpp"

namespace ftsched {

/// Fault-tolerance overhead in percent (paper §6):
///   Overhead = (latency − fault_free_latency) / fault_free_latency · 100.
/// `latency` may be a bound (ℓb) or a simulated crash latency (c); the
/// reference FTSA* is the latency of the no-replication schedule.
[[nodiscard]] double overhead_percent(double latency,
                                      double fault_free_latency);

/// Latency expressed in units of the workload's mean edge communication
/// cost (falling back to the mean task execution cost for edgeless
/// graphs).  The paper plots "normalized latency" without defining the
/// normalization; a granularity-invariant unit is required to reproduce
/// the figures' rising-with-granularity shape, and communication costs are
/// exactly what the granularity sweep holds fixed.
[[nodiscard]] double normalized_latency(double latency,
                                        const CostModel& costs);

/// Communication statistics of a replicated schedule.
struct CommStats {
  std::size_t channels = 0;            ///< all realized channels
  std::size_t interproc_messages = 0;  ///< channels crossing processors
  /// Paper's bounds for reference: e(ε+1)² for FTSA, e(ε+1) for MC-FTSA.
  std::size_t ftsa_bound = 0;
  std::size_t mc_bound = 0;
};

[[nodiscard]] CommStats comm_stats(const ReplicatedSchedule& schedule);

/// Per-processor busy-time utilization over the failure-free makespan.
struct UtilizationStats {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] UtilizationStats utilization(const ReplicatedSchedule& schedule);

}  // namespace ftsched
