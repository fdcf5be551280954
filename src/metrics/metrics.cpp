#include "ftsched/metrics/metrics.hpp"

#include <algorithm>
#include <limits>

#include "ftsched/util/error.hpp"

namespace ftsched {

double overhead_percent(double latency, double fault_free_latency) {
  FTSCHED_REQUIRE(fault_free_latency > 0.0,
                  "fault-free latency must be positive");
  return (latency - fault_free_latency) / fault_free_latency * 100.0;
}

double normalized_latency(double latency, const CostModel& costs) {
  const double unit =
      costs.mean_avg_comm() > 0.0 ? costs.mean_avg_comm() : costs.mean_avg_exec();
  FTSCHED_REQUIRE(unit > 0.0, "cost model has nothing to normalize by");
  return latency / unit;
}

CommStats comm_stats(const ReplicatedSchedule& schedule) {
  CommStats stats;
  stats.channels = schedule.channel_count();
  stats.interproc_messages = schedule.interproc_message_count();
  const std::size_t e = schedule.graph().edge_count();
  const std::size_t n = schedule.replica_count();
  stats.ftsa_bound = e * n * n;
  stats.mc_bound = e * n;
  return stats;
}

UtilizationStats utilization(const ReplicatedSchedule& schedule) {
  const std::size_t m = schedule.platform().proc_count();
  const double makespan = schedule.lower_bound();
  UtilizationStats stats;
  if (makespan <= 0.0 || m == 0) return stats;
  stats.min = std::numeric_limits<double>::infinity();
  std::vector<double> busy(m, 0.0);
  for (TaskId t : schedule.graph().tasks()) {
    for (const Replica& r : schedule.replicas(t)) {
      busy[r.proc.index()] += r.finish - r.start;
    }
  }
  double total = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    const double u = busy[p] / makespan;
    total += u;
    stats.min = std::min(stats.min, u);
    stats.max = std::max(stats.max, u);
  }
  stats.mean = total / static_cast<double>(m);
  return stats;
}

}  // namespace ftsched
