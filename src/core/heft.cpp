#include "ftsched/core/heft.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

ReplicatedSchedule heft_schedule(const CostModel& costs,
                                 const HeftOptions& options) {
  const TaskGraph& g = costs.graph();
  const Platform& platform = costs.platform();
  const std::size_t m = platform.proc_count();

  const auto rank = upward_ranks(costs);
  std::vector<TaskId> order = g.tasks();
  std::stable_sort(order.begin(), order.end(), [&rank](TaskId a, TaskId b) {
    return rank[a.index()] > rank[b.index()];
  });
  // Upward ranks decrease along edges by construction, so this order is
  // topological; assert it in debug builds.
#ifndef NDEBUG
  {
    std::vector<char> seen(g.task_count(), 0);
    for (TaskId t : order) {
      for (std::size_t e : g.in_edges(t)) {
        FTSCHED_ASSERT(seen[g.edge(e).src.index()],
                       "HEFT order is not topological");
      }
      seen[t.index()] = 1;
    }
  }
#endif

  ReplicatedSchedule schedule(costs, /*epsilon=*/0, "HEFT");
  std::vector<std::vector<Slot>> timeline(m);
  std::vector<double> arrival(m);
  std::vector<double> scratch(m);

  for (TaskId t : order) {
    fill_arrival_row(schedule, t, arrival, scratch);
    double best_finish = std::numeric_limits<double>::infinity();
    Replica best;
    for (std::size_t j = 0; j < m; ++j) {
      const ProcId pj{j};
      const double duration = costs.exec(t, pj);
      // Without insertion a task goes after the processor's last slot.
      const std::vector<Slot>& slots = timeline[j];
      const double start = options.insertion || slots.empty()
                               ? earliest_gap(slots, arrival[j], duration)
                               : std::max(arrival[j], slots.back().finish);
      if (start + duration < best_finish) {
        best_finish = start + duration;
        best = Replica{pj, start, start + duration, start, start + duration};
      }
    }
    insert_slot(timeline[best.proc.index()], Slot{best.start, best.finish});
    schedule.place_task(t, {best});
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    schedule.set_channels(e, {Channel{0, 0}});
  }
  return schedule;
}

}  // namespace ftsched
