#include "ftsched/core/cpop.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

ReplicatedSchedule cpop_schedule(const CostModel& costs) {
  const TaskGraph& g = costs.graph();
  const Platform& platform = costs.platform();
  const std::size_t m = platform.proc_count();

  const auto ru = upward_ranks(costs);
  const auto rd = static_top_levels(costs);
  std::vector<double> priority(g.task_count());
  double cp_length = 0.0;
  for (TaskId t : g.tasks()) {
    priority[t.index()] = ru[t.index()] + rd[t.index()];
    cp_length = std::max(cp_length, priority[t.index()]);
  }

  // Critical path: walk from the critical entry task through critical
  // successors (priority equal to the path length, up to fp noise).
  const double tol = 1e-9 * (1.0 + cp_length);
  std::vector<char> on_cp(g.task_count(), 0);
  TaskId walk;
  for (TaskId t : g.entry_tasks()) {
    if (priority[t.index()] >= cp_length - tol) {
      walk = t;
      break;
    }
  }
  FTSCHED_REQUIRE(walk.valid(), "no critical entry task found");
  while (walk.valid()) {
    on_cp[walk.index()] = 1;
    TaskId next;
    for (std::size_t e : g.out_edges(walk)) {
      const TaskId s = g.edge(e).dst;
      if (priority[s.index()] >= cp_length - tol) {
        next = s;
        break;
      }
    }
    walk = next;
  }

  // The critical-path processor minimizes the summed execution time of
  // the critical tasks.
  ProcId cp_proc{0u};
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < m; ++p) {
    double sum = 0.0;
    for (TaskId t : g.tasks()) {
      if (on_cp[t.index()]) sum += costs.exec(t, ProcId{p});
    }
    if (sum < best_sum) {
      best_sum = sum;
      cp_proc = ProcId{p};
    }
  }

  // Priority-driven list scheduling over ready tasks.
  ReplicatedSchedule schedule(costs, /*epsilon=*/0, "CPOP");
  std::vector<std::vector<Slot>> timeline(m);
  std::vector<double> arrival(m);
  std::vector<double> scratch(m);
  std::vector<std::size_t> pending(g.task_count());
  for (TaskId t : g.tasks()) pending[t.index()] = g.in_degree(t);

  using Entry = std::pair<double, std::uint32_t>;  // (priority, task id)
  std::priority_queue<Entry> ready;
  for (TaskId t : g.entry_tasks()) {
    ready.emplace(priority[t.index()], t.value());
  }
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const TaskId t{ready.top().second};
    ready.pop();
    fill_arrival_row(schedule, t, arrival, scratch);
    auto eft_on = [&](ProcId pj) {
      const double duration = costs.exec(t, pj);
      const double start =
          earliest_gap(timeline[pj.index()], arrival[pj.index()], duration);
      return Replica{pj, start, start + duration, start, start + duration};
    };
    Replica best;
    if (on_cp[t.index()]) {
      best = eft_on(cp_proc);
    } else {
      double best_finish = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < m; ++p) {
        const Replica r = eft_on(ProcId{p});
        if (r.finish < best_finish) {
          best_finish = r.finish;
          best = r;
        }
      }
    }
    insert_slot(timeline[best.proc.index()], Slot{best.start, best.finish});
    schedule.place_task(t, {best});
    ++scheduled;
    for (std::size_t e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      if (--pending[s.index()] == 0) {
        ready.emplace(priority[s.index()], s.value());
      }
    }
  }
  FTSCHED_REQUIRE(scheduled == g.task_count(), "CPOP missed tasks (cycle?)");
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    schedule.set_channels(e, {Channel{0, 0}});
  }
  return schedule;
}

}  // namespace ftsched
