#include "ftsched/sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

#include "ftsched/util/jsonl.hpp"

namespace ftsched {

namespace {

struct Bar {
  double start;
  double finish;
  std::string label;
};

std::string render_gantt(const std::vector<std::vector<Bar>>& rows,
                         double horizon, std::size_t width) {
  std::ostringstream os;
  if (horizon <= 0.0) horizon = 1.0;
  const double scale = static_cast<double>(width) / horizon;
  for (std::size_t p = 0; p < rows.size(); ++p) {
    std::string line(width, '.');
    for (const Bar& b : rows[p]) {
      auto from = static_cast<std::size_t>(b.start * scale);
      auto to = static_cast<std::size_t>(b.finish * scale);
      from = std::min(from, width - 1);
      to = std::min(std::max(to, from + 1), width);
      for (std::size_t i = from; i < to; ++i) line[i] = '#';
      // Write as much of the label as fits inside the bar.
      for (std::size_t i = 0; i < b.label.size() && from + i < to; ++i) {
        line[from + i] = b.label[i];
      }
    }
    os << 'P' << std::setw(2) << std::left << p << ' ' << line << '\n';
  }
  os << "     0" << std::string(width > 12 ? width - 12 : 0, ' ')
     << std::fixed << std::setprecision(1) << horizon << '\n';
  return os.str();
}

}  // namespace

std::string schedule_gantt(const ReplicatedSchedule& schedule,
                           const GanttOptions& options) {
  const std::size_t m = schedule.platform().proc_count();
  std::vector<std::vector<Bar>> rows(m);
  double horizon = 0.0;
  for (TaskId t : schedule.graph().tasks()) {
    for (const Replica& r : schedule.replicas(t)) {
      rows[r.proc.index()].push_back(
          Bar{r.start, r.finish, schedule.graph().label(t)});
      horizon = std::max(horizon, r.finish);
    }
  }
  return render_gantt(rows, horizon, options.width);
}

std::string execution_gantt(const ReplicatedSchedule& schedule,
                            const SimulationResult& result,
                            const GanttOptions& options) {
  const std::size_t m = schedule.platform().proc_count();
  std::vector<std::vector<Bar>> rows(m);
  double horizon = 0.0;
  std::ostringstream legend;
  for (TaskId t : schedule.graph().tasks()) {
    const auto& reps = schedule.replicas(t);
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const ReplicaOutcome& o = result.outcomes[t.index()][k];
      switch (o.status) {
        case ReplicaStatus::kCompleted:
          rows[reps[k].proc.index()].push_back(
              Bar{o.start, o.finish, schedule.graph().label(t)});
          horizon = std::max(horizon, o.finish);
          break;
        case ReplicaStatus::kDead:
          legend << "  dead:      " << schedule.graph().label(t) << " on P"
                 << reps[k].proc.value() << '\n';
          break;
        case ReplicaStatus::kCancelled:
          legend << "  cancelled: " << schedule.graph().label(t) << " on P"
                 << reps[k].proc.value() << '\n';
          break;
        case ReplicaStatus::kNotStarted:
          legend << "  unstarted: " << schedule.graph().label(t) << " on P"
                 << reps[k].proc.value() << '\n';
          break;
      }
    }
  }
  std::string chart = render_gantt(rows, horizon, options.width);
  const std::string extra = legend.str();
  if (!extra.empty()) chart += "lost replicas:\n" + extra;
  return chart;
}

std::string schedule_listing(const ReplicatedSchedule& schedule) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "schedule (" << schedule.algorithm()
     << ", epsilon=" << schedule.epsilon()
     << ", M*=" << schedule.lower_bound() << ", M=" << schedule.upper_bound()
     << ")\n";
  for (TaskId t : schedule.graph().tasks()) {
    os << "  " << schedule.graph().label(t) << ':';
    for (const Replica& r : schedule.replicas(t)) {
      os << "  P" << r.proc.value() << " [" << r.start << ", " << r.finish
         << ')';
    }
    os << '\n';
  }
  return os.str();
}

namespace {

const char* status_name(ReplicaStatus status) {
  switch (status) {
    case ReplicaStatus::kCompleted:
      return "completed";
    case ReplicaStatus::kDead:
      return "dead";
    case ReplicaStatus::kCancelled:
      return "cancelled";
    case ReplicaStatus::kNotStarted:
      return "not_started";
  }
  return "?";
}

}  // namespace

std::string schedule_to_json(const ReplicatedSchedule& schedule,
                             const SimulationResult* execution) {
  std::ostringstream os;
  os << std::setprecision(15);
  os << "{\n";
  os << "  \"algorithm\": \"" << json_escape(schedule.algorithm()) << "\",\n";
  os << "  \"epsilon\": " << schedule.epsilon() << ",\n";
  os << "  \"lower_bound\": " << schedule.lower_bound() << ",\n";
  os << "  \"upper_bound\": " << schedule.upper_bound() << ",\n";
  os << "  \"interproc_messages\": " << schedule.interproc_message_count()
     << ",\n";
  os << "  \"tasks\": [\n";
  const auto tasks = schedule.graph().tasks();
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const TaskId t = tasks[ti];
    os << "    {\"id\": " << t.value() << ", \"label\": \""
       << json_escape(schedule.graph().label(t)) << "\", \"replicas\": [";
    const auto& reps = schedule.replicas(t);
    for (std::size_t k = 0; k < reps.size(); ++k) {
      if (k) os << ", ";
      os << "{\"proc\": " << reps[k].proc.value()
         << ", \"start\": " << reps[k].start
         << ", \"finish\": " << reps[k].finish;
      if (execution != nullptr) {
        const ReplicaOutcome& o = execution->outcomes[t.index()][k];
        os << ", \"status\": \"" << status_name(o.status) << '"';
        if (o.status == ReplicaStatus::kCompleted) {
          os << ", \"actual_start\": " << o.start
             << ", \"actual_finish\": " << o.finish;
        }
      }
      os << '}';
    }
    os << "]}" << (ti + 1 < tasks.size() ? "," : "") << '\n';
  }
  os << "  ]";
  if (execution != nullptr) {
    os << ",\n  \"execution\": {\"success\": "
       << (execution->success ? "true" : "false");
    if (execution->success) os << ", \"latency\": " << execution->latency;
    os << ", \"completed\": " << execution->completed_replicas
       << ", \"dead\": " << execution->dead_replicas
       << ", \"cancelled\": " << execution->cancelled_replicas << "}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace ftsched
