#include "ftsched/sim/validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ftsched/platform/failure.hpp"

namespace ftsched {

ValidationReport validate_fault_tolerance(const ReplicatedSchedule& schedule,
                                          const ValidatorOptions& options) {
  ValidationReport report;
  const double upper = schedule.upper_bound();
  const std::size_t m = schedule.platform().proc_count();
  ScheduleSimulator simulator(schedule, options.sim);
  for (std::size_t k = 0; k <= schedule.epsilon(); ++k) {
    for (const FailureScenario& scenario : all_crash_subsets(m, k)) {
      const ScheduleSimulator::Summary result =
          simulator.run_summary(scenario);
      ++report.scenarios_checked;
      auto describe = [&scenario](const char* what) {
        std::ostringstream os;
        os << what << " with crashes {";
        for (std::size_t i = 0; i < scenario.crashes().size(); ++i) {
          if (i) os << ", ";
          os << 'P' << scenario.crashes()[i].proc.value();
        }
        os << '}';
        return os.str();
      };
      if (!result.success) {
        report.valid = false;
        report.failure_description = describe("execution failed");
        return report;
      }
      report.worst_latency = std::max(report.worst_latency, result.latency);
      if (options.check_upper_bound &&
          result.latency > upper * (1.0 + options.tolerance)) {
        report.valid = false;
        std::ostringstream os;
        os << describe("latency bound violated") << ": achieved "
           << result.latency << " > M = " << upper;
        report.failure_description = os.str();
        return report;
      }
    }
  }
  return report;
}

}  // namespace ftsched
