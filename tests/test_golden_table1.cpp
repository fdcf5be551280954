// Golden-file regression test for the Table-1 reproduction.
//
// run_table1 measures wall times, which are not reproducible — but the
// schedules behind them are: this test regenerates the Table-1 workloads
// through the exact same code path (make_table1_workload, one root split
// per row) and asserts the schedule bounds and message counts of the three
// contenders against tests/golden/table1_bounds.txt, committed to the
// repo.  A scheduler or workload-generator refactor that silently shifts
// the paper's numbers now fails loudly instead of drifting.
//
// Regenerate after an *intentional* change with:
//   FTSCHED_UPDATE_GOLDEN=1 ./test_golden_table1
// and commit the diff (review it — that diff IS the behavior change).
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/figures.hpp"
#include "golden_test.hpp"

#ifndef FTSCHED_SOURCE_DIR
#error "FTSCHED_SOURCE_DIR must point at the repository root"
#endif

namespace ftsched {
namespace {

const char* kGoldenPath = FTSCHED_SOURCE_DIR "/tests/golden/table1_bounds.txt";

/// Golden rows use small task counts so the test stays fast; the RNG chain
/// is identical to run_table1's for these rows.
Table1Config golden_config() {
  Table1Config config;  // deliberately NOT table1_config(): no env overrides
  config.task_counts = {100, 300};
  config.proc_count = 50;
  config.epsilon = 5;
  config.seed = 42;
  return config;
}

std::string render_golden(const Table1Config& config) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "# Table-1 schedule bounds (m=" << config.proc_count
     << ", epsilon=" << config.epsilon << ", seed=" << config.seed << ")\n"
     << "# tasks algo lower_bound upper_bound interproc_messages\n";
  const std::string eps = std::to_string(config.epsilon);
  Rng root(config.seed);
  for (std::size_t v : config.task_counts) {
    Rng rng = root.split();
    const auto workload = make_table1_workload(rng, v, config);
    // The three Table-1 contenders, then FTSA under the two tie-heavy
    // free-task priorities: prio=random gives every task priority 0, so
    // only the random tie key orders α, and equal bottom levels are common.
    for (const std::string algo :
         {"ftsa", "mc-ftsa", "ftbar", "ftsa:prio=bl", "ftsa:prio=random"}) {
      const char* sep = algo.find(':') == std::string::npos ? ":" : ",";
      const auto schedule =
          make_scheduler(algo + sep + "eps=" + eps)->run(workload->costs());
      os << v << ' ' << algo << ' ' << schedule.lower_bound() << ' '
         << schedule.upper_bound() << ' '
         << schedule.interproc_message_count() << '\n';
    }
  }
  return os.str();
}

TEST(GoldenTable1, BoundsMatchCommittedGolden) {
  goldentest::expect_matches_golden(kGoldenPath,
                                    render_golden(golden_config()),
                                    "Table-1 schedule bounds");
}

}  // namespace
}  // namespace ftsched
