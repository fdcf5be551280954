#include "ftsched/experiments/config.hpp"

#include "ftsched/util/cli.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

FigureConfig figure_config(int figure) {
  FigureConfig config;
  config.figure = figure;
  switch (figure) {
    case 1:
      config.epsilon = 1;
      break;
    case 2:
      config.epsilon = 2;
      config.extra_crash_counts = {1};
      break;
    case 3:
      config.epsilon = 5;
      config.extra_crash_counts = {2};
      break;
    case 4:
      config.epsilon = 2;
      config.proc_count = 5;
      config.extra_crash_counts = {1};
      break;
    default:
      throw InvalidArgument("figure must be 1..4");
  }
  for (int i = 1; i <= 10; ++i) {
    config.granularities.push_back(0.2 * i);
  }
  config.graphs_per_point = static_cast<std::size_t>(
      env_int("FTSCHED_GRAPHS", static_cast<std::int64_t>(60)));
  config.seed =
      static_cast<std::uint64_t>(env_int("FTSCHED_SEED", 42));
  config.threads = static_cast<std::size_t>(env_int("FTSCHED_THREADS", 0));
  config.workload.proc_count = config.proc_count;
  return config;
}

Table1Config table1_config() {
  Table1Config config;
  config.seed = static_cast<std::uint64_t>(env_int("FTSCHED_SEED", 42));
  config.repetitions = static_cast<std::size_t>(env_int("FTSCHED_REPS", 3));
  return config;
}

}  // namespace ftsched
