#include "ftsched/experiments/figures.hpp"

#include <ostream>
#include <string>
#include <vector>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/ascii_chart.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/util/timer.hpp"

namespace ftsched {

namespace {

/// Prints one block: rows = granularities, columns = the chosen series,
/// followed by the CSV rendition and an ASCII chart of the same data.
void print_block(std::ostream& os, const char* title,
                 const SweepResult& sweep,
                 const std::vector<std::string>& series_names) {
  os << title << '\n';
  std::vector<std::string> header{"granularity"};
  for (const auto& name : series_names) header.push_back(name);
  TextTable table(std::move(header));
  static constexpr char kMarkers[] = "*o+x#@%&";
  std::vector<ChartSeries> chart_series;
  for (std::size_t si = 0; si < series_names.size(); ++si) {
    const auto it = sweep.series.find(series_names[si]);
    FTSCHED_REQUIRE(it != sweep.series.end(),
                    "missing series: " + series_names[si]);
    ChartSeries cs;
    cs.name = series_names[si];
    cs.marker = kMarkers[si % (sizeof(kMarkers) - 1)];
    for (const OnlineStats& stats : it->second) cs.y.push_back(stats.mean());
    chart_series.push_back(std::move(cs));
  }
  for (std::size_t gi = 0; gi < sweep.granularities.size(); ++gi) {
    std::vector<double> row;
    row.reserve(series_names.size());
    for (const ChartSeries& cs : chart_series) row.push_back(cs.y[gi]);
    table.add_numeric_row(format_double(sweep.granularities[gi], 1), row);
  }
  table.print(os);
  os << "csv:\n" << table.csv() << '\n';
  if (sweep.granularities.size() > 1) {
    os << render_chart(sweep.granularities, chart_series) << '\n';
  }
}

}  // namespace

void print_figure(std::ostream& os, const FigureConfig& config,
                  const SweepResult& sweep) {
  const std::string eps = std::to_string(config.epsilon);
  os << "=== Figure " << config.figure << " (epsilon=" << eps
     << ", m=" << config.proc_count << ", graphs/point="
     << config.graphs_per_point << ", seed=" << config.seed << ") ===\n\n";

  if (config.figure != 4) {
    print_block(os,
                "--- (a) normalized latency: schedule bounds vs granularity ---",
                sweep,
                {"FTSA-LowerBound", "FTSA-UpperBound", "FTBAR-LowerBound",
                 "FTBAR-UpperBound", "MC-FTSA-LowerBound",
                 "MC-FTSA-UpperBound", "FaultFree-FTSA", "FaultFree-FTBAR"});
  }

  std::vector<std::string> crash_series;
  crash_series.push_back("FTSA-" + eps + "Crash");
  if (config.figure != 4) {
    crash_series.push_back("MC-FTSA-" + eps + "Crash");
    crash_series.push_back("FTBAR-" + eps + "Crash");
  }
  for (std::size_t k : config.extra_crash_counts) {
    crash_series.push_back("FTSA-" + std::to_string(k) + "Crash");
  }
  crash_series.push_back("FTSA-0Crash");
  crash_series.push_back("FaultFree-FTSA");
  print_block(
      os, "--- (b) normalized latency: simulated execution with crashes ---",
      sweep, crash_series);

  std::vector<std::string> overhead_series;
  for (const auto& name : crash_series) {
    if (name == "FaultFree-FTSA") continue;
    overhead_series.push_back("OH-" + name);
  }
  print_block(os, "--- (c) average overhead (%) ---", sweep, overhead_series);
}

void run_figure(std::ostream& os, int figure) {
  // The plan/execute path explicitly: identical to run_sweep(config), and
  // the SweepPlan is where a sharded reproduction would fork off.
  const FigureConfig config = figure_config(figure);
  const SweepPlan plan(config);
  OnlineStatsSink sink(plan);
  run_plan(plan, sink);
  print_figure(os, config, sink.take());
}

std::string sweep_to_csv(const SweepResult& sweep) {
  std::vector<std::string> header{"granularity"};
  for (const auto& [name, stats] : sweep.series) header.push_back(name);
  TextTable table(std::move(header));
  for (std::size_t gi = 0; gi < sweep.granularities.size(); ++gi) {
    std::vector<double> row;
    row.reserve(sweep.series.size());
    for (const auto& [name, stats] : sweep.series) {
      row.push_back(stats[gi].mean());
    }
    table.add_numeric_row(format_double(sweep.granularities[gi], 2), row);
  }
  return table.csv();
}

std::unique_ptr<Workload> make_table1_workload(Rng& row_rng, std::size_t tasks,
                                               const Table1Config& config) {
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = config.proc_count;
  params.granularity = 1.0;
  return make_paper_workload(row_rng, params);
}

void run_table1(std::ostream& os, const Table1Config& config) {
  os << "=== Table 1: running times in seconds (m=" << config.proc_count
     << ", epsilon=" << config.epsilon << ", reps=" << config.repetitions
     << ") ===\n";
  // Seconds per schedule, then microseconds per edge: at fixed m the
  // paper's O(e·m² + v·log ω) bound for FTSA is linear in e.
  TextTable table({"tasks", "edges", "FTSA", "MC-FTSA", "FTBAR", "FTSA us/e",
                   "MC-FTSA us/e", "FTBAR us/e"});
  // The timed contenders, resolved once through the registry.
  const std::string eps_opt = ":eps=" + std::to_string(config.epsilon);
  std::vector<SchedulerPtr> contenders;
  for (const char* algo : {"ftsa", "mc-ftsa", "ftbar"}) {
    contenders.push_back(make_scheduler(algo + eps_opt));
  }

  Rng root(config.seed);
  for (std::size_t v : config.task_counts) {
    Rng rng = root.split();
    const auto workload = make_table1_workload(rng, v, config);
    const CostModel& costs = workload->costs();

    std::vector<double> times(contenders.size(), 0.0);
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      for (std::size_t ci = 0; ci < contenders.size(); ++ci) {
        Stopwatch sw;
        const auto s = contenders[ci]->run(costs);
        times[ci] += sw.seconds();
        (void)s;
      }
    }
    const double reps = static_cast<double>(config.repetitions);
    const std::size_t edges = costs.graph().edge_count();
    std::vector<std::string> row{std::to_string(v), std::to_string(edges)};
    for (double t : times) row.push_back(format_double(t / reps, 4));
    for (double t : times) {
      row.push_back(
          format_double(t / reps * 1e6 / static_cast<double>(edges), 2));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "csv:\n" << table.csv();
}

}  // namespace ftsched
