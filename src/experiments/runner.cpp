#include "ftsched/experiments/runner.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "ftsched/core/reschedule.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {

/// Resolves a registry spec, injecting the instance's epsilon and seed as
/// defaults for algorithms that take them (explicit spec options win).
SchedulerPtr make_instance_scheduler(const std::string& spec,
                                     std::size_t epsilon, std::uint64_t seed) {
  return make_scheduler(spec, {{"eps", std::to_string(epsilon)},
                               {"seed", std::to_string(seed)}});
}

}  // namespace

FailureScenario CellDraw::scenario(double anchor, std::size_t count) const {
  FailureScenario failures;
  for (std::size_t i = 0; i < count; ++i) {
    const double crash = unit_times[i] * anchor;
    double repair = std::numeric_limits<double>::infinity();
    if (i < unit_repair_delays.size()) {
      const double candidate = crash + unit_repair_delays[i] * anchor;
      if (candidate > crash) repair = candidate;
    }
    failures.add(ProcId{victims[i]}, crash, repair);
  }
  return failures;
}

std::vector<InstanceAlgo> default_instance_algos(
    const InstanceOptions& options) {
  // FTSA is simulated at 0 crashes, the extras, and epsilon; the others at
  // epsilon only — the paper's figure layout.
  InstanceAlgo ftsa;
  ftsa.key = "FTSA";
  ftsa.spec = "ftsa";
  ftsa.crash_counts.push_back(0);
  ftsa.crash_counts.insert(ftsa.crash_counts.end(),
                           options.extra_crash_counts.begin(),
                           options.extra_crash_counts.end());
  ftsa.crash_counts.push_back(options.epsilon);
  ftsa.overhead_of_lower_bound = true;

  InstanceAlgo mc;
  mc.key = "MC-FTSA";
  mc.spec = "mc-ftsa";
  mc.crash_counts.push_back(options.epsilon);
  mc.repair_series = "MC-RepairRate";

  InstanceAlgo ftbar;
  ftbar.key = "FTBAR";
  ftbar.spec = "ftbar";
  ftbar.crash_counts.push_back(options.epsilon);
  ftbar.overhead_of_lower_bound = true;

  return {ftsa, mc, ftbar};
}

InstanceSchedules build_instance_schedules(const Workload& workload,
                                           const InstanceOptions& options) {
  const CostModel& costs = workload.costs();
  const std::size_t m = workload.platform().proc_count();
  FTSCHED_REQUIRE(options.epsilon < m, "epsilon must be < proc count");

  InstanceSchedules out;
  out.workload = &workload;
  out.epsilon = options.epsilon;

  auto norm = [&costs](double latency) {
    return normalized_latency(latency, costs);
  };

  // Fault-free reference schedules; FTSA* anchors every overhead series.
  const ReplicatedSchedule ff_ftsa =
      make_instance_scheduler("ftsa:eps=0", 0, options.seed)->run(costs);
  const ReplicatedSchedule ff_ftbar =
      make_instance_scheduler("ftbar:npf=0", 0, options.seed)->run(costs);
  out.ftsa_star = ff_ftsa.lower_bound();  // FTSA* reference
  out.schedule_series["FaultFree-FTSA"] = norm(out.ftsa_star);
  out.schedule_series["FaultFree-FTBAR"] = norm(ff_ftbar.lower_bound());

  const std::vector<InstanceAlgo> algos =
      options.algos.empty() ? default_instance_algos(options) : options.algos;
  out.algos.reserve(algos.size());
  for (const InstanceAlgo& algo : algos) {
    auto schedule = std::make_unique<ReplicatedSchedule>(
        make_instance_scheduler(algo.spec, options.epsilon, options.seed)
            ->run(costs));
    out.schedule_series[algo.key + "-LowerBound"] =
        norm(schedule->lower_bound());
    out.schedule_series[algo.key + "-UpperBound"] =
        norm(schedule->upper_bound());
    if (algo.overhead_of_lower_bound) {
      out.schedule_series["OH-" + algo.key + "-LowerBound"] =
          overhead_percent(schedule->lower_bound(), out.ftsa_star);
    }
    // Communication accounting for the ablation tables.
    out.schedule_series["Msg-" + algo.key] =
        static_cast<double>(schedule->interproc_message_count());
    if (!algo.repair_series.empty()) {
      // Fraction of tasks whose channels the end-to-end repair touched
      // (quantifies the cost of fixing the paper's Prop.-4.3 gap).
      out.schedule_series[algo.repair_series] =
          static_cast<double>(schedule->repaired_tasks().size()) /
          static_cast<double>(costs.graph().task_count());
    }

    std::vector<std::size_t> counts = algo.crash_counts;
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    for (std::size_t k : counts) {
      FTSCHED_REQUIRE(k <= options.epsilon,
                      "crash count exceeds the tolerated epsilon");
    }
    auto simulator =
        std::make_unique<ScheduleSimulator>(*schedule, options.sim);

    InstanceSchedules::Algo entry;
    entry.algo = algo;
    entry.schedule = std::move(schedule);
    entry.simulator = std::move(simulator);
    entry.crash_counts = std::move(counts);
    // Precompute every series name the simulate phase can emit, so cells
    // never assemble strings on the hot path.
    entry.crash_series_names.reserve(entry.crash_counts.size());
    for (std::size_t k : entry.crash_counts) {
      std::string series = algo.key + "-" + std::to_string(k) + "Crash";
      entry.crash_series_names.emplace_back(series, "OH-" + series);
    }
    entry.success_series = algo.key + "-Success";
    entry.drawn_series = algo.key + "-DrawnCrash";
    entry.oh_drawn_series = "OH-" + algo.key + "-DrawnCrash";
    entry.moves_series = algo.key + "-Moves";
    out.algos.push_back(std::move(entry));
  }
  return out;
}

CellDraw draw_cell(Rng& rng, std::size_t proc_count, std::size_t epsilon,
                   const CrashTimeLaw& crash_law,
                   const FailureModel& failure_model) {
  // Shared crash victims and unit crash instants for this instance: every
  // algorithm's curve faces the same failures.  The default failure model
  // draws exactly the legacy sample_without_replacement(m, ε), and the
  // default t=0 law draws nothing, keeping legacy streams bit-identical.
  CellDraw draw;
  draw.victims = failure_model.draw(rng, proc_count, epsilon);
  draw.unit_times = crash_law.sample(rng, draw.victims.size());
  draw.default_model = failure_model.is_default();
  // New-in-PR-9 laws draw strictly after the legacy stream, so every
  // pre-existing model keeps its exact draws.  A burst law correlates the
  // crash instants: common onset (the first drawn unit time) plus a
  // uniform per-victim offset.  A repair law appends per-victim restart
  // delays, which CellDraw::scenario anchors on every simulate path.
  const std::size_t count = draw.victims.size();
  if (failure_model.is_burst() && count > 0) {
    const double onset = draw.unit_times.front();
    const std::vector<double> offsets =
        failure_model.sample_burst_offsets(rng, count);
    for (std::size_t i = 0; i < count; ++i) {
      draw.unit_times[i] = onset + offsets[i];
    }
  }
  if (failure_model.has_repair()) {
    draw.unit_repair_delays = failure_model.sample_repair_delays(rng, count);
  }
  return draw;
}

CellDraw draw_instance_cell(const InstanceSchedules& schedules, Rng& rng,
                            const CrashTimeLaw& crash_law,
                            const FailureModel& failure_model) {
  return draw_cell(rng, schedules.workload->platform().proc_count(),
                   schedules.epsilon, crash_law, failure_model);
}

SeriesSample simulate_drawn_cell(const InstanceSchedules& schedules,
                                 const CellDraw& draw,
                                 SimulationCache* cache) {
  const CostModel& costs = schedules.workload->costs();
  const std::size_t drawn = draw.victims.size();

  SeriesSample sample = schedules.schedule_series;
  auto norm = [&costs](double latency) {
    return normalized_latency(latency, costs);
  };
  if (!draw.default_model) {
    // How many crashes the model actually drew (cell mean = the average
    // injected failure count, for degradation plots against ε).
    sample["DrawnCrashes"] = static_cast<double>(drawn);
  }

  std::vector<std::size_t> counts;  // per-algorithm scratch
  std::vector<ScheduleSimulator::Summary> summaries;
  for (std::size_t ai = 0; ai < schedules.algos.size(); ++ai) {
    const InstanceSchedules::Algo& a = schedules.algos[ai];
    const double anchor = a.schedule->lower_bound();

    // Counts simulated for this cell: the legacy counts the draw covers (a
    // prefix of the sorted crash_counts — a probabilistic model may draw
    // fewer victims than a fixed series asks for, and then the instance
    // simply doesn't sample that series; the default model always draws ε,
    // covering every legacy count) plus, under a non-default model, the
    // drawn scenario itself — all `drawn` victims, which may exceed ε.
    counts.clear();
    for (std::size_t k : a.crash_counts) {
      if (k > drawn) break;
      counts.push_back(k);
    }
    const std::size_t legacy = counts.size();
    if (!draw.default_model) counts.push_back(drawn);
    // When the drawn count coincides with the last legacy count the two
    // slots are the same scenario: simulate once and alias.
    const bool drawn_dup =
        !draw.default_model && legacy > 0 && counts[legacy - 1] == drawn;
    const std::size_t simulated = counts.size() - (drawn_dup ? 1 : 0);

    summaries.assign(counts.size(), {});
    for (std::size_t i = 0; i < simulated; ++i) {
      SimulationCache::Key key;
      if (cache != nullptr) {
        const std::size_t n = counts[i];
        key.algo = ai;
        key.victims.assign(draw.victims.begin(),
                           draw.victims.begin() + static_cast<std::ptrdiff_t>(n));
        key.times.reserve(2 * n);  // unit times, then any repair delays
        for (std::size_t j = 0; j < n; ++j) {
          key.times.push_back(std::bit_cast<std::uint64_t>(draw.unit_times[j]));
        }
        for (std::size_t j = 0; j < std::min(n, draw.unit_repair_delays.size());
             ++j) {
          key.times.push_back(
              std::bit_cast<std::uint64_t>(draw.unit_repair_delays[j]));
        }
        if (const auto it = cache->memo_.find(key);
            it != cache->memo_.end()) {
          summaries[i] = it->second;
          ++cache->stats_.hits;
          continue;
        }
      }
      // No policy: the static replay, with the draw's repairs honoured.
      summaries[i] =
          a.simulator->run_summary(draw.scenario(anchor, counts[i]));
      if (cache != nullptr) {
        cache->memo_.emplace(std::move(key), summaries[i]);
        ++cache->stats_.simulations;
      }
    }
    if (drawn_dup) {
      summaries.back() = summaries[legacy - 1];
      if (cache != nullptr) ++cache->stats_.hits;
    }

    for (std::size_t i = 0; i < legacy; ++i) {
      const ScheduleSimulator::Summary& result = summaries[i];
      FTSCHED_REQUIRE(result.success,
                      "simulation failed with <= epsilon crashes (Thm 4.1 "
                      "bug)");
      const auto& [series, oh_series] = a.crash_series_names[i];
      sample[series] = norm(result.latency);
      sample[oh_series] = overhead_percent(result.latency, schedules.ftsa_star);
    }

    if (!draw.default_model) {
      // Past ε nothing is guaranteed, so instead of asserting we record a
      // success indicator — its cell mean is the graceful-degradation
      // success fraction — and latency/overhead over the surviving runs
      // only.
      const ScheduleSimulator::Summary& result = summaries[legacy];
      FTSCHED_REQUIRE(result.success || drawn > schedules.epsilon,
                      "simulation failed with <= epsilon crashes (Thm 4.1 "
                      "bug)");
      sample[a.success_series] = result.success ? 1.0 : 0.0;
      if (result.success) {
        sample[a.drawn_series] = norm(result.latency);
        sample[a.oh_drawn_series] =
            overhead_percent(result.latency, schedules.ftsa_star);
      }
    }
  }
  return sample;
}

SeriesSample simulate_online_cell(const InstanceSchedules& schedules,
                                  const CellDraw& draw,
                                  ReschedulePolicy& policy) {
  const CostModel& costs = schedules.workload->costs();
  const std::size_t drawn = draw.victims.size();

  SeriesSample sample = schedules.schedule_series;
  auto norm = [&costs](double latency) {
    return normalized_latency(latency, costs);
  };
  sample["DrawnCrashes"] = static_cast<double>(drawn);

  for (const InstanceSchedules::Algo& a : schedules.algos) {
    const double anchor = a.schedule->lower_bound();
    const FailureScenario failures = draw.scenario(anchor, drawn);
    policy.prepare(*a.schedule);
    const ScheduleSimulator::Summary result =
        a.simulator->run_summary(failures, &policy);
    // Past-ε failures are legitimate here just as under a non-default
    // static model: record the success indicator and gate the latency
    // series on it.  (With a live policy even ≤ ε crashes carry no
    // Thm 4.1 guarantee — moves trade the static replication proof for
    // adaptivity — so no success assertion either way.)
    sample[a.success_series] = result.success ? 1.0 : 0.0;
    if (result.success) {
      sample[a.drawn_series] = norm(result.latency);
      sample[a.oh_drawn_series] =
          overhead_percent(result.latency, schedules.ftsa_star);
    }
    sample[a.moves_series] = static_cast<double>(result.moves);
  }
  return sample;
}

std::string decorate_series_name(const std::string& series,
                                 const std::string& workload,
                                 const std::string& scenario, bool multi_cell,
                                 const std::string& failure,
                                 bool multi_failure,
                                 const std::string& policy,
                                 bool multi_policy) {
  if (!multi_cell) return series;
  std::string out = series + "[" + workload + "|" + scenario;
  // The failure and policy parts appear only when their dimension is
  // actually swept, so legacy (workload x scenario) grids keep their exact
  // names — and pre-policy grids keep their exact three-part names.
  if (multi_failure) out += "|" + failure;
  if (multi_policy) out += "|" + policy;
  return out + "]";
}

std::string sweep_series_name(const SweepResult& sweep,
                              const std::string& series,
                              const std::string& workload,
                              const std::string& scenario,
                              const std::string& failure,
                              const std::string& policy) {
  const std::size_t failure_cells =
      sweep.failures.empty() ? 1 : sweep.failures.size();
  const std::size_t policy_cells =
      sweep.policies.empty() ? 1 : sweep.policies.size();
  return decorate_series_name(
      series, workload, scenario,
      sweep.workloads.size() * sweep.scenarios.size() * failure_cells *
              policy_cells >
          1,
      failure, failure_cells > 1, policy, policy_cells > 1);
}

std::string sweep_series_name(const SweepResult& sweep,
                              const std::string& series,
                              const std::string& workload,
                              const std::string& scenario,
                              const std::string& failure) {
  return sweep_series_name(sweep, series, workload, scenario, failure,
                           sweep.policies.empty() ? "none"
                                                  : sweep.policies.front());
}

std::string sweep_series_name(const SweepResult& sweep,
                              const std::string& series,
                              const std::string& workload,
                              const std::string& scenario) {
  return sweep_series_name(sweep, series, workload, scenario,
                           sweep.failures.empty() ? "eps"
                                                  : sweep.failures.front());
}

bool sweep_results_identical(const SweepResult& a, const SweepResult& b) {
  if (a.granularities != b.granularities) return false;
  if (a.workloads != b.workloads || a.scenarios != b.scenarios) return false;
  if (a.failures != b.failures) return false;
  if (a.policies != b.policies) return false;
  if (a.series.size() != b.series.size()) return false;
  for (auto ita = a.series.begin(), itb = b.series.begin();
       ita != a.series.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    const auto& sa = ita->second;
    const auto& sb = itb->second;
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].count() != sb[i].count() || sa[i].mean() != sb[i].mean() ||
          sa[i].variance() != sb[i].variance() || sa[i].min() != sb[i].min() ||
          sa[i].max() != sb[i].max()) {
        return false;
      }
    }
  }
  return true;
}

SweepResult run_sweep(const FigureConfig& config) {
  // Thin wrapper over the plan/execute pipeline: enumerate the full grid,
  // evaluate it in parallel, aggregate through the in-memory sink.  The
  // serial coordinate-order delivery of run_plan pins every OnlineStats
  // rounding, so the result is bit-identical for every thread count — and
  // to any sharded run of the same plan merged back with merge_shards.
  const SweepPlan plan(config);
  OnlineStatsSink sink(plan);
  run_plan(plan, sink);
  return sink.take();
}

}  // namespace ftsched
