// table1-n1000: paper Table 1's scheduling-time setting at 1 000 tasks —
// fresh paper DAGs on m=50 processors, each scheduled serially by FTSA,
// MC-FTSA and FTBAR with ε=5.  Pure core layer: no sweep engine, no
// simulator in the timed region, no service.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench_layers.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/config.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"

namespace bench {

namespace {

using namespace ftsched;

constexpr std::size_t kDags = 100;
constexpr std::size_t kTasks = 1000;
constexpr int kSetupRepeats = 5;
/// Timed DAGs per run at least; also the DAGs output_digest covers.
constexpr std::size_t kMinDags = 10;
/// DAGs timed untraced as the baseline of trace.overhead_ratio.
constexpr std::size_t kReferenceDags = 10;

struct Pass {
  const char* span;
  const char* spec;
  bool fault_tolerant;
};
/// The timed trio, then the two fault-free references the sweeps also run
/// (traced run only, so that every core metric exists on every workload).
constexpr Pass kPasses[] = {
    {"core.ftsa", "ftsa", true},
    {"core.mc_ftsa", "mc-ftsa", true},
    {"core.ftbar", "ftbar", true},
    {"core.ftsa_eps0", "ftsa", false},
    {"core.ftbar_npf0", "ftbar:npf=0", false},
};
constexpr std::size_t kTrio = 3;

std::vector<SchedulerPtr> make_schedulers(std::size_t epsilon) {
  std::vector<SchedulerPtr> out;
  for (const Pass& p : kPasses) {
    out.push_back(make_scheduler(
        p.spec, {{"eps", std::to_string(p.fault_tolerant ? epsilon : 0)}}));
  }
  return out;
}

std::unique_ptr<Workload> next_dag(Rng& root, const Table1Config& config) {
  Rng rng = root.split();
  return make_table1_workload(rng, kTasks, config);
}

/// The per-schedule oracle: validate(), then (when `simulate`) ε victims
/// drawn at random crash at t=0 and the schedule must still finish within
/// its guaranteed bound M (Theorem 4.1, Prop. 4.2).  Returns "" when the
/// checks hold.  With a trace, each step is a span.
std::string check_schedule(const ReplicatedSchedule& schedule, Rng& rng,
                           bool simulate, Trace* trace, std::int64_t group) {
  std::optional<Trace::Scope> span;
  if (trace != nullptr) span.emplace(*trace, "core.validate", group);
  try {
    schedule.validate();
  } catch (const std::exception& e) {
    return std::string("validate: ") + e.what();
  }
  if (!simulate) return "";
  if (trace != nullptr) span.emplace(*trace, "platform.draw", group);
  static const FailureModel eps_model = FailureModel::parse("eps");
  FailureScenario scenario;
  for (const std::size_t p :
       eps_model.draw(rng, schedule.platform().proc_count(), schedule.epsilon())) {
    scenario.add(ProcId{p}, 0.0);
  }
  if (trace != nullptr) span.emplace(*trace, "sim.static", group);
  const ScheduleSimulator::Summary run =
      ScheduleSimulator(schedule).run_summary(scenario);
  span.reset();
  if (!run.success) return "a t=0 crash of epsilon processors was not survived";
  // M and the replay sum the same costs in different orders; allow for the
  // last-bit rounding difference, nothing more.
  if (run.latency > schedule.upper_bound() * (1.0 + 1e-12)) {
    return "latency under epsilon crashes exceeds the upper bound M";
  }
  return "";
}

void report_check(const std::string& error, std::size_t pass, std::size_t dag,
                  Record& record) {
  record.items(1, error.empty() ? 0 : 1);
  record.check(error.empty(), std::string(kPasses[pass].spec) + " on DAG " +
                                  std::to_string(dag) + ": " + error);
}

// ------------------------------------------------------------ end to end

void measure_end_to_end(const Args& args, Record& record) {
  const Table1Config config;
  std::vector<double> setup;
  std::vector<std::unique_ptr<Workload>> dags;
  std::vector<SchedulerPtr> schedulers;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    dags.clear();
    Rng root(args.seed);
    for (std::size_t d = 0; d < kDags; ++d) dags.push_back(next_dag(root, config));
    schedulers = make_schedulers(config.epsilon);
    setup.push_back(now_s() - t0);
  }

  // Warm-up: the trio once on DAG 0, untimed and unchecked.
  for (std::size_t j = 0; j < kTrio; ++j) (void)schedulers[j]->run(dags[0]->costs());

  std::vector<double> rate;
  std::vector<double> first;
  std::vector<double> cpu;
  std::string bounds;
  double timed = 0.0;
  for (std::size_t i = 0; i < kMinDags || timed < args.seconds; ++i) {
    const std::size_t dag = i % kDags;
    const CostModel& costs = dags[dag]->costs();
    std::vector<ReplicatedSchedule> out;
    out.reserve(kTrio);
    const Usage u0 = usage();
    const double t0 = now_s();
    double first_done = 0.0;
    try {
      for (std::size_t j = 0; j < kTrio; ++j) {
        out.push_back(schedulers[j]->run(costs));
        if (j == 0) first_done = now_s();
      }
    } catch (const std::exception& e) {
      record.items(kTrio, kTrio);
      record.check(false, std::string("scheduling threw: ") + e.what());
      break;
    }
    const double wall = now_s() - t0;
    const Usage u1 = usage();
    timed += wall;
    rate.push_back(static_cast<double>(kTrio) / wall);
    first.push_back(first_done - t0);
    cpu.push_back((u1.self_cpu_s - u0.self_cpu_s) / kTrio * 1e3);

    // Oracles, outside the timed region.
    Rng victims = Rng(args.seed).derive(dag);
    for (std::size_t j = 0; j < kTrio; ++j) {
      report_check(check_schedule(out[j], victims, true, nullptr, -1), j, dag,
                   record);
    }
    if (i < kMinDags) {
      for (const ReplicatedSchedule& s : out) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a %a\n", s.lower_bound(), s.upper_bound());
        bounds += buf;
      }
    }
  }
  const Usage peak = usage();

  record.metric("setup_s", "s", median(setup));
  record.metric("items_per_s", "items/s", median(rate));
  record.metric("first_item_s", "s", median(first));
  record.metric("cpu_ms_per_item", "ms", median(cpu));
  record.metric("peak_rss_mb", "MB", peak.self_rss_mb);
  record.metric("passes", "passes", static_cast<double>(rate.size()));
  record.metric("items_per_pass", "count", static_cast<double>(kTrio));
  record.note("output_digest", hex64(fnv1a64(bounds)));
}

// ---------------------------------------------------------------- traced

Iteration traced_iteration(const Args& args, Record& record) {
  Iteration it;
  Trace& trace = it.trace;
  const Table1Config config;
  const std::vector<SchedulerPtr> schedulers = make_schedulers(config.epsilon);

  std::uint64_t tasks = 0, replicas = 0, messages = 0;
  // On the first DAGs the trio also runs untraced, before the traced calls
  // on even DAGs and after them on odd ones: the baseline of
  // trace.overhead_ratio, on the same machine state and cache warmth.
  double traced_reference = 0.0;
  double untraced = 0.0;
  const auto untraced_trio = [&](const Workload& workload) {
    const double t0 = now_s();
    for (std::size_t j = 0; j < kTrio; ++j) (void)schedulers[j]->run(workload.costs());
    untraced += now_s() - t0;
  };
  Rng root(args.seed);
  for (std::size_t dag = 0; dag < kDags; ++dag) {
    const auto group = static_cast<std::int64_t>(dag);
    const bool reference = dag < kReferenceDags;
    std::unique_ptr<Workload> workload;
    {
      Trace::Scope g(trace, "group", group);
      {
        Trace::Scope s(trace, "workload.generate", group);
        workload = next_dag(root, config);
      }
      tasks += workload->graph().task_count();
    }
    if (reference && dag % 2 == 0) untraced_trio(*workload);
    // The five calls back to back, as in the end-to-end run; the checks
    // follow.  The traced work of one DAG is three "group" spans, so that
    // the untraced trio stays outside all of them.
    std::vector<ReplicatedSchedule> trio;
    trio.reserve(kTrio);
    {
      Trace::Scope g(trace, "group", group);
      for (std::size_t j = 0; j < std::size(kPasses); ++j) {
        std::optional<ReplicatedSchedule> schedule;
        {
          Trace::Scope s(trace, kPasses[j].span, group);
          schedule.emplace(schedulers[j]->run(workload->costs()));
          if (j < kTrio && reference) traced_reference += s.seconds();
        }
        if (kPasses[j].fault_tolerant) trio.push_back(std::move(*schedule));
      }
    }
    if (reference && dag % 2 == 1) untraced_trio(*workload);
    Trace::Scope g(trace, "group", group);
    Rng victims = Rng(args.seed).derive(dag);
    for (std::size_t j = 0; j < trio.size(); ++j) {
      replicas += replica_total(trio[j]);
      messages += trio[j].interproc_message_count();
      // Every schedule is validated; the replay, which costs twice the
      // three schedulers together, runs on the reference DAGs only.
      report_check(check_schedule(trio[j], victims, reference, &trace, group), j,
                   dag, record);
    }
  }

  // Only a group span's self time is outside every layer span.
  auto& v = it.values;
  v["trace.traced_wall_s"] = trace.busy("group");
  v["trace.untraced_wall_s"] = untraced;
  v["trace.accounted_ratio"] = 1.0 - trace.self_busy("group") / trace.busy("group");
  v["trace.overhead_ratio"] = traced_reference / untraced - 1.0;
  v["workload.generate_s"] = trace.busy("workload.generate");
  for (const Pass& p : kPasses) v[std::string(p.span) + "_s"] = trace.busy(p.span);
  add_core_latency(trace, v);
  v["core.validate_s"] = trace.busy("core.validate");
  v["platform.draw_s"] = trace.busy("platform.draw");
  v["sim.static_s"] = trace.busy("sim.static");
  // Layers this workload never enters.
  for (const char* name :
       {"experiments.schedule_phase_share", "experiments.sink_share",
        "experiments.shard_share", "experiments.idle_share", "sim.online_share",
        "service.excess_wall_share", "service.excess_cpu_share"}) {
    v[name] = 0.0;
  }

  const double replays = static_cast<double>(kTrio * kReferenceDags);
  it.counters = {
      {"workload.instances", static_cast<double>(kDags)},
      {"workload.tasks", static_cast<double>(tasks)},
      {"experiments.groups", 0.0},
      {"core.replicas", static_cast<double>(replicas)},
      {"core.messages", static_cast<double>(messages)},
      {"platform.draws", replays},
      {"platform.victims", replays * static_cast<double>(config.epsilon)},
      {"sim.simulations", replays},
      {"sim.cache_hits", 0.0},
      {"sim.online_runs", 0.0},
      {"sim.online_moves", 0.0},
      {"experiments.shard_bytes", 0.0},
      {"sim.cache_hit_ratio", 0.0},
      {"sim.online_success_ratio", 0.0},
  };
  return it;
}

}  // namespace

void run_table1_workload(const Args& args, Record& record) {
  if (!args.trace) {
    measure_end_to_end(args, record);
    return;
  }
  {
    // Warm-up: the trio once, as in the end-to-end run.
    const Table1Config config;
    Rng root(args.seed);
    const std::unique_ptr<Workload> dag = next_dag(root, config);
    const std::vector<SchedulerPtr> schedulers = make_schedulers(config.epsilon);
    for (std::size_t j = 0; j < kTrio; ++j) (void)schedulers[j]->run(dag->costs());
  }
  std::vector<Iteration> iterations;
  const double start = now_s();
  do {
    iterations.push_back(traced_iteration(args, record));
  } while (now_s() - start < args.seconds);
  report_iterations(args, iterations, record);
}

}  // namespace bench
