// The three sweep workloads.  All run figure 1's platform (ε=1, m=20, ten
// granularities) through run_plan; they differ in the cells swept and in
// the backend, so that each stresses a different layer:
//
//   fig1-grid        60 graphs × 3 scenarios × 3 failure laws, inproc
//                    threads=2: static replay and its SimulationCache
//   repair-policies  40 graphs × repair law × 3 policies, inproc threads=2:
//                    the online (policy-driven) simulator
//   socket-fleet     fig1-grid's cells at 20 graphs through the socket
//                    backend with 2 worker processes: the service layer
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_layers.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/config.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace bench {

namespace {

using namespace ftsched;

/// Set-up is repeated for at least this many seconds and times (setup_s is
/// the median): one plan takes about ten microseconds, too little to time once.
constexpr double kSetupSeconds = 0.05;
constexpr std::size_t kSetupRepeats = 31;
/// Timed passes per run at least, however long they take.
constexpr int kMinPasses = 3;

struct SweepWorkload {
  std::size_t graphs = 0;
  std::vector<std::string> scenarios;
  std::vector<std::string> failures;
  std::vector<std::string> policies;
  bool socket = false;
};

SweepWorkload sweep_workload(const std::string& name) {
  const std::vector<std::string> scenarios{"t0", "frac:f=0.5", "uniform:hi=1"};
  const std::vector<std::string> failures{"eps", "fixed:k=1",
                                          "bernoulli:p=0.3"};
  if (name == "fig1-grid") return {60, scenarios, failures, {}, false};
  if (name == "repair-policies") {
    return {40,
            {"uniform:hi=1"},
            {"repair:p=0.3,mttr=0.5"},
            {"none", "requeue-heft", "reactive-ftsa"},
            false};
  }
  return {20, scenarios, failures, {}, true};
}

FigureConfig sweep_config(const SweepWorkload& w, std::uint64_t seed) {
  FigureConfig config = figure_config(1);
  config.graphs_per_point = w.graphs;
  config.seed = seed;
  config.threads = 2;
  config.scenarios = w.scenarios;
  config.failure_models = w.failures;
  config.policies = w.policies;
  return config;
}

constexpr const char* kInproc = "inproc:threads=2";

std::string backend_spec(const Args& args, const SweepWorkload& w) {
  if (!w.socket) return kInproc;
  if (args.cli.empty()) {
    throw std::invalid_argument("socket-fleet needs --cli <ftsched_cli>");
  }
  // Worker logs go under --out, not $TMPDIR.
  const std::filesystem::path dir =
      std::filesystem::absolute(std::filesystem::path(args.out) / "tmp");
  std::filesystem::create_directories(dir);
  return "socket:workers=2,bin=" + args.cli + ",dir=" + dir.string();
}

/// Aggregates like OnlineStatsSink and timestamps every delivery.
class TimedSink final : public SweepSink {
 public:
  explicit TimedSink(const SweepPlan& plan) : inner_(plan) {
    stamps_.reserve(plan.size());
  }
  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override {
    stamps_.push_back(now_s());
    inner_.on_sample(coord, sample);
  }
  [[nodiscard]] SweepResult take() { return inner_.take(); }
  [[nodiscard]] const std::vector<double>& stamps() const { return stamps_; }

 private:
  OnlineStatsSink inner_;
  std::vector<double> stamps_;
};

/// Milliseconds between consecutive deliveries.
std::vector<double> gaps_ms(const std::vector<double>& stamps) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    gaps.push_back((stamps[i] - stamps[i - 1]) * 1e3);
  }
  return gaps;
}

double cpu_delta(const Usage& a, const Usage& b) {
  return (b.self_cpu_s + b.child_cpu_s) - (a.self_cpu_s + a.child_cpu_s);
}

// ---------------------------------------------------------------- inputs

/// Root seeds tried for one --seed before the run gives up.
constexpr std::uint64_t kSeedCandidates = 8;

/// The grid a run measures, and its result from one inproc threads=2 pass.
struct Inputs {
  FigureConfig config;
  SweepResult reference;
};

/// Chooses the grid for --seed.  On some grids run_plan throws: on a few
/// granularity-0.2 instances FTBAR's schedule does not survive one crash at
/// t=0, and the runner stops with "Thm 4.1 bug" (about one fig1-grid seed
/// in five).  The benchmark needs inputs on which no operation fails, so a
/// root seed whose pass throws is rejected and the next candidate tried:
/// --seed itself, then --seed + i·2^32.  The pass also warms the caches.
Inputs select_inputs(const Args& args, const SweepWorkload& w, Record& record) {
  std::string rejected;
  for (std::uint64_t i = 0; i < kSeedCandidates; ++i) {
    const FigureConfig config = sweep_config(w, args.seed + (i << 32));
    const SweepPlan plan(config);
    OnlineStatsSink sink(plan);
    try {
      make_sweep_backend(kInproc)->run(plan, sink);
    } catch (const std::exception& e) {
      rejected += (rejected.empty() ? "" : "; ") + std::to_string(config.seed) +
                  ": " + e.what();
      continue;
    }
    record.note("root_seed", std::to_string(config.seed));
    if (!rejected.empty()) record.note("rejected_root_seeds", rejected);
    return {config, sink.take()};
  }
  throw std::runtime_error("no candidate root seed runs cleanly: " + rejected);
}

// ------------------------------------------------------------ end to end

void measure_end_to_end(const Args& args, const SweepWorkload& w,
                        const Inputs& inputs, Record& record) {
  const std::string spec = backend_spec(args, w);
  const SweepResult& reference = inputs.reference;
  const std::string csv = sweep_to_csv(reference);
  record.note("output_digest", hex64(fnv1a64(csv)));

  // Set-up is everything before the first pass: the plan and the backend.
  std::vector<double> setup;
  std::optional<SweepPlan> plan;
  SweepBackendPtr backend;
  const double setup_start = now_s();
  while (setup.size() < kSetupRepeats || now_s() - setup_start < kSetupSeconds) {
    const double t0 = now_s();
    plan.emplace(inputs.config);
    backend = make_sweep_backend(spec);
    setup.push_back(now_s() - t0);
  }
  const std::size_t n = plan->size();

  if (w.socket) {
    // Warm-up of the fleet path, and its oracle: byte-identical CSV.
    TimedSink warm(*plan);
    backend->run(*plan, warm);
    record.check(sweep_to_csv(warm.take()) == csv,
                 "socket CSV differs from the inproc CSV");
  }

  std::vector<double> rate;
  std::vector<double> first;
  std::vector<double> cpu;
  const double start = now_s();
  for (int pass = 0; pass < kMinPasses || now_s() - start < args.seconds;
       ++pass) {
    TimedSink sink(*plan);
    const Usage u0 = usage();
    const double t0 = now_s();
    try {
      backend->run(*plan, sink);
    } catch (const std::exception& e) {
      record.items(n, n);
      record.check(false, std::string("timed pass threw: ") + e.what());
      continue;
    }
    const double wall = now_s() - t0;
    const Usage u1 = usage();
    const bool same = sweep_results_identical(sink.take(), reference);
    record.items(n, same ? 0 : n);
    record.check(same, "a timed pass differs from the inproc reference pass");
    rate.push_back(static_cast<double>(n) / wall);
    first.push_back(sink.stamps().front() - t0);
    cpu.push_back(cpu_delta(u0, u1) / static_cast<double>(n) * 1e3);
  }
  const Usage peak = usage();

  record.metric("setup_s", "s", median(setup));
  record.metric("items_per_s", "items/s", median(rate));
  record.metric("first_item_s", "s", median(first));
  record.metric("cpu_ms_per_item", "ms", median(cpu));
  record.metric("peak_rss_mb", "MB", peak.self_rss_mb + peak.child_rss_mb);
  record.metric("peak_rss_self_mb", "MB", peak.self_rss_mb);
  record.metric("peak_rss_child_mb", "MB", peak.child_rss_mb);
  record.metric("passes", "passes", static_cast<double>(rate.size()));
  record.metric("items_per_pass", "count", static_cast<double>(n));
  // Every pass's rate, to tell a slow stretch of the machine from a slow
  // pass.
  std::string rates;
  for (const double r : rate) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", rates.empty() ? "" : " ", r);
    rates += buf;
  }
  record.note("pass_items_per_s", rates);
}

// ---------------------------------------------------------------- traced

/// The five standalone scheduler passes build_instance_schedules runs.
struct CorePass {
  const char* span;
  const char* spec;
  bool fault_tolerant;
};
constexpr CorePass kCorePasses[] = {
    {"core.ftsa_eps0", "ftsa:eps=0", false},
    {"core.ftbar_npf0", "ftbar:npf=0", false},
    {"core.ftsa", "ftsa", true},
    {"core.mc_ftsa", "mc-ftsa", true},
    {"core.ftbar", "ftbar", true},
};

/// One group's instance, drawn exactly like SweepPlan::evaluate_group does:
/// the stream Rng(seed).derive((w·P+g)·R+r), the workload, then the
/// scheduler seed.  Generation is a span called `span`.
struct GroupInstance {
  Rng rng;  ///< the stream after both draws; each cell starts from a copy
  std::unique_ptr<Workload> workload;
  InstanceOptions options;
};

GroupInstance draw_group(const SweepPlan& plan, const WorkloadFamily& family,
                         const std::vector<std::size_t>& members, Trace& trace,
                         const char* span, std::int64_t group) {
  const FigureConfig& config = plan.config();
  const InstanceCoord first = plan.coord(members.front());
  GroupInstance out{
      Rng(config.seed)
          .derive((first.workload * config.granularities.size() + first.gran) *
                      config.graphs_per_point +
                  first.rep),
      nullptr,
      {}};
  {
    Trace::Scope s(trace, span, group);
    out.workload = family.generate(
        out.rng, SweepPoint{config.granularities[first.gran], config.proc_count});
  }
  out.options.epsilon = config.epsilon;
  out.options.extra_crash_counts = config.extra_crash_counts;
  out.options.seed = out.rng();
  return out;
}

/// One traced sequence: plan, the traced serial split (with an untraced
/// evaluate_group of every group interleaved as the overhead baseline), the
/// core sub-pass, the shard path, a threads=2 run_plan, and for
/// socket-fleet an inproc and a socket pass.  Every result must equal
/// `reference`.
Iteration traced_iteration(const Args& args, const SweepWorkload& w,
                           const Inputs& inputs, Record& record) {
  Iteration it;
  Trace& trace = it.trace;
  const FigureConfig& config = inputs.config;
  const SweepResult& reference = inputs.reference;

  std::optional<SweepPlan> plan_slot;
  {
    Trace::Scope s(trace, "experiments.plan");
    plan_slot.emplace(config);
  }
  const SweepPlan& plan = *plan_slot;
  const std::size_t n = plan.size();

  // Cell laws, resolved like SweepPlan's constructor does.
  std::vector<CrashTimeLaw> laws;
  for (const std::string& s : plan.scenarios()) laws.push_back(CrashTimeLaw::parse(s));
  std::vector<FailureModel> models;
  for (const std::string& f : plan.failures()) models.push_back(FailureModel::parse(f));
  const std::shared_ptr<const WorkloadFamily> family =
      make_paper_family(config.workload);

  std::uint64_t tasks = 0, replicas = 0, messages = 0, draws = 0, victims = 0;
  std::uint64_t simulations = 0, hits = 0, online_runs = 0, moves = 0;
  double successes = 0.0;
  std::vector<SeriesSample> samples(n);
  std::vector<std::vector<std::size_t>> groups;
  {
    Trace::Scope s(trace, "experiments.group_selection");
    groups = plan.group_selection();
  }
  // The traced split.  Each group is also evaluated once untraced, before
  // the traced copy on even groups and after it on odd ones, so that the
  // baseline of trace.overhead_ratio sees the same machine and the same
  // cache warmth.
  double untraced = 0.0;
  const auto untraced_group = [&](std::size_t gi) {
    const double t0 = now_s();
    (void)plan.evaluate_group(groups[gi]);
    untraced += now_s() - t0;
  };
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    if (gi % 2 == 0) untraced_group(gi);
    {
      const auto g = static_cast<std::int64_t>(gi);
      Trace::Scope group(trace, "group", g);
      GroupInstance inst =
          draw_group(plan, *family, groups[gi], trace, "workload.generate", g);
      tasks += inst.workload->graph().task_count();
      std::optional<InstanceSchedules> schedules;
      {
        Trace::Scope s(trace, "experiments.schedule_phase", g);
        schedules.emplace(build_instance_schedules(*inst.workload, inst.options));
      }
      SimulationCache cache;
      for (const std::size_t k : groups[gi]) {
        const InstanceCoord c = plan.coord(k);
        Rng cell_rng = inst.rng;
        CellDraw draw;
        {
          Trace::Scope s(trace, "platform.draw", g);
          draw = draw_instance_cell(*schedules, cell_rng, laws[c.scenario],
                                    models[c.failure]);
        }
        ++draws;
        victims += draw.victims.size();
        ReschedulePolicyPtr policy;
        {
          Trace::Scope s(trace, "experiments.policy", g);
          policy = make_reschedule_policy(plan.policies()[c.policy]);
        }
        if (policy->is_noop()) {
          Trace::Scope s(trace, "sim.static", g);
          samples[k] = simulate_drawn_cell(*schedules, draw, &cache);
        } else {
          {
            Trace::Scope s(trace, "sim.online", g);
            samples[k] = simulate_online_cell(*schedules, draw, *policy);
          }
          for (const InstanceSchedules::Algo& a : schedules->algos) {
            ++online_runs;
            moves += static_cast<std::uint64_t>(samples[k].at(a.moves_series));
            successes += samples[k].at(a.success_series);
          }
        }
      }
      simulations += cache.stats().simulations;
      hits += cache.stats().hits;
    }
    if (gi % 2 == 1) untraced_group(gi);
  }
  SweepResult split_result;
  {
    Trace::Scope s(trace, "experiments.sink");
    OnlineStatsSink sink(plan);
    for (std::size_t k = 0; k < n; ++k) sink.on_sample(plan.coord(k), samples[k]);
    split_result = sink.take();
  }
  record.check(sweep_results_identical(split_result, reference),
               "the traced split differs from run_plan");
  // The serial traced work: the groups plus the layer calls around them.
  // Only a group span's self time is outside every layer span.
  const double traced_wall = trace.busy("group") +
                             trace.busy("experiments.group_selection") +
                             trace.busy("experiments.sink");
  const double unaccounted = trace.self_busy("group");

  // Core sub-pass: the schedule phase's five scheduler passes once more,
  // each timed on its own, on the same instances drawn afresh.  A separate
  // pass, so that the split above runs exactly what run_plan runs.
  {
    Trace::Scope sub(trace, "core_subpass");
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const auto g = static_cast<std::int64_t>(gi);
      Trace::Scope group(trace, "core_group", g);
      const GroupInstance inst =
          draw_group(plan, *family, groups[gi], trace, "regenerate", g);
      for (const CorePass& pass : kCorePasses) {
        const std::size_t eps = pass.fault_tolerant ? inst.options.epsilon : 0;
        const SchedulerPtr scheduler = make_scheduler(
            pass.spec, {{"eps", std::to_string(eps)},
                        {"seed", std::to_string(inst.options.seed)}});
        std::optional<ReplicatedSchedule> schedule;
        {
          Trace::Scope s(trace, pass.span, g);
          schedule.emplace(scheduler->run(inst.workload->costs()));
        }
        if (pass.fault_tolerant) {
          replicas += replica_total(*schedule);
          messages += schedule->interproc_message_count();
        }
      }
    }
  }

  // Shard path: ShardWriterSink -> read_shard -> merge_shards.  Shard
  // records are also the socket protocol's sample frames.
  std::string shard;
  {
    Trace::Scope s(trace, "experiments.shard_encode");
    std::ostringstream os;
    ShardWriterSink writer(os, plan);
    for (std::size_t k = 0; k < n; ++k) writer.on_sample(plan.coord(k), samples[k]);
    shard = std::move(os).str();
  }
  samples = {};
  std::optional<ShardFile> file;
  {
    Trace::Scope s(trace, "experiments.shard_decode");
    std::istringstream is(shard);
    file.emplace(read_shard(is, "traced shard"));
  }
  SweepResult merged;
  {
    Trace::Scope s(trace, "experiments.merge");
    merged = merge_shards({*file});
  }
  record.check(sweep_results_identical(merged, reference),
               "the merged shard differs from run_plan");
  file.reset();

  // threads=2 run_plan with a timestamping sink.
  RunPlanOptions parallel;
  parallel.threads = 2;
  TimedSink timed(plan);
  double parallel_wall = 0.0;
  double parallel_start = 0.0;
  {
    Trace::Scope s(trace, "parallel_threads2");
    parallel_start = now_s();
    run_plan(plan, timed, parallel);
    parallel_wall = now_s() - parallel_start;
  }
  record.check(sweep_results_identical(timed.take(), reference),
               "the threads=2 pass differs from run_plan");

  const double shard_s = trace.busy("experiments.shard_encode") +
                         trace.busy("experiments.shard_decode") +
                         trace.busy("experiments.merge");
  auto& v = it.values;
  const double serial = untraced + trace.busy("experiments.sink");
  v["trace.traced_wall_s"] = traced_wall;
  v["trace.untraced_wall_s"] = untraced;
  v["trace.accounted_ratio"] = 1.0 - unaccounted / traced_wall;
  v["trace.overhead_ratio"] = trace.busy("group") / untraced - 1.0;
  v["experiments.plan_s"] = trace.busy("experiments.plan");
  v["experiments.schedule_phase_s"] = trace.busy("experiments.schedule_phase");
  v["experiments.policy_s"] = trace.busy("experiments.policy");
  v["experiments.sink_s"] = trace.busy("experiments.sink");
  v["experiments.shard_encode_s"] = trace.busy("experiments.shard_encode");
  v["experiments.shard_decode_s"] = trace.busy("experiments.shard_decode");
  v["experiments.merge_s"] = trace.busy("experiments.merge");
  v["experiments.schedule_phase_share"] = v["experiments.schedule_phase_s"] / traced_wall;
  v["experiments.sink_share"] = v["experiments.sink_s"] / traced_wall;
  v["experiments.shard_share"] = shard_s / traced_wall;
  v["experiments.parallel_wall_s"] = parallel_wall;
  v["experiments.idle_share"] = 1.0 - serial / (2.0 * parallel_wall);
  v["experiments.first_item_s"] = timed.stamps().front() - parallel_start;
  if (const auto p99 = percentile(gaps_ms(timed.stamps()), 0.99)) {
    v["experiments.delivery_gap_ms.p99"] = *p99;
  }
  v["workload.generate_s"] = trace.busy("workload.generate");
  for (const CorePass& pass : kCorePasses) {
    v[std::string(pass.span) + "_s"] = trace.busy(pass.span);
  }
  add_core_latency(trace, v);
  v["platform.draw_s"] = trace.busy("platform.draw");
  v["sim.static_s"] = trace.busy("sim.static");
  v["sim.online_s"] = trace.busy("sim.online");
  v["sim.online_share"] = v["sim.online_s"] / traced_wall;

  // Socket fleet: an inproc threads=2 reference and a socket pass, with
  // getrusage deltas around each (children = the worker processes).
  double excess_wall = 0.0;
  double excess_cpu = 0.0;
  if (w.socket) {
    TimedSink inproc_sink(plan);
    const SweepBackendPtr inproc = make_sweep_backend(kInproc);
    const Usage a0 = usage();
    double inproc_wall = 0.0;
    {
      Trace::Scope s(trace, "inproc_threads2");
      const double t0 = now_s();
      inproc->run(plan, inproc_sink);
      inproc_wall = now_s() - t0;
    }
    const Usage a1 = usage();
    const SweepBackendPtr socket = make_sweep_backend(backend_spec(args, w));
    TimedSink socket_sink(plan);
    const Usage b0 = usage();
    double socket_wall = 0.0;
    double t_socket = 0.0;
    {
      Trace::Scope s(trace, "service.socket_pass");
      t_socket = now_s();
      socket->run(plan, socket_sink);
      socket_wall = now_s() - t_socket;
    }
    const Usage b1 = usage();
    record.check(sweep_to_csv(socket_sink.take()) == sweep_to_csv(inproc_sink.take()),
                 "socket CSV differs from the inproc CSV");
    const double inproc_cpu = cpu_delta(a0, a1);
    const double socket_cpu = cpu_delta(b0, b1);
    const std::vector<double> gaps = gaps_ms(socket_sink.stamps());
    v["service.inproc_wall_s"] = inproc_wall;
    v["service.socket_wall_s"] = socket_wall;
    v["service.overhead_s"] = socket_wall - inproc_wall;
    v["service.cpu_ratio"] = socket_cpu / inproc_cpu;
    v["service.worker_cpu_s"] = b1.child_cpu_s - b0.child_cpu_s;
    v["service.coordinator_cpu_s"] = b1.self_cpu_s - b0.self_cpu_s;
    v["service.first_item_s"] = socket_sink.stamps().front() - t_socket;
    v["service.delivery_gap_ms.max"] = *std::max_element(gaps.begin(), gaps.end());
    excess_wall = (socket_wall - inproc_wall) / socket_wall;
    excess_cpu = (socket_cpu - inproc_cpu) / socket_cpu;
  }
  v["service.excess_wall_share"] = excess_wall;
  v["service.excess_cpu_share"] = excess_cpu;

  it.counters = {
      {"workload.instances", static_cast<double>(n)},
      {"workload.tasks", static_cast<double>(tasks)},
      {"experiments.groups", static_cast<double>(groups.size())},
      {"core.replicas", static_cast<double>(replicas)},
      {"core.messages", static_cast<double>(messages)},
      {"platform.draws", static_cast<double>(draws)},
      {"platform.victims", static_cast<double>(victims)},
      {"sim.simulations", static_cast<double>(simulations)},
      {"sim.cache_hits", static_cast<double>(hits)},
      {"sim.online_runs", static_cast<double>(online_runs)},
      {"sim.online_moves", static_cast<double>(moves)},
      {"experiments.shard_bytes", static_cast<double>(shard.size())},
      {"sim.cache_hit_ratio",
       hits + simulations == 0
           ? 0.0
           : static_cast<double>(hits) / static_cast<double>(hits + simulations)},
      {"sim.online_success_ratio",
       online_runs == 0 ? 0.0 : successes / static_cast<double>(online_runs)},
  };
  record.items(n);
  return it;
}

}  // namespace

void run_sweep_workload(const Args& args, Record& record) {
  const SweepWorkload w = sweep_workload(args.workload);
  const Inputs inputs = select_inputs(args, w, record);
  if (!args.trace) {
    measure_end_to_end(args, w, inputs, record);
    return;
  }
  std::vector<Iteration> iterations;
  const double start = now_s();
  do {
    iterations.push_back(traced_iteration(args, w, inputs, record));
  } while (now_s() - start < args.seconds);
  report_iterations(args, iterations, record);
}

}  // namespace bench
