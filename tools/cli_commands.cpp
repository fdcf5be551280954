#include "cli_commands.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "ftsched/core/bicriteria.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/core/robustness.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/core/schedule_io.hpp"
#include "ftsched/dag/analysis.hpp"
#include "ftsched/dag/dot.hpp"
#include "ftsched/dag/serialize.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/service/coordinator.hpp"
#include "ftsched/service/worker.hpp"
#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/subprocess.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "ftsched/workload/workload_registry.hpp"

namespace ftsched::cli {

namespace {

TaskGraph generate_family(const std::string& family, std::size_t tasks,
                          Rng& rng) {
  if (family == "layered") {
    LayeredDagParams params;
    params.task_count = tasks;
    return make_layered_dag(rng, params);
  }
  if (family == "gnp") {
    GnpDagParams params;
    params.task_count = tasks;
    return make_gnp_dag(rng, params);
  }
  if (family == "chain") return make_chain(tasks);
  if (family == "forkjoin") return make_fork_join(tasks);
  if (family == "intree") return make_in_tree(tasks);
  if (family == "outtree") return make_out_tree(tasks);
  if (family == "fft") return make_fft(tasks);
  if (family == "gauss") return make_gaussian_elimination(tasks);
  if (family == "wavefront") return make_wavefront(tasks, tasks);
  if (family == "sp") return make_series_parallel(rng, tasks);
  if (family == "cholesky") return make_cholesky(tasks);
  if (family == "lu") return make_lu(tasks);
  throw InvalidArgument("unknown graph family: " + family);
}

TaskGraph load_graph(const std::string& path) {
  std::ifstream in(path);
  FTSCHED_REQUIRE(in.good(), "cannot open graph file: " + path);
  return read_graph(in);
}

/// Builds a workload (platform + costs) from either --workload (a
/// WorkloadRegistry spec) or --graph (a graph file) using CLI options.
std::unique_ptr<Workload> load_workload(const CliParser& cli) {
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto procs = cli.get_count("procs");
  const double granularity = cli.get_double("granularity");
  const std::string spec = cli.get("workload");
  if (!spec.empty()) {
    FTSCHED_REQUIRE(cli.get("graph").empty(),
                    "--graph and --workload are mutually exclusive");
    const SweepPoint point{granularity, procs};
    return make_workload_family(spec)->generate(rng, point);
  }
  PaperWorkloadParams params;
  params.proc_count = procs;
  params.granularity = granularity;
  return make_workload_for_graph(rng, load_graph(cli.get("graph")), params);
}

constexpr const char* kWorkloadHelp =
    "WorkloadRegistry spec instead of --graph, e.g. paper or fft:size=16 "
    "(see list-workloads)";

/// Splits a ';'-separated list (specs already use ',' and ':').  Items are
/// whitespace-trimmed and empty items are skipped, so "a; b;" means {a, b}
/// — a stray space after a ';' must not turn into a filename " b".
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ';')) {
    const auto begin = item.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const auto end = item.find_last_not_of(" \t");
    out.push_back(item.substr(begin, end - begin + 1));
  }
  return out;
}

/// Resolves --algo through the SchedulerRegistry.  `algo` is a full
/// registry spec ("ftsa", "mc-ftsa:selector=matching,enforce=0", ...); the
/// --epsilon and --seed flags fill any eps/seed options the spec leaves
/// unset, for algorithms that take them.
ReplicatedSchedule run_algorithm(const std::string& algo,
                                 const CostModel& costs, std::size_t epsilon,
                                 std::uint64_t seed) {
  return make_scheduler(algo, {{"eps", std::to_string(epsilon)},
                               {"seed", std::to_string(seed)}})
      ->run(costs);
}

constexpr const char* kAlgoHelp =
    "registry spec, e.g. ftsa or mc-ftsa:selector=matching (see list-algos)";

/// Parses "0@0,3@12.5" into a failure scenario (proc@time pairs).
///
/// Strict: stoul-style parsing would read "3x@1" as processor 3 with the
/// "x" silently dropped, and wrap "-1" to a huge id before the narrowing
/// cast; parse_u64/parse_double reject trailing junk and signs loudly.
FailureScenario parse_crashes(const std::string& spec) {
  FailureScenario scenario;
  if (spec.empty()) return scenario;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto at = item.find('@');
    const std::string proc_part =
        at == std::string::npos ? item : item.substr(0, at);
    const std::string time_part =
        at == std::string::npos ? "0" : item.substr(at + 1);
    try {
      const std::uint64_t proc = spec_detail::parse_u64("proc", proc_part);
      FTSCHED_REQUIRE(proc < ProcId::kInvalid,
                      "processor id out of range: " + proc_part);
      const double time = spec_detail::parse_double("time", time_part);
      scenario.add(ProcId{static_cast<std::size_t>(proc)}, time);
    } catch (const InvalidArgument& e) {
      throw InvalidArgument("malformed crash spec item '" + item +
                            "' (expected proc@time): " + e.what());
    }
  }
  return scenario;
}

/// Flush + close an output file and fail loudly if *anything* went wrong.
/// Checking only at open time misses ENOSPC/EIO that strikes mid-write:
/// the stream would swallow the error and the CLI would exit 0 leaving a
/// silently truncated file.
void finish_output_file(std::ofstream& file, const std::string& path) {
  file.flush();
  FTSCHED_REQUIRE(file.good(),
                  "writing output file failed (disk full?): " + path);
  file.close();
  FTSCHED_REQUIRE(file.good(), "closing output file failed: " + path);
}

void write_or_print(const std::string& path, const std::string& content,
                    std::ostream& out) {
  if (path.empty()) {
    out << content;
  } else {
    std::ofstream file(path);
    FTSCHED_REQUIRE(file.good(), "cannot open output file: " + path);
    file << content;
    finish_output_file(file, path);
  }
}

// ----------------------------------------------------------------- commands

int cmd_generate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli("ftsched_cli generate: emit a task graph in text format");
  cli.add_option("family", "layered",
                 "layered|gnp|chain|forkjoin|intree|outtree|fft|gauss|"
                 "wavefront|sp|cholesky|lu");
  cli.add_option("tasks", "100", "task count / family size parameter");
  cli.add_option("seed", "1", "random seed (random families)");
  cli.add_option("out", "", "output file (stdout when empty)");
  cli.add_flag("dot", "emit Graphviz DOT instead of the text format");
  std::vector<const char*> argv{"generate"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const TaskGraph g = generate_family(
      cli.get("family"), cli.get_count("tasks"), rng);
  write_or_print(cli.get("out"),
                 cli.get_flag("dot") ? to_dot(g) : graph_to_string(g), out);
  return 0;
}

int cmd_info(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli("ftsched_cli info: structural statistics of a graph file");
  cli.add_option("graph", "", "graph file (text format)");
  std::vector<const char*> argv{"info"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const TaskGraph g = load_graph(cli.get("graph"));
  out << "name:            " << g.name() << '\n';
  out << "tasks:           " << g.task_count() << '\n';
  out << "edges:           " << g.edge_count() << '\n';
  out << "entry tasks:     " << g.entry_tasks().size() << '\n';
  out << "exit tasks:      " << g.exit_tasks().size() << '\n';
  out << "depth (hops):    " << critical_path_hops(g) << '\n';
  out << "layer width:     " << layer_width(g) << '\n';
  if (g.task_count() <= 2000) {
    out << "exact width:     " << exact_width(g) << '\n';
  }
  out << "total volume:    " << g.total_volume() << '\n';
  return 0;
}

int cmd_schedule(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli("ftsched_cli schedule: schedule a graph file or workload");
  cli.add_option("graph", "", "graph file (text format)");
  cli.add_option("workload", "", kWorkloadHelp);
  cli.add_option("algo", "ftsa", kAlgoHelp);
  cli.add_option("epsilon", "1", "failures to tolerate");
  cli.add_option("procs", "8", "processors in the generated platform");
  cli.add_option("granularity", "1.0", "target granularity g(G,P)");
  cli.add_option("seed", "1", "platform/cost/tie-break seed");
  cli.add_option("out", "", "write the schedule (text format) to this file");
  cli.add_flag("gantt", "print an ASCII Gantt chart");
  cli.add_flag("json", "print the schedule as JSON");
  std::vector<const char*> argv{"schedule"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const auto workload = load_workload(cli);
  const auto epsilon = cli.get_count("epsilon");
  const ReplicatedSchedule s =
      run_algorithm(cli.get("algo"), workload->costs(), epsilon,
                    static_cast<std::uint64_t>(cli.get_int("seed")));
  s.validate();
  out << "algorithm:            " << s.algorithm() << '\n';
  out << "epsilon:              " << s.epsilon() << '\n';
  out << "lower bound M*:       " << s.lower_bound() << '\n';
  out << "upper bound M:        " << s.upper_bound() << '\n';
  out << "interproc messages:   " << s.interproc_message_count() << '\n';
  out << "repaired tasks:       " << s.repaired_tasks().size() << '\n';
  const UtilizationStats u = utilization(s);
  out << "mean utilization:     " << format_double(u.mean, 3) << '\n';
  if (cli.get_flag("gantt")) out << '\n' << schedule_gantt(s);
  if (cli.get_flag("json")) out << '\n' << schedule_to_json(s);
  if (!cli.get("out").empty()) {
    write_or_print(cli.get("out"), schedule_to_string(s), out);
  }
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli("ftsched_cli simulate: execute a schedule under crashes");
  cli.add_option("graph", "", "graph file (text format)");
  cli.add_option("workload", "", kWorkloadHelp);
  cli.add_option("algo", "ftsa", kAlgoHelp);
  cli.add_option("epsilon", "1", "failures to tolerate");
  cli.add_option("procs", "8", "processors in the generated platform");
  cli.add_option("granularity", "1.0", "target granularity g(G,P)");
  cli.add_option("seed", "1", "platform/cost/tie-break seed");
  cli.add_option("crashes", "", "crash spec, e.g. \"0@0,3@12.5\"");
  cli.add_option("failures", "",
                 "draw the crash scenario from a FailureModel spec instead "
                 "of --crashes, e.g. bernoulli:p=0.2 or repair:p=0.2,mttr=0.5 "
                 "(drawn like a t0 sweep cell: victims crash at t=0, burst "
                 "offsets and repair delays scale with the schedule's lower "
                 "bound; see list-failure-laws)");
  cli.add_option("comm", "free", "free|oneport|multiport communication model");
  cli.add_option("ports", "2", "ports for the multiport model");
  cli.add_flag("gantt", "print the execution Gantt chart");
  cli.add_flag("json", "print schedule + execution as JSON");
  std::vector<const char*> argv{"simulate"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const auto workload = load_workload(cli);
  const auto epsilon = cli.get_count("epsilon");
  const ReplicatedSchedule s =
      run_algorithm(cli.get("algo"), workload->costs(), epsilon,
                    static_cast<std::uint64_t>(cli.get_int("seed")));
  FailureScenario scenario;
  if (!cli.get("failures").empty()) {
    FTSCHED_REQUIRE(cli.get("crashes").empty(),
                    "--crashes and --failures are mutually exclusive");
    const FailureModel model = FailureModel::parse(cli.get("failures"));
    const std::size_t m = workload->platform().proc_count();
    model.validate(m);
    // A derived stream so the draw is independent of the generator draws
    // the workload consumed from the same seed.
    Rng rng = Rng(static_cast<std::uint64_t>(cli.get_int("seed"))).derive(1);
    const CellDraw draw = draw_cell(rng, m, epsilon, CrashTimeLaw{}, model);
    scenario = draw.scenario(s.lower_bound(), draw.victims.size());
    out << "failure model:        " << model.describe() << '\n';
    out << "drawn crashes:        " << draw.victims.size() << " of " << m
        << " processors (epsilon " << epsilon << ")\n";
  } else {
    scenario = parse_crashes(cli.get("crashes"));
  }
  SimulationOptions options;
  const std::string comm = cli.get("comm");
  if (comm == "oneport") {
    options.comm.kind = CommModelKind::kOnePort;
  } else if (comm == "multiport") {
    options.comm.kind = CommModelKind::kBoundedMultiPort;
    options.comm.ports = cli.get_count("ports");
  } else {
    FTSCHED_REQUIRE(comm == "free", "unknown comm model: " + comm);
  }
  const SimulationResult r = simulate(s, scenario, options);
  out << "success:              " << (r.success ? "yes" : "NO") << '\n';
  if (r.success) {
    out << "achieved latency:     " << r.latency << '\n';
    out << "guaranteed bound M:   " << s.upper_bound() << '\n';
  }
  out << "completed replicas:   " << r.completed_replicas << '\n';
  out << "dead replicas:        " << r.dead_replicas << '\n';
  out << "cancelled replicas:   " << r.cancelled_replicas << '\n';
  out << "messages delivered:   " << r.messages_delivered << '\n';
  if (cli.get_flag("gantt")) out << '\n' << execution_gantt(s, r);
  if (cli.get_flag("json")) out << '\n' << schedule_to_json(s, &r);
  return r.success ? 0 : 2;
}

int cmd_list_algos(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli list-algos: scheduling algorithms registered in the "
      "SchedulerRegistry, with their option keys");
  std::vector<const char*> argv{"list-algos"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const SchedulerRegistry& registry = SchedulerRegistry::global();
  for (const std::string& name : registry.names()) {
    const SchedulerRegistry::Entry& entry = registry.entry(name);
    out << name << "\n    " << entry.summary << '\n';
    for (const SchedulerRegistry::OptionSpec& option : entry.options) {
      out << "    " << option.key << "=" << option.default_value << "  "
          << option.help << '\n';
    }
  }
  out << "\nspec syntax: name[:key=value[,key=value...]], e.g. "
         "\"ftsa:eps=2,prio=bl\"\n";
  return 0;
}

int cmd_list_workloads(const std::vector<std::string>& args,
                       std::ostream& out) {
  CliParser cli(
      "ftsched_cli list-workloads: workload families registered in the "
      "WorkloadRegistry, with their option keys");
  std::vector<const char*> argv{"list-workloads"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const WorkloadRegistry& registry = WorkloadRegistry::global();
  for (const std::string& name : registry.names()) {
    const WorkloadRegistry::Entry& entry = registry.entry(name);
    out << name << "\n    " << entry.summary << '\n';
    for (const SpecOptionSpec& option : entry.options) {
      out << "    " << option.key << "=" << option.default_value << "  "
          << option.help << '\n';
    }
  }
  out << "\nspec syntax: family[:key=value[,key=value...]], e.g. "
         "\"paper:tmin=100,tmax=150\" or \"fft:size=16\"\n"
         "crash laws (sweep --scenario): t0 | frac:f=F | uniform:hi=H | "
         "exp:mean=M\n";
  return 0;
}

int cmd_list_failure_laws(const std::vector<std::string>& args,
                          std::ostream& out) {
  CliParser cli(
      "ftsched_cli list-failure-laws: failure-model laws (--failures) and "
      "crash-time laws (--scenario) of the sweep engine");
  std::vector<const char*> argv{"list-failure-laws"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  out << "failure models (sweep/simulate --failures): count law x victim "
         "law\n";
  for (const std::string& name : FailureModel::known()) {
    // Describe each law at its defaults.
    out << "  " << name << "\n      "
        << FailureModel::parse(name).describe() << '\n';
  }
  out << "  options: fixed takes k=<count>, bernoulli takes "
         "p=<probability>,\n"
         "  domain takes size=<rack width>; fixed/bernoulli accept "
         "domain=<rack\n"
         "  width> to draw correlated whole-domain victims, e.g. "
         "\"bernoulli:p=0.1,domain=4\"\n"
         "  repair takes mttr=<mean time to repair> (exponential restart "
         "delays),\n"
         "  burst takes width=<window> (time-correlated crash instants), "
         "hetero\n"
         "  takes base=<rate>,spread=<gradient> (per-processor failure "
         "rates);\n"
         "  counts above epsilon are simulated without the Theorem-4.1 "
         "guarantee;\n"
         "  sweeps then report per-cell success fractions (<algo>-Success "
         "series)\n\n";
  out << "crash-time laws (sweep --scenario): when the victims crash\n";
  for (const std::string& name : CrashTimeLaw::known()) {
    out << "  " << name << "\n      "
        << CrashTimeLaw::parse(name).describe() << '\n';
  }
  out << "  options: frac:f=F | uniform:hi=H | exp:mean=M, unit times "
         "anchored to M*\n";
  return 0;
}

int cmd_list_policies(const std::vector<std::string>& args,
                      std::ostream& out) {
  CliParser cli(
      "ftsched_cli list-policies: online rescheduling policies (--policy) "
      "of the sweep engine");
  std::vector<const char*> argv{"list-policies"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const PolicyRegistry& registry = PolicyRegistry::global();
  out << "rescheduling policies (sweep --policy): how the simulator reacts "
         "to crash/repair events\n";
  for (const std::string& name : registry.names()) {
    const PolicyRegistry::Entry& entry = registry.entry(name);
    out << "  " << name << "\n      " << entry.summary << '\n';
    for (const SpecOptionSpec& option : entry.options) {
      out << "      " << option.key << "=" << option.default_value << "  "
          << option.help << '\n';
    }
  }
  out << "  `none` replays the static schedule byte-identically; reactive "
         "policies remap\n"
         "  not-yet-started replicas onto survivors, pairing each cell's "
         "draws with the\n"
         "  static run (combine with --failures \"repair:...\" for "
         "restart dynamics)\n";
  return 0;
}

// The sweep-grid option set, its FigureConfig translation and the --shard
// chain applicator live in experiments/backend.hpp (socket workers rebuild
// their plan from the same flags); the CLI only adds the backend
// resolution, which injects its own binary as the socket backend's default
// `bin` so `--backend socket` just works.
SweepBackendPtr backend_from_cli(const CliParser& cli) {
  return make_sweep_backend(cli.get("backend"),
                            {{"bin", self_executable_path()}});
}

int cmd_plan(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli plan: enumerate the sweep grid (and a shard's slice of "
      "it) without running anything");
  add_sweep_grid_options(cli);
  cli.add_option("limit", "40", "coordinate rows to print (0 = all)");
  std::vector<const char*> argv{"plan"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const FigureConfig config = sweep_config_from_cli(cli);
  const SweepPlan plan =
      apply_shard_chain(SweepPlan(config), cli.get("shard"));
  const SweepBackendPtr backend = backend_from_cli(cli);
  out << "=== sweep plan (epsilon=" << config.epsilon
      << ", m=" << config.proc_count << ", graphs/point="
      << config.graphs_per_point << ", seed=" << config.seed << ") ===\n";
  out << "cells:        " << plan.workloads().size() << " workload(s) x "
      << plan.scenarios().size() << " scenario(s) x "
      << plan.failures().size() << " failure model(s) x "
      << plan.policies().size() << " polic"
      << (plan.policies().size() == 1 ? "y" : "ies") << "\n";
  out << "grid:         " << plan.grid_size() << " instances ("
      << plan.granularities().size() << " granularities x "
      << plan.repetitions() << " reps per cell)\n";
  out << "selected:     " << plan.size() << " [shard " << plan.shard_label()
      << "]\n";
  out << "backend:      " << backend->describe() << '\n';
  out << "fingerprint:  " << plan.fingerprint() << "\n\n";

  const auto limit = cli.get_count("limit");
  const std::size_t rows =
      limit == 0 ? plan.size() : std::min(plan.size(), limit);
  TextTable table({"id", "workload", "scenario", "failure", "policy",
                   "granularity", "rep"});
  for (std::size_t k = 0; k < rows; ++k) {
    const InstanceCoord c = plan.coord(k);
    table.add_row({std::to_string(c.id), plan.workloads()[c.workload],
                   plan.scenarios()[c.scenario], plan.failures()[c.failure],
                   plan.policies()[c.policy],
                   format_double(plan.granularities()[c.gran], 2),
                   std::to_string(c.rep)});
  }
  table.print(out);
  if (rows < plan.size()) {
    out << "... (" << plan.size() - rows
        << " more; rerun with --limit 0 for all)\n";
  }
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli sweep: granularity sweep over (workload family x crash "
      "scenario) cells, deterministic for any thread count; with --shard, "
      "runs one slice of the grid and emits a shard file "
      "instead of CSV (recombine with 'merge')");
  add_sweep_grid_options(cli);
  cli.add_option("out", "",
                 "write the CSV (or shard file) to this file (stdout when "
                 "empty)");
  std::vector<const char*> argv{"sweep"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const FigureConfig config = sweep_config_from_cli(cli);
  const SweepBackendPtr backend = backend_from_cli(cli);

  if (!cli.get("shard").empty()) {
    const SweepPlan plan =
        apply_shard_chain(SweepPlan(config), cli.get("shard"));
    const std::string path = cli.get("out");
    if (path.empty()) {
      // The shard alone on stdout, so it can be piped.
      ShardWriterSink sink(out, plan);
      backend->run(plan, sink);
    } else {
      std::ofstream file(path);
      FTSCHED_REQUIRE(file.good(), "cannot open output file: " + path);
      ShardWriterSink sink(file, plan);
      backend->run(plan, sink);
      finish_output_file(file, path);
      out << "=== sweep shard " << plan.shard_label() << " (" << plan.size()
          << " of " << plan.grid_size() << " instances) -> " << path
          << " ===\n";
    }
    return 0;
  }

  const SweepPlan plan(config);
  OnlineStatsSink sink(plan);
  backend->run(plan, sink);
  const SweepResult sweep = sink.take();
  out << "=== sweep (epsilon=" << config.epsilon << ", m=" << config.proc_count
      << ", graphs/point=" << config.graphs_per_point << ", seed="
      << config.seed << ", cells=" << sweep.workloads.size() << "x"
      << sweep.scenarios.size() << "x" << sweep.failures.size() << "x"
      << sweep.policies.size() << ") ===\n";
  write_or_print(cli.get("out"), sweep_to_csv(sweep), out);
  return 0;
}

int cmd_merge(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli merge: combine sweep shard files (from 'sweep --shard') "
      "covering a full partition of one plan's grid into the CSV of the "
      "unsharded run — bit-identical, any partition");
  cli.add_option("in", "", "';'-separated shard files");
  cli.add_option("out", "", "write the CSV to this file (stdout when empty)");
  std::vector<const char*> argv{"merge"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const std::vector<std::string> paths = split_list(cli.get("in"));
  FTSCHED_REQUIRE(!paths.empty(),
                  "merge needs --in \"a.jsonl;b.jsonl;...\" with at least "
                  "one non-empty path (got '" + cli.get("in") + "')");
  std::vector<ShardFile> shards;
  shards.reserve(paths.size());
  std::uint64_t covered = 0;
  for (const std::string& path : paths) {
    shards.push_back(read_shard_file(path));
    covered += shards.back().header.selected;
  }
  const SweepResult merged = merge_shards(shards);
  out << "=== merge (" << shards.size() << " shards, " << covered << " of "
      << shards.front().header.grid << " instances) ===\n";
  write_or_print(cli.get("out"), sweep_to_csv(merged), out);
  return 0;
}

int cmd_list_backends(const std::vector<std::string>& args,
                      std::ostream& out) {
  CliParser cli(
      "ftsched_cli list-backends: sweep execution backends (sweep/plan "
      "--backend) and their option keys");
  std::vector<const char*> argv{"list-backends"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const SweepBackendRegistry& registry = SweepBackendRegistry::global();
  for (const std::string& name : registry.names()) {
    const SweepBackendRegistry::Entry& entry = registry.entry(name);
    out << name << "\n    " << entry.summary << '\n';
    for (const SpecOptionSpec& option : entry.options) {
      out << "    " << option.key << "=" << option.default_value << "  "
          << option.help << '\n';
    }
  }
  out << "\nspec syntax: name[:key=value[,key=value...]], e.g. "
         "\"inproc:threads=4\" or\n"
         "\"socket:workers=3,manifest=/tmp/sweep-cache\"\n"
         "every backend delivers bit-identical samples in the same order, "
         "so CSV and\nshard output never depend on the backend "
         "choice; the socket backend is\nthe coordinator service "
         "(lease expiry, work stealing, resumable manifests) run\n"
         "in-process — 'serve' and 'worker' expose the same service as "
         "long-running\ncommands; without a coordinator, 'sweep --shard' "
         "+ 'merge' split a grid\nacross machines\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli serve: run the sweep coordinator — lease the grid to "
      "socket workers (local threads and/or external 'worker --connect' "
      "processes), tolerate worker deaths via lease expiry and work "
      "stealing, and emit the same CSV as an in-process sweep; with "
      "--manifest-dir, completed units are journaled so a killed serve "
      "re-runs only the missing cells");
  add_sweep_grid_options(cli);
  cli.add_option("port", "0", "listening port on 127.0.0.1 (0 = ephemeral)");
  cli.add_option("workers", "1",
                 "in-process worker threads serving this coordinator (0 = "
                 "wait for external workers only)");
  cli.add_option("lease", "0",
                 "minimum coordinates per lease, rounded up to whole "
                 "(workload, granularity, rep) groups (0 = auto)");
  cli.add_option("timeout", "30",
                 "seconds of worker silence before a lease expires");
  cli.add_option("manifest-dir", "",
                 "journal completed units here for resumable sweeps");
  cli.add_option("out", "", "write the CSV to this file (stdout when empty)");
  std::vector<const char*> argv{"serve"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const FigureConfig config = sweep_config_from_cli(cli);
  const SweepPlan plan =
      apply_shard_chain(SweepPlan(config), cli.get("shard"));
  CoordinatorOptions copts;
  copts.port = static_cast<std::uint16_t>(cli.get_count("port", 65535));
  copts.lease = cli.get_count("lease");
  copts.timeout = cli.get_double("timeout");
  copts.manifest_dir = cli.get("manifest-dir");

  OnlineStatsSink sink(plan);
  Coordinator coordinator(plan, sink, copts);
  // Flushed immediately: scripts (and the CI) wait for this line to learn
  // the ephemeral port before pointing workers at the coordinator.
  out << "=== serve: listening on 127.0.0.1:" << coordinator.port()
      << " (" << plan.size() << " of " << plan.grid_size()
      << " instances, shard " << plan.shard_label() << ") ===" << std::endl;

  const auto local = cli.get_count("workers");
  std::atomic<std::size_t> running{0};
  std::vector<std::thread> threads;
  threads.reserve(local);
  for (std::size_t i = 0; i < local; ++i) {
    running.fetch_add(1);
    threads.emplace_back([&, i] {
      WorkerOptions w;
      w.port = coordinator.port();
      w.name = "local" + std::to_string(i);
      try {
        (void)run_worker(w);
      } catch (const Error&) {
        // A dead local worker is the coordinator's problem (lease expiry
        // / requeue), not a serve failure; external workers may finish.
      }
      running.fetch_sub(1);
    });
  }

  coordinator.run();
  // Wind-down: keep answering parked workers' lease requests with bye
  // until the local threads have exited and every external worker has
  // taken its bye and hung up (bounded — a wedged worker that neither
  // requests nor disconnects must not pin the coordinator open).
  int grace = 200;
  while (running.load() != 0 ||
         (coordinator.connections() != 0 && grace-- > 0))
    coordinator.poll(50);
  for (std::thread& t : threads) t.join();

  const CoordinatorStats& stats = coordinator.stats();
  out << "=== serve: done (workers " << stats.workers_joined << ", leases "
      << stats.leases_granted << ", stolen " << stats.leases_stolen
      << ", expired " << stats.leases_expired << ", resumed "
      << stats.coords_resumed << " coords) ===\n";
  write_or_print(cli.get("out"), sweep_to_csv(sink.take()), out);
  return 0;
}

int cmd_worker(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli worker: join a sweep coordinator ('serve' or the socket "
      "backend), rebuild its plan from the received flags and evaluate "
      "leased coordinates until told bye");
  cli.add_option("connect", "",
                 "coordinator address, host:port (e.g. 127.0.0.1:7000)");
  cli.add_option("name", "worker", "worker name for diagnostics");
  cli.add_option("max-leases", "0",
                 "fault injection: drop the connection after completing "
                 "this many leases (0 = work until bye)");
  cli.add_option("kill-after-leases", "0",
                 "fault injection: SIGKILL this process upon receiving the "
                 "n-th lease (0 = never)");
  cli.add_option("delay-ms", "0",
                 "fault injection: sleep before sending each sample "
                 "(straggler mode)");
  std::vector<const char*> argv{"worker"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const std::string target = cli.get("connect");
  const auto colon = target.rfind(':');
  FTSCHED_REQUIRE(colon != std::string::npos && colon > 0 &&
                      colon + 1 < target.size(),
                  "--connect expects host:port, e.g. 127.0.0.1:7000; got '" +
                      target + "'");
  WorkerOptions w;
  w.host = target.substr(0, colon);
  const std::uint64_t port =
      spec_detail::parse_u64("port", target.substr(colon + 1));
  FTSCHED_REQUIRE(port <= 65535, "--connect port out of range: " +
                                     target.substr(colon + 1) +
                                     " (at most 65535)");
  w.port = static_cast<std::uint16_t>(port);
  w.name = cli.get("name");
  w.max_leases = cli.get_count("max-leases");
  w.kill_after_leases = cli.get_count("kill-after-leases");
  w.sample_delay_ms = cli.get_count("delay-ms");

  const WorkerReport report = run_worker(w);
  out << "worker " << w.name << ": " << report.leases_completed
      << " lease(s), " << report.samples_sent << " sample(s), "
      << (report.orderly ? "bye" : "early exit") << '\n';
  return 0;
}

int cmd_validate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser cli(
      "ftsched_cli validate: exhaustive fault-tolerance validation "
      "(Theorem 4.1) plus kill-set analysis");
  cli.add_option("graph", "", "graph file (text format)");
  cli.add_option("workload", "", kWorkloadHelp);
  cli.add_option("algo", "ftsa", kAlgoHelp);
  cli.add_option("epsilon", "1", "failures to tolerate");
  cli.add_option("procs", "6", "processors (validation is C(m, eps) runs)");
  cli.add_option("granularity", "1.0", "target granularity g(G,P)");
  cli.add_option("seed", "1", "platform/cost/tie-break seed");
  std::vector<const char*> argv{"validate"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const auto workload = load_workload(cli);
  const auto epsilon = cli.get_count("epsilon");
  const ReplicatedSchedule s =
      run_algorithm(cli.get("algo"), workload->costs(), epsilon,
                    static_cast<std::uint64_t>(cli.get_int("seed")));
  const RobustnessReport analysis = analyze_robustness(s);
  out << "kill-set analysis:    " << analysis.summary() << '\n';
  const ValidationReport report = validate_fault_tolerance(s);
  out << "exhaustive check:     "
      << (report.valid ? "valid" : report.failure_description) << '\n';
  out << "scenarios checked:    " << report.scenarios_checked << '\n';
  out << "worst latency:        " << report.worst_latency
      << "  (M = " << s.upper_bound() << ")\n";
  return report.valid ? 0 : 2;
}

}  // namespace

std::string usage() {
  return
      "ftsched_cli — fault-tolerant DAG scheduling toolbox\n"
      "\n"
      "usage: ftsched_cli <command> [options]   (--help per command)\n"
      "\n"
      "commands:\n"
      "  generate        emit a task graph (layered, gnp, fft, cholesky, ...)\n"
      "  info            structural statistics of a graph file\n"
      "  list-algos      registered scheduling algorithms and their options\n"
      "  list-backends   sweep execution backends (inproc, socket)\n"
      "  list-failure-laws  failure-model and crash-time laws for sweeps\n"
      "  list-policies   online rescheduling policies for sweeps\n"
      "  list-workloads  registered workload families and their options\n"
      "  plan            enumerate the sweep grid / a shard's slice of it\n"
      "  schedule        schedule a graph or workload (--algo, --workload)\n"
      "  serve           run the sweep-coordinator service (leases, work\n"
      "                  stealing, resumable manifests) over socket workers\n"
      "  simulate        execute a schedule under a crash scenario\n"
      "  sweep           (workload x scenario x failure model x policy x\n"
      "                  granularity) sweep to CSV; --shard i/N emits a\n"
      "                  shard file\n"
      "  merge           combine sweep shards into the unsharded CSV\n"
      "  validate        exhaustive Theorem-4.1 validation + kill-set "
      "analysis\n"
      "  worker          join a coordinator and evaluate leased coordinates\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    out << usage();
    return args.empty() ? 1 : 0;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "generate") return cmd_generate(rest, out);
    if (command == "info") return cmd_info(rest, out);
    if (command == "list-algos") return cmd_list_algos(rest, out);
    if (command == "list-backends") return cmd_list_backends(rest, out);
    if (command == "list-failure-laws") {
      return cmd_list_failure_laws(rest, out);
    }
    if (command == "list-policies") return cmd_list_policies(rest, out);
    if (command == "list-workloads") return cmd_list_workloads(rest, out);
    if (command == "merge") return cmd_merge(rest, out);
    if (command == "plan") return cmd_plan(rest, out);
    if (command == "schedule") return cmd_schedule(rest, out);
    if (command == "serve") return cmd_serve(rest, out);
    if (command == "simulate") return cmd_simulate(rest, out);
    if (command == "sweep") return cmd_sweep(rest, out);
    if (command == "validate") return cmd_validate(rest, out);
    if (command == "worker") return cmd_worker(rest, out);
    err << "unknown command: " << command << "\n\n" << usage();
    return 1;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace ftsched::cli
