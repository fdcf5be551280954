#include "ftsched/experiments/backend.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <unistd.h>

#include "ftsched/experiments/config.hpp"
#include "ftsched/service/coordinator.hpp"
#include "ftsched/util/cli.hpp"
#include "ftsched/util/parallel.hpp"
#include "ftsched/util/subprocess.hpp"

namespace ftsched {

namespace {

std::string join_semicolons(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ';';
    out += items[i];
  }
  return out;
}

/// Splits a ';'-separated list (specs already use ',' and ':').  Items are
/// whitespace-trimmed and empty items are skipped, so "a; b;" means {a, b}.
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

// ------------------------------------------------------------------ inproc

class InprocBackend final : public SweepBackend {
 public:
  explicit InprocBackend(std::optional<std::size_t> threads)
      : threads_(threads) {}

  [[nodiscard]] std::string describe() const override {
    return "in-process ParallelExecutor (threads=" +
           (threads_ ? std::to_string(*threads_) : std::string("config")) +
           ")";
  }

  void run(const SweepPlan& plan, SweepSink& sink,
           const RunPlanOptions& options) const override {
    RunPlanOptions o = options;
    if (threads_) o.threads = threads_;
    run_plan(plan, sink, o);
  }

 private:
  std::optional<std::size_t> threads_;  ///< unset = plan.config().threads
};

// ------------------------------------------------------------------ socket

/// Folds a dead worker's stderr tail (util/subprocess.hpp) into a failure
/// cause.
std::string with_child_stderr(std::string cause,
                              const std::filesystem::path& err_file) {
  const std::string err = stderr_tail(err_file.string());
  if (!err.empty()) cause += "\n  child stderr: " + err;
  return cause;
}

/// Scratch directory for one backend run, removed on scope exit.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& base) {
    static std::atomic<std::uint64_t> counter{0};
    const std::filesystem::path root =
        base.empty() ? std::filesystem::temp_directory_path()
                     : std::filesystem::path(base);
    path = root / ("ftsched_backend_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);  // best effort
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// The coordinator-service backend: runs the Coordinator in-process and
/// spawns local `ftsched_cli worker --connect` children that lease slices
/// over the socket protocol.  Worker deaths are tolerated while at least
/// one worker lives (the coordinator re-queues their leases); only a fully
/// dead fleet fails the run, with the last death and disconnect causes in
/// the error.  With manifest=<dir>, completed units are journaled and a
/// re-run resumes from them.
class SocketBackend final : public SweepBackend {
 public:
  SocketBackend(std::uint16_t port, std::size_t workers, std::size_t lease,
                double timeout, std::string manifest, std::string bin,
                std::string dir)
      : port_(port),
        workers_(workers),
        lease_(lease),
        timeout_(timeout),
        manifest_(std::move(manifest)),
        bin_(std::move(bin)),
        dir_(std::move(dir)) {}

  [[nodiscard]] std::string describe() const override {
    return "sweep-coordinator service with local socket workers (workers=" +
           (workers_ == 0 ? std::string("hw") : std::to_string(workers_)) +
           ", lease=" +
           (lease_ == 0 ? std::string("auto") : std::to_string(lease_)) +
           ", timeout=" + std::to_string(timeout_) + "s" +
           (manifest_.empty() ? std::string()
                              : ", manifest=" + manifest_) +
           ")";
  }

  void run(const SweepPlan& plan, SweepSink& sink,
           const RunPlanOptions& options) const override;

 private:
  std::uint16_t port_;    ///< 0 = kernel-chosen
  std::size_t workers_;   ///< 0 = hardware concurrency
  std::size_t lease_;     ///< coords per lease (0 = auto)
  double timeout_;        ///< lease-expiry seconds
  std::string manifest_;  ///< manifest dir ("" = no resume)
  std::string bin_;       ///< ftsched_cli binary (never empty)
  std::string dir_;       ///< scratch root for worker logs ("" = temp)
};

void SocketBackend::run(const SweepPlan& plan, SweepSink& sink,
                        const RunPlanOptions& /*options*/) const {
  const std::size_t n = plan.size();
  if (n == 0) return;

  CoordinatorOptions copts;
  copts.port = port_;
  copts.lease = lease_;
  copts.timeout = timeout_;
  copts.manifest_dir = manifest_;
  Coordinator coordinator(plan, sink, copts);
  if (coordinator.finished()) return;  // fully served from the manifest

  const std::size_t fleet = std::min(
      n, workers_ == 0 ? ParallelExecutor::resolve_thread_count(0) : workers_);
  const TempDir tmp(dir_);

  struct WorkerChild {
    ChildProcess proc;
    std::filesystem::path err_file;
    std::optional<ChildOutcome> outcome;
  };
  std::vector<WorkerChild> children;
  children.reserve(fleet);

  try {
    for (std::size_t i = 0; i < fleet; ++i) {
      const std::string base = "worker" + std::to_string(i);
      std::vector<std::string> argv{
          bin_,
          "worker",
          "--connect",
          "127.0.0.1:" + std::to_string(coordinator.port()),
          "--name",
          base,
      };
      WorkerChild child{
          ChildProcess::spawn(argv, (tmp.path / (base + ".log")).string(),
                              (tmp.path / (base + ".err")).string()),
          tmp.path / (base + ".err"), std::nullopt};
      children.push_back(std::move(child));
    }

    std::string last_death;
    const auto reap = [&]() {
      std::size_t alive = 0;
      for (std::size_t i = 0; i < children.size(); ++i) {
        WorkerChild& child = children[i];
        if (child.outcome) continue;
        child.outcome = child.proc.try_wait();
        if (!child.outcome) {
          ++alive;
        } else if (!child.outcome->success()) {
          last_death = with_child_stderr(
              "worker " + std::to_string(i) + " " + child.outcome->describe(),
              child.err_file);
        }
      }
      return alive;
    };

    while (!coordinator.finished()) {
      coordinator.poll(100);
      if (reap() == 0 && !coordinator.finished()) {
        // Final frames may still be buffered; one non-blocking turn drains
        // them before concluding the fleet died short of the goal.
        coordinator.poll(0);
        if (coordinator.finished()) break;
        std::string cause = "all socket workers died before the sweep "
                            "completed";
        if (!last_death.empty()) cause += "\n  last death: " + last_death;
        if (!coordinator.last_disconnect_cause().empty()) {
          cause += "\n  last disconnect: " + coordinator.last_disconnect_cause();
        }
        throw SweepBackendError("socket", plan.shard_label(), cause);
      }
    }
    // Wind-down: keep answering residual lease requests with bye until the
    // fleet has exited (workers that died mid-sweep were tolerated — their
    // leases were re-run — so only the samples matter by now, and those
    // are all delivered).
    while (reap() > 0) coordinator.poll(50);
  } catch (...) {
    for (WorkerChild& child : children) {
      if (!child.outcome && child.proc.running()) child.proc.kill(SIGKILL);
    }
    for (WorkerChild& child : children) {
      if (!child.outcome && child.proc.running()) (void)child.proc.wait();
    }
    throw;
  }
}

// ------------------------------------------------------------------ registry

std::optional<std::size_t> optional_size(const SpecOptions& options,
                                         const char* key) {
  if (!options.has(key)) return std::nullopt;
  return static_cast<std::size_t>(
      spec_detail::parse_u64(key, options.get(key)));
}

SweepBackendRegistry build_registry() {
  SweepBackendRegistry registry;

  registry.add({
      "inproc",
      "in-process ParallelExecutor threads (the default engine)",
      {{"threads", "config",
        "worker threads (0 = hardware concurrency; default: the plan's "
        "configured thread count)"}},
      [](const SpecOptions& options) -> SweepBackendPtr {
        return std::make_unique<InprocBackend>(
            optional_size(options, "threads"));
      },
  });

  registry.add({
      "socket",
      "sweep-coordinator service: leases grid slices to 'ftsched_cli "
      "worker' processes over a loopback socket, with lease expiry, work "
      "stealing and (with manifest=) resumable sweeps",
      {{"port", "0", "listening port on 127.0.0.1 (0 = kernel-chosen)"},
       {"workers", "0", "local worker processes (0 = hardware concurrency)"},
       {"lease", "0",
        "minimum coordinates per lease, rounded up to whole schedule-reuse "
        "groups (0 = auto: selection/32, clamped to [1, 64])"},
       {"timeout", "30",
        "seconds of worker silence before a lease expires and re-queues"},
       {"manifest", "",
        "manifest directory for resumable sweeps (empty = no journaling)"},
       {"bin", "",
        "ftsched_cli binary to exec (default: the running CLI itself, or "
        "$FTSCHED_CLI for library embedders)"},
       {"dir", "", "scratch directory for worker logs (default: $TMPDIR)"}},
      [](const SpecOptions& options) -> SweepBackendPtr {
        std::string bin = options.get("bin", "");
        if (bin.empty()) {
          const char* env = std::getenv("FTSCHED_CLI");
          if (env != nullptr) bin = env;
        }
        FTSCHED_REQUIRE(
            !bin.empty(),
            "socket backend needs bin=<path to ftsched_cli> (or "
            "FTSCHED_CLI in the environment) when not run from the CLI");
        return std::make_unique<SocketBackend>(
            static_cast<std::uint16_t>(
                spec_detail::parse_u64("port", options.get("port", "0"))),
            options.get_size("workers", 0), options.get_size("lease", 0),
            spec_detail::parse_double("timeout", options.get("timeout", "30")),
            options.get("manifest", ""), std::move(bin),
            options.get("dir", ""));
      },
  });

  return registry;
}

}  // namespace

const SweepBackendRegistry& SweepBackendRegistry::global() {
  static const SweepBackendRegistry registry = build_registry();
  return registry;
}

SweepBackendPtr make_sweep_backend(
    const std::string& spec,
    const std::vector<std::pair<std::string, std::string>>& defaults) {
  return SweepBackendRegistry::global().create_with_defaults(spec, defaults);
}

std::vector<std::string> sweep_cli_args(const FigureConfig& config) {
  std::vector<std::string> args;
  const auto flag = [&args](const char* name, std::string value) {
    args.emplace_back(name);
    args.push_back(std::move(value));
  };
  flag("--figure", std::to_string(config.figure));
  flag("--graphs", std::to_string(config.graphs_per_point));
  flag("--seed", std::to_string(config.seed));
  // The CLI treats 0 as "keep the figure default" for these two, so 0 is
  // simply not rendered (no real grid uses epsilon or procs of 0).
  if (config.epsilon != 0) flag("--epsilon", std::to_string(config.epsilon));
  if (config.proc_count != 0) {
    flag("--procs", std::to_string(config.proc_count));
  }
  if (!config.granularities.empty()) {
    std::string grans;
    for (std::size_t i = 0; i < config.granularities.size(); ++i) {
      if (i) grans += ';';
      grans += spec_detail::render_double(config.granularities[i]);
    }
    flag("--granularities", grans);
  }
  if (!config.workloads.empty()) {
    flag("--workload", join_semicolons(config.workloads));
  }
  if (!config.scenarios.empty()) {
    flag("--scenario", join_semicolons(config.scenarios));
  }
  if (!config.failure_models.empty()) {
    flag("--failures", join_semicolons(config.failure_models));
  }
  if (!config.policies.empty()) {
    flag("--policy", join_semicolons(config.policies));
  }
  return args;
}

void add_sweep_grid_options(CliParser& cli) {
  cli.add_option("figure", "1", "base config: paper figure 1..4");
  cli.add_option("workload", "",
                 "';'-separated WorkloadRegistry specs (empty = the paper "
                 "§6 generator)");
  cli.add_option("scenario", "",
                 "';'-separated crash-law specs (empty = t0)");
  cli.add_option("failures", "",
                 "';'-separated failure-model specs (empty = eps; see "
                 "list-failure-laws)");
  cli.add_option("policy", "",
                 "';'-separated rescheduling-policy specs (empty = none; "
                 "see list-policies)");
  cli.add_option("granularities", "",
                 "';'-separated granularity values (empty = the 0.2..2.0 "
                 "paper grid)");
  cli.add_option("graphs", "8", "instances per (cell, granularity) point");
  cli.add_option("epsilon", "0", "failures tolerated (0 = figure default)");
  cli.add_option("procs", "0", "processors (0 = figure default)");
  cli.add_option("threads", "0", "worker threads (0 = hardware concurrency)");
  cli.add_option("seed", "42", "root seed");
  cli.add_option("shard", "",
                 "run only shard i/N of the grid, e.g. 0/3; chains nest "
                 "shards, e.g. 0/3,1/2 = half of shard 0/3 (empty = full "
                 "grid)");
  cli.add_option("backend", "inproc",
                 "execution backend spec, e.g. inproc or "
                 "socket:workers=3 (see list-backends)");
}

FigureConfig sweep_config_from_cli(const CliParser& cli) {
  FigureConfig config = figure_config(static_cast<int>(cli.get_int("figure")));
  config.graphs_per_point = cli.get_count("graphs");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.threads = cli.get_count("threads");
  if (cli.get_count("epsilon") != 0) {
    config.epsilon = cli.get_count("epsilon");
  }
  if (cli.get_count("procs") != 0) {
    config.proc_count = cli.get_count("procs");
    config.workload.proc_count = config.proc_count;
  }
  // Lowering epsilon below a figure's extra crash counts would trip the
  // runner's k <= epsilon requirement; keep only the counts still tolerated.
  std::erase_if(config.extra_crash_counts,
                [&](std::size_t k) { return k > config.epsilon; });
  config.workloads = split_list(cli.get("workload"));
  config.scenarios = split_list(cli.get("scenario"));
  config.failure_models = split_list(cli.get("failures"));
  config.policies = split_list(cli.get("policy"));
  const std::vector<std::string> grans = split_list(cli.get("granularities"));
  if (!grans.empty()) {
    config.granularities.clear();
    for (const std::string& g : grans) {
      config.granularities.push_back(
          spec_detail::parse_double("granularities", g));
    }
  }
  return config;
}

FigureConfig sweep_config_from_args(const std::vector<std::string>& args) {
  CliParser cli("sweep grid flags");
  add_sweep_grid_options(cli);
  std::vector<const char*> argv{"plan-args"};
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(a.c_str());
  FTSCHED_REQUIRE(cli.parse(static_cast<int>(argv.size()), argv.data()),
                  "sweep grid flag vector asked for --help");
  return sweep_config_from_cli(cli);
}

SweepPlan apply_shard_chain(SweepPlan plan, const std::string& chain) {
  if (chain.empty() || chain == "full") return plan;
  std::istringstream ss(chain);
  std::string step;
  while (std::getline(ss, step, ',')) {
    const auto slash = step.find('/');
    FTSCHED_REQUIRE(slash != std::string::npos && slash > 0 &&
                        slash + 1 < step.size(),
                    "--shard expects i/N steps, e.g. 0/3 or 0/3,1/2; got '" +
                        chain + "'");
    plan = plan.shard(spec_detail::parse_u64("shard", step.substr(0, slash)),
                      spec_detail::parse_u64("shard", step.substr(slash + 1)));
  }
  return plan;
}

}  // namespace ftsched
