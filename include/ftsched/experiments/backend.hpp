// Pluggable sweep execution backends.
//
// `run_plan` is the in-process engine; a `SweepBackend` decides *where*
// the plan executes while keeping the exact same contract: samples are
// delivered to the SweepSink serially in increasing-id order, and the
// delivered doubles are bit-identical whatever backend ran them.  Backends
// are selected by spec string through the same SpecRegistry seam as
// schedulers, workload families and failure models:
//
//   inproc[:threads=N]               the ParallelExecutor path (run_plan)
//   socket[:workers=K,lease=L,...]   the sweep-coordinator service
//                                    (service/coordinator.hpp) leasing
//                                    whole schedule-reuse groups to local
//                                    `ftsched_cli worker` processes
//
// The socket backend tolerates worker deaths by re-queueing their leases;
// only a fully dead fleet surfaces a SweepBackendError carrying the last
// worker's stderr and disconnect cause.  Multi-machine runs without a
// coordinator use `sweep --shard i/N` + `merge`, the same shard format
// the coordinator journals its manifests in.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

class CliParser;

/// Structured failure of a backend run: which shard died and why.  The
/// what() string carries both; the accessors keep them separable for
/// callers that want to reschedule rather than print.
class SweepBackendError : public Error {
 public:
  SweepBackendError(const std::string& backend, const std::string& shard,
                    const std::string& cause)
      : Error("sweep backend '" + backend + "': shard " + shard + ": " +
              cause),
        backend_(backend),
        shard_(shard),
        cause_(cause) {}

  [[nodiscard]] const std::string& backend() const noexcept {
    return backend_;
  }
  /// Shard chain label of the failed shard, e.g. "1/3" or "0/3,1/2".
  [[nodiscard]] const std::string& shard() const noexcept { return shard_; }
  [[nodiscard]] const std::string& cause() const noexcept { return cause_; }

 private:
  std::string backend_;
  std::string shard_;
  std::string cause_;
};

/// Where a sweep plan executes.  Implementations must deliver samples to
/// the sink exactly like run_plan does — serially, in increasing-id order,
/// bit-identical doubles — so every sink (OnlineStatsSink, ShardWriterSink)
/// works under every backend unchanged.
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;

  /// One-line human description ("in-process (threads=4)", ...).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Executes the plan's selected instances and streams the samples into
  /// `sink`.  Throws SweepBackendError when a shard cannot be completed.
  virtual void run(const SweepPlan& plan, SweepSink& sink,
                   const RunPlanOptions& options = {}) const = 0;
};

using SweepBackendPtr = std::unique_ptr<SweepBackend>;

/// Backend registry ("name:key=value" specs, like every other registry).
class SweepBackendRegistry : public SpecRegistry<SweepBackendPtr> {
 public:
  SweepBackendRegistry() : SpecRegistry<SweepBackendPtr>("sweep backend") {}

  /// The global registry with the built-in backends (inproc and socket)
  /// pre-registered.
  [[nodiscard]] static const SweepBackendRegistry& global();
};

/// Resolves a backend spec through the global registry, filling `defaults`
/// for supported keys the spec leaves unset (the CLI injects its own
/// binary path as the `bin` default this way).
[[nodiscard]] SweepBackendPtr make_sweep_backend(
    const std::string& spec,
    const std::vector<std::pair<std::string, std::string>>& defaults = {});

/// Renders the `ftsched_cli sweep` flags that rebuild `config`'s grid in a
/// child process: figure base plus every dimension the CLI can express
/// (granularities round-trip exactly via the canonical double rendition).
/// Programmatic tweaks the CLI grammar cannot carry (custom
/// PaperWorkloadParams, hand-edited extra crash counts) are *not* rendered;
/// the coordinator's fingerprint gate rejects a worker whose rebuilt grid
/// drifted, so such a plan fails loudly instead of mixing grids.
[[nodiscard]] std::vector<std::string> sweep_cli_args(
    const FigureConfig& config);

// The inverse direction — flags back to a config — lives here too (not in
// the CLI), because the service needs it too: the sweep/plan/serve
// commands declare the options, while socket workers rebuild their plan
// from the coordinator's flag vector.

/// Declares the sweep-grid options (figure, workload, scenario, failures,
/// granularities, graphs, epsilon, procs, threads, seed, shard, backend)
/// on `cli` — shared by the plan/sweep/serve commands.
void add_sweep_grid_options(CliParser& cli);

/// Builds the FigureConfig the declared sweep-grid options describe.
[[nodiscard]] FigureConfig sweep_config_from_cli(const CliParser& cli);

/// Parses a flag vector (e.g. the output of sweep_cli_args, or the
/// coordinator's plan message) back into its FigureConfig.
[[nodiscard]] FigureConfig sweep_config_from_args(
    const std::vector<std::string>& args);

/// Applies a shard chain: a comma chain of "i/N" steps applied left to
/// right ("0/3,1/2" = the second half of shard 0/3).  "" and "full" are
/// the identity.  Throws InvalidArgument on malformed steps.
[[nodiscard]] SweepPlan apply_shard_chain(SweepPlan plan,
                                          const std::string& chain);

}  // namespace ftsched
