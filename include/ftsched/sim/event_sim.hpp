// Discrete-event execution of a replicated schedule under fail-stop
// processor crashes (the paper's §6 "crash" experiments).
//
// Semantics:
//  * each processor executes its replicas in scheduled order, data-driven:
//    a replica starts once the processor is free and every incoming edge
//    has delivered at least one message (first input wins, Prop. 4.2);
//  * a replica on a processor that crashes before the replica's completion
//    produces nothing; completed replicas' messages are always delivered;
//  * a replica is *cancelled* (and skipped, unblocking its processor) when
//    for some incoming edge every channel source is dead or cancelled —
//    i.e. when it provably can never become ready;
//  * a processor whose outage ends in a repair restarts empty at the repair
//    time: the replica it was running is lost, the pending replicas still
//    queued on it were parked through the outage and resume in order;
//  * the run succeeds when every exit task has a completed replica; the
//    achieved latency is then max over exit tasks of the earliest completed
//    replica finish time.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "ftsched/core/schedule.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/comm_model.hpp"

namespace ftsched {

class ReschedulePolicy;

enum class ReplicaStatus {
  kNotStarted,  ///< never became ready before the simulation drained
  kCompleted,
  kDead,       ///< on a processor that crashed before completion
  kCancelled,  ///< provably never-ready; skipped by its processor
};

struct ReplicaOutcome {
  ReplicaStatus status = ReplicaStatus::kNotStarted;
  double start = 0.0;   ///< actual start (valid unless kNotStarted/kCancelled)
  double finish = 0.0;  ///< actual finish (valid when kCompleted)
};

struct SimulationResult {
  bool success = false;
  /// max over exit tasks of earliest completed replica finish;
  /// +infinity when the run failed.
  double latency = std::numeric_limits<double>::infinity();
  std::size_t completed_replicas = 0;
  std::size_t dead_replicas = 0;
  std::size_t cancelled_replicas = 0;
  std::size_t messages_delivered = 0;  ///< inter-processor messages only
  /// Outcome per (task, replica), indexed like the schedule's replica lists.
  std::vector<std::vector<ReplicaOutcome>> outcomes;

  /// Actual completion time of task t (earliest completed replica), or
  /// +infinity if no replica of t completed.
  [[nodiscard]] double task_completion(TaskId t) const;
};

struct SimulationOptions {
  CommModelOptions comm;
};

/// Build-once/simulate-many event simulator for one schedule.
///
/// Construction precomputes everything that depends only on the schedule —
/// flat replica arrays, CSR channel fan-out lists, the sorted per-processor
/// execution queues — and each run resets just the dynamic state, so
/// simulating the same schedule under many failure scenarios (crash
/// counts, sweep cells, validator subsets) skips the per-call rebuild.
///
/// There is one run method: run_summary(failures, policy) executes the
/// scenario's outages — permanent crashes and, optionally, repairs — and,
/// when a rescheduling policy is live, consults it on every crash and
/// repair.  Without a policy the run replays the static schedule; a
/// repaired processor resumes the replicas it parked.  The per-replica
/// detail of the last run is opt-in through result().
///
/// Which path a run takes (the results are the same bit for bit):
///  * the forward pass, when the run is crash-only (no repair in the
///    scenario), no policy is live (null or no-op), the comm model is
///    contention-free, and the schedule's wait-for graph is acyclic
///    (wait_for_graph in core/schedule.hpp; every validated schedule's is).
///    With those, the run has a fixed order: one visit per replica in
///    topological order evaluates the schedulers' start-time recurrence
///    under the crash set, with no events — O(replicas + channels);
///  * the event loop otherwise: repairs, live policies, contention models,
///    and cyclic or otherwise hand-built schedules the pass cannot replay
///    (a replica such a schedule deadlocks ends the run kNotStarted).
///
/// All dynamic state is structure-of-arrays: flat parallel arrays indexed
/// by a build-once replica numbering (status bytes, in-edge satisfaction
/// flags and live-source counts in one contiguous slot arena, start/finish
/// times), so the per-run reset is a handful of fill/copy sweeps over
/// contiguous memory instead of per-node touches, and the event queue is an
/// arena-backed binary heap whose storage is retained across runs — steady
/// state allocates nothing, on either path.
///
/// The schedule must outlive the simulator.  Runs mutate internal state:
/// one simulator must not be run from two threads concurrently (use one
/// per thread, or one per schedule per worker — they are cheap after the
/// first run).
class ScheduleSimulator {
 public:
  explicit ScheduleSimulator(const ReplicatedSchedule& schedule,
                             const SimulationOptions& options = {});
  ~ScheduleSimulator();
  ScheduleSimulator(ScheduleSimulator&&) noexcept;
  ScheduleSimulator& operator=(ScheduleSimulator&&) noexcept;
  ScheduleSimulator(const ScheduleSimulator&) = delete;
  ScheduleSimulator& operator=(const ScheduleSimulator&) = delete;

  /// Success + achieved latency of one run.  result() folds the same
  /// doubles, so the two agree bit for bit.
  struct Summary {
    bool success = false;
    double latency = std::numeric_limits<double>::infinity();
    std::size_t moves = 0;    ///< replica moves applied by the policy
    std::size_t repairs = 0;  ///< repair events applied
  };

  /// Executes the schedule under `failures` and calls back into `policy`
  /// on every crash and repair, applying the moves it emits
  /// (core/reschedule.hpp).  A null or no-op policy is never consulted: the
  /// run is the static replay.  A repair restarts the processor with its
  /// remaining queue: pending replicas are parked through the outage
  /// instead of dying.
  [[nodiscard]] Summary run_summary(const FailureScenario& failures = {},
                                    ReschedulePolicy* policy = nullptr);

  /// Per-replica outcomes and counters of the last run_summary() call
  /// (before the first run: every replica not started).
  [[nodiscard]] SimulationResult result() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Executes `schedule` under `failures` and returns the outcome.
/// The schedule is not modified; any number of crashes is allowed (with
/// more than ε the run may legitimately fail).  One-shot convenience over
/// ScheduleSimulator (construct, run_summary, result): callers simulating
/// one schedule repeatedly should construct the simulator once instead.
[[nodiscard]] SimulationResult simulate(const ReplicatedSchedule& schedule,
                                        const FailureScenario& failures = {},
                                        const SimulationOptions& options = {});

}  // namespace ftsched
