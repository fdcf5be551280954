// Online rescheduling policies: the schedule→simulate inversion.
//
// The static pipeline commits a full fault-tolerant schedule offline and
// replays failures against it.  The online mode inverts that boundary: the
// simulator owns the loop and, on every crash and repair event, calls back
// into a ReschedulePolicy that may remap not-yet-started replicas onto
// surviving processors.  Policies are selected by spec strings on the
// shared util/spec.hpp seam (`none`, `requeue-heft:`, `reactive-ftsa:`) and
// become a sweep dimension in experiments/.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ftsched/core/schedule.hpp"
#include "ftsched/util/ids.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

/// A decision point in an online run.
struct OnlineEvent {
  enum class Kind { kCrash, kRepair };
  Kind kind = Kind::kCrash;
  std::size_t proc = 0;
  double time = 0.0;
};

/// One remapping decision: replica `replica` of `task` (which must still be
/// pending) moves to processor `to`, where it will take `duration` time
/// units.  The policy computes `duration` from the cost model — the
/// simulator itself stays cost-model-free.
struct ReplicaMove {
  TaskId task;
  std::size_t replica = 0;
  ProcId to;
  double duration = 0.0;
};

/// The simulator state a policy may observe at a decision point.  All
/// queries reflect the *current* (post-event) dynamic state, including the
/// effect of earlier moves.
class OnlineView {
 public:
  virtual ~OnlineView() = default;

  [[nodiscard]] virtual std::size_t proc_count() const = 0;
  /// False while `p` is crashed (before its repair, if any).
  [[nodiscard]] virtual bool alive(std::size_t p) const = 0;
  /// True iff the replica has not started, died, or been cancelled —
  /// only pending replicas may move.
  [[nodiscard]] virtual bool pending(TaskId t, std::size_t replica) const = 0;
  /// The processor currently hosting the replica (after any moves).
  [[nodiscard]] virtual std::size_t proc_of(TaskId t,
                                            std::size_t replica) const = 0;
  /// Finish time of the replica running on `p`, or 0 when idle; policies
  /// max() this with the event time to get the processor's availability.
  [[nodiscard]] virtual double backlog(std::size_t p) const = 0;
  /// Appends `p`'s pending replicas, each pending replica once: its
  /// static queue from the scan position, then the replicas moved onto it.
  virtual void pending_on(
      std::size_t p,
      std::vector<std::pair<TaskId, std::size_t>>& out) const = 0;
  /// True iff `p` hosts a non-lost (pending, running or completed) replica
  /// of `t` — used to keep a task's replicas on distinct processors.
  [[nodiscard]] virtual bool hosts_live_replica(TaskId t,
                                                std::size_t p) const = 0;
};

/// Policy callback invoked by ScheduleSimulator::run_summary(failures,
/// policy) on every crash and repair event.
class ReschedulePolicy {
 public:
  virtual ~ReschedulePolicy() = default;

  /// Canonical spec string (round-trips through the registry).
  [[nodiscard]] virtual std::string spec() const = 0;

  /// Binds the policy to a schedule before any run: memoised bottom levels,
  /// replica layout, cost model.  The schedule must outlive the binding.
  virtual void prepare(const ReplicatedSchedule& schedule) { (void)schedule; }

  /// Called at the start of every simulation run.
  virtual void begin_run() {}

  /// The decision point: after the simulator applied `event`'s direct
  /// consequences (killed the running replica on a crashed processor,
  /// marked the processor alive again on repair), append moves of pending
  /// replicas onto live processors.  Moves are applied in emitted order.
  virtual void on_event(const OnlineView& view, const OnlineEvent& event,
                        std::vector<ReplicaMove>& moves) = 0;

  /// True for the no-op policy: the simulator then never consults it and
  /// replays the static schedule — a permanent crash kills the replicas
  /// stranded on its processor, a repaired processor resumes them.
  [[nodiscard]] virtual bool is_noop() const { return false; }
};

using ReschedulePolicyPtr = std::unique_ptr<ReschedulePolicy>;

/// Spec-string registry of rescheduling policies:
///
///   none                 keep the static schedule (the degenerate case)
///   requeue-heft         on each crash, greedily remap the crashed
///                        processor's stranded pending replicas onto the
///                        survivor minimizing earliest finish, in
///                        descending bottom-level (HEFT) order
///   reactive-ftsa        on each crash *and* repair, re-run the list
///                        engine's greedy earliest-finish placement over
///                        all pending replicas on the survivor platform
class PolicyRegistry : public SpecRegistry<ReschedulePolicyPtr> {
 public:
  PolicyRegistry();
  /// The process-wide registry with the built-in policies.
  [[nodiscard]] static const PolicyRegistry& global();
};

/// Creates a policy from a spec string via the global registry.
[[nodiscard]] ReschedulePolicyPtr make_reschedule_policy(
    const std::string& spec);

}  // namespace ftsched
