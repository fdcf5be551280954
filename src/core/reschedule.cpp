#include "ftsched/core/reschedule.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {

/// Priority-ordered pending replicas: descending bottom level, ties toward
/// the lower task id then replica index (deterministic across platforms).
struct PendingReplica {
  TaskId task;
  std::size_t replica = 0;
  double priority = 0.0;
};

void sort_by_priority(std::vector<PendingReplica>& pending) {
  std::sort(pending.begin(), pending.end(),
            [](const PendingReplica& a, const PendingReplica& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              if (a.task != b.task) return a.task < b.task;
              return a.replica < b.replica;
            });
}

/// Shared greedy placement pass: for each pending replica (already in
/// priority order) pick the live processor with the earliest finish,
/// keeping a task's replicas on distinct processors when possible, and
/// emit a move when the choice differs from the replica's current host.
/// `avail` carries the survivors' backlogs and is advanced per placement so
/// later replicas see earlier ones — the incremental state policies reuse
/// instead of rebuilding per event.
///
/// The pass relies on sort_by_priority's order keeping a task's replicas
/// adjacent: the priority is per task and ties go to the lower task id, so
/// once the pass moves on to another task it never returns.  `taken_`
/// therefore holds only the current task's placements (at most ε + 1).
class GreedyPass {
 public:
  GreedyPass(const OnlineView& view, const CostModel& costs, double now)
      : view_(view), costs_(costs), now_(now), avail_(view.proc_count()) {
    for (std::size_t p = 0; p < view.proc_count(); ++p) {
      if (!view.alive(p)) continue;
      avail_.raise(p, view.backlog(p));
      avail_.raise(p, now);
    }
  }

  void place(const PendingReplica& r, std::vector<ReplicaMove>& moves) {
    const TaskId t = r.task;
    if (t != task_) {
      task_ = t;
      taken_.clear();
    }
    const std::size_t current = view_.proc_of(t, r.replica);
    const auto exec = [&](std::size_t p) {
      return costs_.exec(t, ProcId{p});
    };
    const auto earliest = [&](std::size_t) { return now_; };
    // Strict pass: live targets not already hosting a replica of t (the
    // replica's own current host stays eligible — "stay put" is a choice).
    auto strict = [&](std::size_t p) {
      if (!view_.alive(p) || taken(p)) return false;
      return p == current || !view_.hosts_live_replica(t, p);
    };
    double finish = 0.0;
    std::size_t chosen = avail_.best_finish(strict, earliest, exec, &finish);
    if (chosen == avail_.size()) {
      // Every live processor already hosts a replica of t: fall back to any
      // live target so the replica survives at all (replica disjointness is
      // a best effort once the platform has shrunk past it).
      auto relaxed = [&](std::size_t p) { return view_.alive(p); };
      chosen = avail_.best_finish(relaxed, earliest, exec, &finish);
    }
    if (chosen == avail_.size()) return;  // no live processor: nothing to do
    avail_.commit(chosen, finish);
    taken_.push_back(chosen);
    if (chosen == current) return;  // staying put is not a move
    moves.push_back(ReplicaMove{t, r.replica, ProcId{chosen}, exec(chosen)});
  }

 private:
  /// True iff this pass already placed a replica of the current task on p.
  [[nodiscard]] bool taken(std::size_t p) const {
    return std::find(taken_.begin(), taken_.end(), p) != taken_.end();
  }

  const OnlineView& view_;
  const CostModel& costs_;
  double now_;
  ProcReadyState avail_;
  TaskId task_;                     ///< the task taken_ belongs to
  std::vector<std::size_t> taken_;  ///< its processors placed so far
};

class NonePolicy final : public ReschedulePolicy {
 public:
  [[nodiscard]] std::string spec() const override { return "none"; }
  void on_event(const OnlineView&, const OnlineEvent&,
                std::vector<ReplicaMove>&) override {}
  [[nodiscard]] bool is_noop() const override { return true; }
};

/// Base for the greedy policies: binds the schedule and memoises bottom
/// levels once per prepare (the priorities.hpp per-thread memo makes the
/// repeated calls across runs cheap).
class GreedyPolicyBase : public ReschedulePolicy {
 public:
  void prepare(const ReplicatedSchedule& schedule) override {
    schedule_ = &schedule;
    bottom_levels_ = bottom_levels(schedule.costs());
  }

 protected:
  [[nodiscard]] const ReplicatedSchedule& schedule() const {
    FTSCHED_REQUIRE(schedule_ != nullptr,
                    "policy used before prepare(schedule)");
    return *schedule_;
  }
  [[nodiscard]] double priority_of(TaskId t) const {
    return bottom_levels_[t.index()];
  }

 private:
  const ReplicatedSchedule* schedule_ = nullptr;
  std::vector<double> bottom_levels_;
};

/// `requeue-heft`: on each crash, remap the crashed processor's stranded
/// pending replicas onto survivors, highest bottom level first, each to the
/// earliest-finish live processor (HEFT's greedy rule on the survivor
/// platform).  Repairs are left to the simulator (the processor simply
/// resumes its remaining queue).
class RequeueHeftPolicy final : public GreedyPolicyBase {
 public:
  [[nodiscard]] std::string spec() const override { return "requeue-heft"; }

  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    if (event.kind != OnlineEvent::Kind::kCrash) return;
    scratch_.clear();
    pairs_.clear();
    view.pending_on(event.proc, pairs_);
    for (const auto& [t, r] : pairs_) {
      scratch_.push_back(PendingReplica{t, r, priority_of(t)});
    }
    if (scratch_.empty()) return;
    sort_by_priority(scratch_);
    GreedyPass pass(view, schedule().costs(), event.time);
    for (const PendingReplica& r : scratch_) pass.place(r, moves);
  }

 private:
  std::vector<PendingReplica> scratch_;
  std::vector<std::pair<TaskId, std::size_t>> pairs_;
};

/// `reactive-ftsa`: on each crash *and* repair, re-run the list engine's
/// greedy earliest-finish placement over *all* pending replicas on the
/// current survivor platform (the engine's choose-processors rule, fed by
/// the same memoised bottom levels), moving every replica whose best
/// processor changed.
class ReactiveFtsaPolicy final : public GreedyPolicyBase {
 public:
  [[nodiscard]] std::string spec() const override { return "reactive-ftsa"; }

  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    scratch_.clear();
    for (std::size_t p = 0; p < view.proc_count(); ++p) {
      pairs_.clear();
      view.pending_on(p, pairs_);
      for (const auto& [t, r] : pairs_) {
        scratch_.push_back(PendingReplica{t, r, priority_of(t)});
      }
    }
    if (scratch_.empty()) return;
    sort_by_priority(scratch_);
    GreedyPass pass(view, schedule().costs(), event.time);
    for (const PendingReplica& r : scratch_) pass.place(r, moves);
  }

 private:
  std::vector<PendingReplica> scratch_;
  std::vector<std::pair<TaskId, std::size_t>> pairs_;
};

}  // namespace

PolicyRegistry::PolicyRegistry() : SpecRegistry("rescheduling policy") {
  add(Entry{"none",
            "keep the static schedule (the paper's replay setup): a "
            "permanent crash loses its processor's unstarted replicas, a "
            "repaired processor resumes them",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<NonePolicy>();
            }});
  add(Entry{"requeue-heft",
            "on each crash, greedily remap the crashed processor's pending "
            "replicas onto the earliest-finish survivors (HEFT order)",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<RequeueHeftPolicy>();
            }});
  add(Entry{"reactive-ftsa",
            "on each crash and repair, re-run the list engine's greedy "
            "placement over all pending replicas on the survivor platform",
            {},
            [](const SpecOptions&) -> ReschedulePolicyPtr {
              return std::make_unique<ReactiveFtsaPolicy>();
            }});
}

const PolicyRegistry& PolicyRegistry::global() {
  static const PolicyRegistry registry;
  return registry;
}

ReschedulePolicyPtr make_reschedule_policy(const std::string& spec) {
  return PolicyRegistry::global().create(spec);
}

}  // namespace ftsched
