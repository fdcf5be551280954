#include "ftsched/core/ftbar.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/rng.hpp"

namespace ftsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class FtbarEngine {
 public:
  FtbarEngine(const CostModel& costs, const FtbarOptions& options)
      : costs_(costs),
        g_(costs.graph()),
        platform_(costs.platform()),
        options_(options),
        m_(platform_.proc_count()),
        n_rep_(options.npf + 1),
        rng_(options.seed) {
    FTSCHED_REQUIRE(n_rep_ <= m_, "Npf+1 exceeds the number of processors");
  }

  ReplicatedSchedule run() {
    bl_ = bottom_levels(costs_);
    replicas_.assign(g_.task_count(), {});
    placed_.assign(g_.task_count(), {});
    ready_.assign(m_, 0.0);
    ready_pess_.assign(m_, 0.0);
    pending_.assign(g_.task_count(), 0);
    for (TaskId t : g_.tasks()) pending_[t.index()] = g_.in_degree(t);
    free_ = g_.entry_tasks();
    schedule_length_ = 0.0;  // R(0)
    // Arrival-row memo (see select_most_urgent): one m-wide row per task,
    // valid while no predecessor replica list has changed since it was
    // computed.  rev 0 = "never computed"; list_rev_ starts at 1 so a fresh
    // row is always stamped newer than every initial list.
    arrival_rows_.assign(g_.task_count() * m_, 0.0);
    row_stamp_.assign(g_.task_count(), 0);
    list_rev_.assign(g_.task_count(), 1);
    global_rev_ = 1;
    sigma_.assign(m_, 0.0);

    while (!free_.empty()) {
      const auto [slot, procs] = select_most_urgent();
      const TaskId t = free_[slot];
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(slot));
      place(t, procs);
      for (std::size_t e : g_.out_edges(t)) {
        const TaskId s = g_.edge(e).dst;
        if (--pending_[s.index()] == 0) free_.push_back(s);
      }
    }
    return build_schedule();
  }

 private:
  /// min over replicas of predecessor `src` of (finish + comm to pj).
  double edge_arrival(const Edge& edge, ProcId pj) const {
    double best = kInf;
    for (const Replica& r : replicas_[edge.src.index()]) {
      best = std::min(best,
                      r.finish + edge.volume * platform_.delay(r.proc, pj));
    }
    return best;
  }

  /// Earliest start S(t, pj) given the current partial schedule.
  double earliest_start(TaskId t, ProcId pj) const {
    double arrival = 0.0;
    for (std::size_t e : g_.in_edges(t)) {
      arrival = std::max(arrival, edge_arrival(g_.edge(e), pj));
    }
    return std::max(arrival, ready_[pj.index()]);
  }

  /// The memoised message-arrival row of task t: arrival_rows_[t*m + j] =
  /// max over in-edges of edge_arrival(e, pj), i.e. earliest_start without
  /// the ready_ term.  The row depends only on the predecessors' replica
  /// lists, so it stays valid across selection rounds until some
  /// predecessor gains a replica (placement or MST duplication) — tracked
  /// by stamping each replica list with the global revision at its last
  /// change.  Recomputing lazily here turns the selection loop's
  /// per-round replica × proc × in-edge walk into an O(in-degree) validity
  /// check for the (common) unchanged tasks, which is what cuts FTBAR's
  /// cubic inner loop.  The recomputation is the shared eq.-(1) kernel,
  /// whose rows are bit-identical to the per-processor edge_arrival fold.
  const double* arrival_row(TaskId t) {
    const std::size_t ti = t.index();
    bool valid = row_stamp_[ti] != 0;
    if (valid) {
      for (std::size_t e : g_.in_edges(t)) {
        if (list_rev_[g_.edge(e).src.index()] > row_stamp_[ti]) {
          valid = false;
          break;
        }
      }
    }
    double* row = arrival_rows_.data() + ti * m_;
    if (!valid) {
      fill_arrival_row(
          g_, platform_, t,
          [this](TaskId src) -> const std::vector<Replica>& {
            return replicas_[src.index()];
          },
          std::span<double>(row, m_), sigma_);
      row_stamp_[ti] = global_rev_;
    }
    return row;
  }

  /// Evaluates schedule pressure for every free task; returns the index of
  /// the most urgent one and its Npf+1 minimum-pressure processors.
  std::pair<std::size_t, std::vector<ProcId>> select_most_urgent() {
    std::size_t best_slot = 0;
    std::vector<ProcId> best_procs;
    double best_urgency = -kInf;
    std::uint64_t best_tie = 0;
    for (std::size_t slot = 0; slot < free_.size(); ++slot) {
      const TaskId t = free_[slot];
      // σ(t, pj) = S(t, pj) + s(t) − R; the task-constant terms do not
      // change the per-task argmin but do enter the urgency comparison.
      const double* arrival = arrival_row(t);
      const double shift = bl_[t.index()] - schedule_length_;
      for (std::size_t j = 0; j < m_; ++j) {
        sigma_[j] = std::max(arrival[j], ready_[j]) + shift;
      }
      smallest_k(sigma_, n_rep_, kept_);
      // Urgency of t: the maximum pressure within its kept set.
      const double urgency = sigma_[kept_.back().index()];
      const std::uint64_t tie = rng_();
      if (urgency > best_urgency ||
          (urgency == best_urgency && tie > best_tie)) {
        best_urgency = urgency;
        best_tie = tie;
        best_slot = slot;
        best_procs = kept_;
      }
    }
    return {best_slot, std::move(best_procs)};
  }

  /// One-level Minimize-Start-Time: duplicate the predecessor whose message
  /// dominates t's start on `pj` when that strictly lowers the start.
  void try_minimize_start_time(TaskId t, ProcId pj) {
    const auto in_edges = g_.in_edges(t);
    if (in_edges.empty()) return;
    // Find the dominating (critical) predecessor message.
    double worst = -kInf;
    std::size_t critical_edge = g_.edge_count();
    for (std::size_t e : in_edges) {
      const double a = edge_arrival(g_.edge(e), pj);
      if (a > worst) {
        worst = a;
        critical_edge = e;
      }
    }
    if (worst <= ready_[pj.index()]) return;  // processor-bound, not message-bound
    const Edge& edge = g_.edge(critical_edge);
    const TaskId tc = edge.src;
    for (const Replica& r : replicas_[tc.index()]) {
      if (r.proc == pj) return;  // already local; nothing to gain
    }
    // Hypothetical duplicate of tc on pj.
    double dup_arrival = 0.0;
    for (std::size_t e : g_.in_edges(tc)) {
      dup_arrival = std::max(dup_arrival, edge_arrival(g_.edge(e), pj));
    }
    const double dup_start = std::max(dup_arrival, ready_[pj.index()]);
    const double dup_finish = dup_start + costs_.exec(tc, pj);
    // Start of t with the duplicate in place.
    double other = dup_finish;  // critical edge now arrives locally
    for (std::size_t e : in_edges) {
      if (e == critical_edge) continue;
      other = std::max(other, edge_arrival(g_.edge(e), pj));
    }
    const double new_start = std::max(other, dup_finish);
    const double old_start = std::max(worst, ready_[pj.index()]);
    if (new_start + 1e-12 >= old_start) return;  // no strict improvement

    Replica dup;
    dup.proc = pj;
    dup.start = dup_start;
    dup.finish = dup_finish;
    double pess_arrival = 0.0;
    for (std::size_t e : g_.in_edges(tc)) {
      pess_arrival = std::max(pess_arrival, pess_edge_arrival(g_.edge(e), pj));
    }
    dup.pess_start = std::max(pess_arrival, ready_pess_[pj.index()]);
    dup.pess_finish = dup.pess_start + costs_.exec(tc, pj);
    ready_[pj.index()] = dup.finish;
    ready_pess_[pj.index()] = dup.pess_finish;
    replicas_[tc.index()].push_back(dup);
    placed_[tc.index()].push_back(placements_++);
    list_rev_[tc.index()] = ++global_rev_;  // invalidate successors' rows
  }

  /// Worst-case arrival (eq.-(3) style): max over predecessor replicas,
  /// with the intra-processor shortcut.
  double pess_edge_arrival(const Edge& edge, ProcId pj) const {
    const auto& reps = replicas_[edge.src.index()];
    for (const Replica& r : reps) {
      if (r.proc == pj) return r.pess_finish;
    }
    double worst = 0.0;
    for (const Replica& r : reps) {
      worst = std::max(worst,
                       r.pess_finish + edge.volume * platform_.delay(r.proc, pj));
    }
    return worst;
  }

  void place(TaskId t, const std::vector<ProcId>& procs) {
    for (ProcId pj : procs) {
      if (options_.use_minimize_start_time) try_minimize_start_time(t, pj);
      Replica r;
      r.proc = pj;
      r.start = earliest_start(t, pj);
      r.finish = r.start + costs_.exec(t, pj);
      double pess_arrival = 0.0;
      for (std::size_t e : g_.in_edges(t)) {
        pess_arrival = std::max(pess_arrival, pess_edge_arrival(g_.edge(e), pj));
      }
      r.pess_start = std::max(pess_arrival, ready_pess_[pj.index()]);
      r.pess_finish = r.pess_start + costs_.exec(t, pj);
      ready_[pj.index()] = r.finish;
      ready_pess_[pj.index()] = r.pess_finish;
      schedule_length_ = std::max(schedule_length_, r.finish);
      replicas_[t.index()].push_back(r);
      placed_[t.index()].push_back(placements_++);
    }
    list_rev_[t.index()] = ++global_rev_;  // t's successors must recompute
  }

  /// The schedule with all-pairs channels and the intra-processor
  /// shortcut, over the final replica sets (duplication included).
  ///
  /// A destination takes the shortcut only from a local source placed
  /// before it: a minimize-start-time duplicate added later, for another
  /// successor, is queued behind the destination, and a channel from it
  /// would block that queue for good.  Without such a source the
  /// destination reads every remote source replica — late duplicates too,
  /// extra inputs its start time did not count on.  If those late channels
  /// close a cycle of replicas waiting on each other (possible only beyond
  /// ε crashes, and rare), the schedule keeps just the channels from
  /// replicas placed before their destination.  Placement order is queue
  /// order on every processor, so that wiring cannot deadlock — which also
  /// spares the cycle check when no late channel was wired.
  ReplicatedSchedule build_schedule() const {
    bool late = false;
    ReplicatedSchedule schedule = wire(/*late_sources=*/true, &late);
    if (!late || wait_for_graph(schedule).acyclic()) return schedule;
    return wire(/*late_sources=*/false, &late);
  }

  /// The channels as above, with or without the late ones; `late` reports
  /// whether any was wired.
  ReplicatedSchedule wire(bool late_sources, bool* late) const {
    *late = false;
    ReplicatedSchedule schedule(costs_, options_.npf, "FTBAR");
    for (TaskId t : g_.tasks()) {
      schedule.place_task(t, replicas_[t.index()]);
    }
    std::vector<Channel> channels;
    for (std::size_t e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      const auto& src_reps = replicas_[edge.src.index()];
      const auto& src_placed = placed_[edge.src.index()];
      const auto& dst_reps = replicas_[edge.dst.index()];
      const auto& dst_placed = placed_[edge.dst.index()];
      channels.clear();
      for (std::size_t dk = 0; dk < dst_reps.size(); ++dk) {
        std::size_t local = src_reps.size();
        for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
          if (src_reps[sk].proc == dst_reps[dk].proc) {
            local = sk;
            break;
          }
        }
        const bool earlier_local =
            local < src_reps.size() && src_placed[local] < dst_placed[dk];
        if (earlier_local) {
          channels.push_back(Channel{local, dk});
          continue;
        }
        for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
          const bool earlier = src_placed[sk] < dst_placed[dk];
          if (sk != local && (late_sources || earlier)) {
            channels.push_back(Channel{sk, dk});
            *late = *late || !earlier;
          }
        }
      }
      schedule.set_channels(e, channels);
    }
    return schedule;
  }

  const CostModel& costs_;
  const TaskGraph& g_;
  const Platform& platform_;
  FtbarOptions options_;
  std::size_t m_;
  std::size_t n_rep_;
  Rng rng_;
  std::vector<double> bl_;
  std::vector<std::vector<Replica>> replicas_;
  /// Placement sequence number of each replica, parallel to replicas_.
  std::vector<std::vector<std::uint64_t>> placed_;
  std::uint64_t placements_ = 0;
  std::vector<double> ready_;
  std::vector<double> ready_pess_;
  std::vector<std::size_t> pending_;
  std::vector<TaskId> free_;
  double schedule_length_ = 0.0;
  // Arrival-row memo (task × processor) with replica-list revisions; see
  // arrival_row().  sigma_ and kept_ are per-round scratch hoisted out of
  // the selection loop; sigma_ doubles as the kernel's scratch row.
  std::vector<double> arrival_rows_;
  std::vector<std::uint64_t> row_stamp_;
  std::vector<std::uint64_t> list_rev_;
  std::uint64_t global_rev_ = 1;
  std::vector<double> sigma_;
  std::vector<ProcId> kept_;
};

}  // namespace

ReplicatedSchedule ftbar_schedule(const CostModel& costs,
                                  const FtbarOptions& options) {
  FtbarEngine engine(costs, options);
  return engine.run();
}

}  // namespace ftsched
