// Greedy-placement primitives shared by the list engines (FTSA, MC-FTSA,
// FTBAR), the gap-filling baselines (HEFT, CPOP) and the online
// rescheduling policies.
//
// - fill_arrival_row: eq. (1), the failure-free data-arrival time of one task
//   on every processor;
// - smallest_k: the ε+1 processors with the smallest value, ties broken
//   toward the lower processor index;
// - ProcReadyState: "when does each processor become free", with the
//   earliest-finish rule finish(p) = max(ready(p), earliest(p)) + exec(p)
//   under the same tie rule, kept incrementally so a policy need not
//   rebuild it from the schedule on every crash;
// - Slot / earliest_gap / insert_slot: one processor or send-port
//   timeline of booked intervals and its gap search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "ftsched/core/schedule.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

/// eq. (1) for task `t` on every processor:
///   row[j] = max over in-edges e of min over the replicas r of e's source
///            of r.finish + V(e)·d(r.proc, j)
/// (0 for an entry task).  `sources(task)` returns the replicas placed so
/// far for `task`.  The loops run replica-outer and processor-inner over
/// the contiguous delay row d(r.proc, ·), so each inner loop is a
/// branch-free min or max over m doubles that the compiler vectorises.
/// min and max are exact, so the row does not depend on the loop order;
/// the build's -ffp-contract=off keeps finish + V·d two roundings on FMA
/// targets.  `row` and `best` hold m entries; `best` is scratch.
template <typename Sources>
void fill_arrival_row(const TaskGraph& g, const Platform& platform, TaskId t,
                      Sources&& sources, std::span<double> row,
                      std::span<double> best) {
  const std::size_t m = row.size();
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t e : g.in_edges(t)) {
    const Edge& edge = g.edge(e);
    const double volume = edge.volume;
    std::fill(best.begin(), best.end(),
              std::numeric_limits<double>::infinity());
    for (const Replica& r : sources(edge.src)) {
      const double* d = platform.delay_row(r.proc).data();
      const double finish = r.finish;
      for (std::size_t j = 0; j < m; ++j) {
        best[j] = std::min(best[j], finish + volume * d[j]);
      }
    }
    for (std::size_t j = 0; j < m; ++j) row[j] = std::max(row[j], best[j]);
  }
}

/// fill_arrival_row over the replicas `schedule` has placed so far.
inline void fill_arrival_row(const ReplicatedSchedule& schedule, TaskId t,
                             std::span<double> row, std::span<double> best) {
  const auto sources = [&schedule](TaskId src) -> const std::vector<Replica>& {
    return schedule.replicas(src);
  };
  fill_arrival_row(schedule.graph(), schedule.platform(), t, sources, row,
                   best);
}

/// The `k` smallest (values[j], j) pairs, as processor ids in ascending
/// order: exactly the first k entries of a stable sort of 0..m-1 by value,
/// so equal values go to the lower index.  Keeps a sorted array of k by
/// insertion, O(m) when most values lose to the current k-th.
inline void smallest_k(std::span<const double> values, std::size_t k,
                       std::vector<ProcId>& kept) {
  FTSCHED_ASSERT(k > 0 && k <= values.size(), "k out of range");
  kept.clear();
  for (std::size_t j = 0; j < values.size(); ++j) {
    const double v = values[j];
    // Strict on equality: an earlier index wins the tie.
    if (kept.size() == k && v >= values[kept.back().index()]) continue;
    std::size_t pos = kept.size();
    while (pos > 0 && v < values[kept[pos - 1].index()]) --pos;
    if (kept.size() == k) kept.pop_back();
    kept.insert(kept.begin() + static_cast<std::ptrdiff_t>(pos), ProcId{j});
  }
}

/// Per-processor availability (the engine's `ready` array) plus the shared
/// earliest-finish selection rule.
class ProcReadyState {
 public:
  ProcReadyState() = default;
  explicit ProcReadyState(std::size_t proc_count) : ready_(proc_count, 0.0) {}

  void reset(std::size_t proc_count) { ready_.assign(proc_count, 0.0); }

  [[nodiscard]] std::size_t size() const noexcept { return ready_.size(); }
  [[nodiscard]] double ready(std::size_t p) const { return ready_[p]; }

  /// Commits a placement: processor `p` is busy until `finish`.
  void commit(std::size_t p, double finish) { ready_[p] = finish; }

  /// Raises `p`'s availability to at least `t` (external backlog).
  void raise(std::size_t p, double t) {
    if (t > ready_[p]) ready_[p] = t;
  }

  /// The earliest-finish processor among those `eligible(p)` admits:
  /// finish(p) = max(ready(p), earliest(p)) + exec(p).  Ties break to the
  /// lower index.  Returns size() when no processor is eligible; the chosen
  /// finish time lands in *out_finish when non-null.
  template <typename Eligible, typename Earliest, typename Exec>
  [[nodiscard]] std::size_t best_finish(Eligible&& eligible,
                                        Earliest&& earliest, Exec&& exec,
                                        double* out_finish = nullptr) const {
    std::size_t best = ready_.size();
    double best_time = 0.0;
    for (std::size_t p = 0; p < ready_.size(); ++p) {
      if (!eligible(p)) continue;
      const double at = earliest(p);
      const double finish = (ready_[p] > at ? ready_[p] : at) + exec(p);
      if (best == ready_.size() || finish < best_time) {
        best = p;
        best_time = finish;
      }
    }
    if (best != ready_.size() && out_finish != nullptr) {
      *out_finish = best_time;
    }
    return best;
  }

 private:
  std::vector<double> ready_;
};

/// One booked interval on a processor or send-port timeline.
struct Slot {
  double start;
  double finish;
};

/// Earliest start >= `ready` of a `duration`-long interval in `slots`
/// (sorted by start, non-overlapping): the first gap that fits, else the
/// end of the last slot.
inline double earliest_gap(const std::vector<Slot>& slots, double ready,
                           double duration) {
  double candidate = ready;
  for (const Slot& s : slots) {
    if (candidate + duration <= s.start + 1e-12) break;
    candidate = std::max(candidate, s.finish);
  }
  return candidate;
}

/// Books `s` into `slots`, keeping them sorted by start.
inline void insert_slot(std::vector<Slot>& slots, Slot s) {
  const auto pos = std::lower_bound(
      slots.begin(), slots.end(), s,
      [](const Slot& a, const Slot& b) { return a.start < b.start; });
  slots.insert(pos, s);
}

}  // namespace ftsched
