// MC-FTSA — Minimum Communications FTSA (paper §4.2).
//
// Same scheduling loop as FTSA, but each precedence edge is realized by
// only ε+1 channels instead of (ε+1)²: for every predecessor, a bipartite
// channel graph is built between the predecessor's replicas and the newly
// chosen processors, internal (co-located) channels are forced, and a
// one-to-one channel set is selected.  Prop. 4.3 shows any such set
// survives ε failures.  Two selectors are provided:
//  * kGreedy — internal channels first, then channels by non-decreasing
//    completion estimate (the selector used in the paper's experiments);
//  * kBinarySearchMatching — binary search on the bottleneck weight with a
//    Hopcroft–Karp feasibility probe (the polynomial optimal selector).
#pragma once

#include <cstddef>
#include <cstdint>

#include "ftsched/core/comm_awareness.hpp"
#include "ftsched/core/schedule.hpp"
#include "ftsched/platform/cost_model.hpp"

namespace ftsched {

enum class McSelector {
  kGreedy,
  kBinarySearchMatching,
};

struct McFtsaOptions {
  std::size_t epsilon = 1;
  std::uint64_t seed = 0;
  McSelector selector = McSelector::kGreedy;
  /// Enforce end-to-end ε-fault-tolerance (Theorem 4.1).
  ///
  /// The paper's Prop. 4.3 guarantees that each *edge* keeps a live
  /// channel under ε failures, but with several predecessors one processor
  /// can be the selected source of two different replicas via two
  /// different edges, so a single crash may starve every replica of a task
  /// — our exhaustive validator finds such counterexamples
  /// (tests/test_mc_ftsa.cpp, McFtsa.RepairRestoresTheorem41).
  /// When true (default), the scheduler tracks per-replica kill sets and
  /// locally reverts a vulnerable task's inbound channels to the full
  /// channel set, restoring the theorem at the cost of a few extra
  /// messages; repaired tasks are reported via
  /// ReplicatedSchedule::repaired_tasks().  Set to false for the
  /// paper-faithful (but unsound) selection.
  bool enforce_fault_tolerance = true;
  /// Contention awareness of the arrival estimates (default: the paper's
  /// contention-free model). See core/comm_awareness.hpp.
  CommAwareness comm;
};

/// Runs MC-FTSA. With enforcement disabled (or no repairs needed) the
/// schedule satisfies channel_count() == e·(ε+1).
[[nodiscard]] ReplicatedSchedule mc_ftsa_schedule(
    const CostModel& costs, const McFtsaOptions& options = {});

}  // namespace ftsched
