// Post-hoc fault-tolerance analysis of replicated schedules.
//
// Complements the exhaustive simulator-based validator: instead of
// simulating C(m, ε) crash subsets, this analyzes the channel structure
// directly via *kill sets* — for each replica, the set of processors whose
// individual failure prevents it from ever producing output (its own
// processor, plus failures propagated through its input channels).
//
// For a (replica, edge) pair with channel sources S the edge is starved by
// a single crash of q iff q starves every source, i.e. q ∈ ∩_{s∈S} kill(s).
// A source queued behind the replica on the same processor is not in S: the
// processor runs the replica first, so that channel can never deliver; a
// replica left with no source for an edge never runs, whatever crashes.
// A schedule whose wait-for graph is cyclic is never certified.
// This makes the single-crash analysis *exact* for any channel structure
// (FTSA, MC-FTSA with or without repair, FTBAR with duplication).
//
// For ε ≥ 2 the analysis provides a *certificate*: if within every task the
// replica kill sets are pairwise disjoint and every multi-channel
// (replica, edge) pair has at least ε+1 sources with pairwise-disjoint kill
// sets, then no set of ≤ ε crashes can kill any task (Theorem 4.1 holds).
// Schedules produced by FTSA and by MC-FTSA with enforcement satisfy the
// certificate by construction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ftsched/core/schedule.hpp"

namespace ftsched {

enum class RobustnessVerdict {
  /// Certified: no ≤ ε crash set can kill any task.
  kCertifiedRobust,
  /// A single processor crash kills some task outright (witness below).
  kSingleCrashFatal,
  /// No single fatal processor, but the ε-robustness certificate does not
  /// apply (a coalition of 2..ε crashes might still kill a task; use the
  /// exhaustive validator to decide).
  kInconclusive,
};

struct RobustnessReport {
  RobustnessVerdict verdict = RobustnessVerdict::kInconclusive;
  /// Processors whose lone failure kills at least one task.
  std::vector<ProcId> fatal_processors;
  /// One (task, processor) witness per fatal processor, aligned with
  /// fatal_processors.
  std::vector<TaskId> fatal_tasks;
  /// Tasks whose replica kill sets overlap pairwise (vulnerable to some
  /// 2..ε coalition even if no single crash is fatal).
  std::vector<TaskId> overlapping_tasks;
  /// The schedule's wait-for graph is cyclic (see wait_for_graph): a
  /// replica may wait on one queued behind it, and the kill sets, which
  /// assume every counted source can run first, no longer bound what a
  /// crash set does.  Such a schedule is never certified.
  bool wait_for_cycle = false;
  /// Human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// Analyzes `schedule` against its own ε. O(v·(ε+1)²·m/64 + channels).
[[nodiscard]] RobustnessReport analyze_robustness(
    const ReplicatedSchedule& schedule);

}  // namespace ftsched
