// FTBAR — Fault Tolerance Based Active Replication (paper §5; Girault,
// Kalla, Sighireanu, Sorel, DSN'03).
//
// The paper's direct competitor, reimplemented from the §5 description.
// At each step, for every free task ti and processor pj the *schedule
// pressure* σ(ti, pj) = S(ti, pj) + s(ti) − R is evaluated (S: earliest
// start of ti on pj; s: static latest-start bottom level; R: current
// schedule length).  Each free task keeps its Npf+1 minimum-pressure
// processors; the free task whose kept set is most *urgent* (maximum σ)
// is scheduled on all of them.  The paper's FTBAR recomputes the full
// pressure table every step, O(P·N³).  Here each step still evaluates σ for
// every free task on every processor, but the message-arrival part of
// S(ti, pj) is memoised per task and recomputed only after a predecessor
// gains a replica, so on the Table-1 workload FTBAR grows at about the same
// rate as FTSA (EXPERIMENTS.md records the measured slopes).
//
// The recursive Minimize-Start-Time duplication of Ahmad & Kwok is
// implemented one level deep: after the processors are chosen, the
// predecessor whose message dominates a replica's start time is duplicated
// onto that processor when this strictly lowers the start.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ftsched/core/schedule.hpp"
#include "ftsched/platform/cost_model.hpp"

namespace ftsched {

struct FtbarOptions {
  /// Npf: number of failures tolerated (each task gets Npf+1 replicas).
  std::size_t npf = 1;
  /// Seed for random tie-breaking among equally urgent tasks.
  std::uint64_t seed = 0;
  /// Enable the one-level minimize-start-time duplication.
  bool use_minimize_start_time = true;
};

/// Runs FTBAR. Channels are materialized all-pairs (with the intra-processor
/// shortcut), as the original algorithm does not minimize communications.
/// A duplicate placed after a destination never feeds it through the
/// shortcut, and the result's wait-for graph is always acyclic (see
/// build_schedule in ftbar.cpp), so it passes validate().
[[nodiscard]] ReplicatedSchedule ftbar_schedule(
    const CostModel& costs, const FtbarOptions& options = {});

}  // namespace ftsched
