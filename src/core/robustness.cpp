#include "ftsched/core/robustness.hpp"

#include <algorithm>
#include <sstream>

#include "ftsched/core/kill_set.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

std::string RobustnessReport::summary() const {
  std::ostringstream os;
  switch (verdict) {
    case RobustnessVerdict::kCertifiedRobust:
      os << "certified robust: no <= epsilon crash set kills any task";
      break;
    case RobustnessVerdict::kSingleCrashFatal:
      os << "NOT fault tolerant: " << fatal_tasks.size()
         << " task(s) killable by a single crash (e.g. P"
         << fatal_processors.front().value() << " kills task "
         << fatal_tasks.front().value() << ")";
      break;
    case RobustnessVerdict::kInconclusive:
      os << "inconclusive: no single fatal processor, but ";
      if (wait_for_cycle) {
        os << "the wait-for graph is cyclic (a replica waits on one queued "
              "behind it)";
      } else {
        os << overlapping_tasks.size()
           << " task(s) have overlapping replica kill sets";
      }
      break;
  }
  return os.str();
}

RobustnessReport analyze_robustness(const ReplicatedSchedule& schedule) {
  const TaskGraph& g = schedule.graph();
  const std::size_t m = schedule.platform().proc_count();
  const std::size_t epsilon = schedule.epsilon();

  // kill[task][replica]: processors whose lone crash starves the replica.
  std::vector<std::vector<KillSet>> kill(g.task_count());
  // certificate_ok stays true while every multi-channel (replica, edge)
  // pair has >= ε+1 sources with pairwise-disjoint kill sets.
  bool certificate_ok = true;

  RobustnessReport report;
  std::vector<char> overlap_flag(g.task_count(), 0);
  // Queue order decides which channels can ever deliver: a source queued
  // behind its destination on the same processor cannot run first.
  const WaitForGraph wait_for = wait_for_graph(schedule);
  report.wait_for_cycle = !wait_for.acyclic();
  KillSet everything(m);
  for (std::size_t p = 0; p < m; ++p) everything.add(ProcId{p});

  for (TaskId t : g.topological_order()) {
    const auto& reps = schedule.replicas(t);
    FTSCHED_REQUIRE(!reps.empty(), "schedule incomplete: task unplaced");
    kill[t.index()].assign(reps.size(), KillSet(m));
    for (std::size_t k = 0; k < reps.size(); ++k) {
      kill[t.index()][k].add(reps[k].proc);
    }
    // Accumulate per (replica, in-edge) channel sources.
    for (std::size_t e : g.in_edges(t)) {
      const TaskId src_task = g.edge(e).src;
      std::vector<std::vector<std::size_t>> sources(reps.size());
      std::vector<char> has_channel(reps.size(), 0);
      for (const Channel& c : schedule.channels(e)) {
        has_channel[c.dst_replica] = 1;
        const std::size_t src =
            wait_for.offset[src_task.index()] + c.src_replica;
        const std::size_t dst = wait_for.offset[t.index()] + c.dst_replica;
        if (schedule.replicas(src_task)[c.src_replica].proc ==
                reps[c.dst_replica].proc &&
            wait_for.queue_index[src] > wait_for.queue_index[dst]) {
          continue;
        }
        sources[c.dst_replica].push_back(c.src_replica);
      }
      for (std::size_t k = 0; k < reps.size(); ++k) {
        FTSCHED_REQUIRE(has_channel[k],
                        "replica lacks an inbound channel for an edge");
        if (sources[k].empty()) {
          // Every source is queued behind it: the replica never runs, and
          // no crash set is needed to kill it.
          kill[t.index()][k] = everything;
          continue;
        }
        // Single crash starves the edge iff it starves *every* source.
        KillSet edge_kill = kill[src_task.index()][sources[k][0]];
        for (std::size_t i = 1; i < sources[k].size(); ++i) {
          edge_kill.restrict_to(kill[src_task.index()][sources[k][i]]);
        }
        kill[t.index()][k].merge(edge_kill);
        if (sources[k].size() > 1) {
          // Certificate condition for multi-channel pairs: enough sources,
          // pairwise-disjoint kill sets (=> no <= ε coalition starves it).
          if (sources[k].size() < epsilon + 1) {
            certificate_ok = false;
          } else {
            for (std::size_t a = 0;
                 a < sources[k].size() && certificate_ok; ++a) {
              for (std::size_t b = a + 1; b < sources[k].size(); ++b) {
                if (kill[src_task.index()][sources[k][a]].intersects(
                        kill[src_task.index()][sources[k][b]])) {
                  certificate_ok = false;
                  break;
                }
              }
            }
          }
        }
      }
    }
    // Single-crash fatality: some processor in every replica's kill set.
    KillSet fatal = kill[t.index()][0];
    for (std::size_t k = 1; k < reps.size(); ++k) {
      fatal.restrict_to(kill[t.index()][k]);
    }
    if (!fatal.empty() && epsilon >= 1) {
      report.fatal_processors.emplace_back(fatal.first());
      report.fatal_tasks.push_back(t);
    }
    // Pairwise overlap: the ε >= 2 coalition criterion.
    for (std::size_t a = 0; a < reps.size() && !overlap_flag[t.index()];
         ++a) {
      for (std::size_t b = a + 1; b < reps.size(); ++b) {
        if (kill[t.index()][a].intersects(kill[t.index()][b])) {
          overlap_flag[t.index()] = 1;
          break;
        }
      }
    }
    if (overlap_flag[t.index()]) report.overlapping_tasks.push_back(t);
  }

  if (!report.fatal_processors.empty()) {
    report.verdict = RobustnessVerdict::kSingleCrashFatal;
  } else if (report.wait_for_cycle) {
    report.verdict = RobustnessVerdict::kInconclusive;
  } else if (report.overlapping_tasks.empty() && certificate_ok) {
    report.verdict = RobustnessVerdict::kCertifiedRobust;
  } else if (epsilon <= 1) {
    // With ε <= 1 the single-crash analysis is complete: no fatal
    // processor means the schedule survives any single crash.
    report.verdict = RobustnessVerdict::kCertifiedRobust;
  } else {
    report.verdict = RobustnessVerdict::kInconclusive;
  }
  return report;
}

}  // namespace ftsched
