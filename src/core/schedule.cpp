#include "ftsched/core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {
// Relative tolerance for floating-point schedule comparisons.
constexpr double kTol = 1e-9;

bool leq(double a, double b) { return a <= b + kTol * (1.0 + std::abs(b)); }
}  // namespace

ReplicatedSchedule::ReplicatedSchedule(const CostModel& costs,
                                       std::size_t epsilon,
                                       std::string algorithm)
    : costs_(&costs),
      epsilon_(epsilon),
      algorithm_(std::move(algorithm)),
      replicas_(costs.graph().task_count()),
      channel_ranges_(costs.graph().edge_count()) {
  FTSCHED_REQUIRE(epsilon < costs.platform().proc_count(),
                  "need at least epsilon+1 processors");
}

void ReplicatedSchedule::place_task(TaskId t, std::vector<Replica> replicas) {
  FTSCHED_REQUIRE(t.index() < replicas_.size(), "unknown task");
  FTSCHED_REQUIRE(replicas_[t.index()].empty(), "task already placed");
  FTSCHED_REQUIRE(replicas.size() >= replica_count(),
                  "task must have at least epsilon+1 replicas");
  FTSCHED_REQUIRE(replicas.size() <= std::size_t{1} << 16,
                  "task has more replicas than 16-bit indices address");
  for (const Replica& r : replicas) {
    FTSCHED_REQUIRE(r.proc.index() < platform().proc_count(),
                    "replica on unknown processor");
  }
  replicas_[t.index()] = std::move(replicas);
}

void ReplicatedSchedule::set_channels(std::size_t edge_index,
                                      const std::vector<Channel>& channels) {
  FTSCHED_REQUIRE(edge_index < channel_ranges_.size(), "unknown edge");
  FTSCHED_REQUIRE(channel_pool_.size() + channels.size() <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "channel pool exceeds 32-bit offsets");
  channel_ranges_[edge_index] = {
      static_cast<std::uint32_t>(channel_pool_.size()),
      static_cast<std::uint32_t>(channels.size())};
  channel_pool_.insert(channel_pool_.end(), channels.begin(), channels.end());
}

double ReplicatedSchedule::lower_bound() const {
  // M* = max over exit tasks of (min over replicas of failure-free finish).
  double bound = 0.0;
  for (TaskId t : graph().exit_tasks()) {
    const auto& reps = replicas_[t.index()];
    FTSCHED_REQUIRE(!reps.empty(), "schedule incomplete: exit task unplaced");
    double first = std::numeric_limits<double>::infinity();
    for (const Replica& r : reps) first = std::min(first, r.finish);
    bound = std::max(bound, first);
  }
  return bound;
}

double ReplicatedSchedule::upper_bound() const {
  // M = max over exit tasks of (max over replicas of pessimistic finish).
  double bound = 0.0;
  for (TaskId t : graph().exit_tasks()) {
    const auto& reps = replicas_[t.index()];
    FTSCHED_REQUIRE(!reps.empty(), "schedule incomplete: exit task unplaced");
    for (const Replica& r : reps) bound = std::max(bound, r.pess_finish);
  }
  return bound;
}

std::size_t ReplicatedSchedule::interproc_message_count() const {
  std::size_t count = 0;
  for (std::size_t e = 0; e < channel_ranges_.size(); ++e) {
    const Edge& edge = graph().edge(e);
    for (const Channel& c : channels(e)) {
      const ProcId src = replicas_[edge.src.index()][c.src_replica].proc;
      const ProcId dst = replicas_[edge.dst.index()][c.dst_replica].proc;
      if (src != dst) ++count;
    }
  }
  return count;
}

std::size_t ReplicatedSchedule::channel_count() const {
  std::size_t count = 0;
  for (const ChannelRange& r : channel_ranges_) count += r.count;
  return count;
}

std::vector<char> ReplicatedSchedule::mapping_matrix() const {
  const std::size_t v = graph().task_count();
  const std::size_t m = platform().proc_count();
  std::vector<char> x(v * m, 0);
  for (std::size_t t = 0; t < v; ++t) {
    for (const Replica& r : replicas_[t]) x[t * m + r.proc.index()] = 1;
  }
  return x;
}

void ReplicatedSchedule::validate() const {
  const TaskGraph& g = graph();
  // 1. Placement and Prop. 4.1 (pairwise-distinct processors).
  for (TaskId t : g.tasks()) {
    const auto& reps = replicas_[t.index()];
    FTSCHED_REQUIRE(reps.size() >= replica_count(),
                    "task " + g.label(t) + " has fewer than epsilon+1 replicas");
    for (std::size_t a = 0; a < reps.size(); ++a) {
      for (std::size_t b = a + 1; b < reps.size(); ++b) {
        FTSCHED_REQUIRE(reps[a].proc != reps[b].proc,
                        "Prop 4.1 violated: two replicas of " + g.label(t) +
                            " share a processor");
      }
    }
    for (const Replica& r : reps) {
      FTSCHED_REQUIRE(r.start >= -kTol, "negative start time");
      const double e = costs_->exec(t, r.proc);
      FTSCHED_REQUIRE(std::abs((r.finish - r.start) - e) <= kTol * (1.0 + e),
                      "replica duration != E(t,P) for " + g.label(t));
      FTSCHED_REQUIRE(leq(r.start, r.pess_start) && leq(r.finish, r.pess_finish),
                      "pessimistic times must dominate failure-free times");
    }
  }
  // 2. Replicas adjacent in a processor's queue must not overlap.
  const WaitForGraph wait_for = wait_for_graph(*this);
  const auto replica_of = [&](std::size_t flat) -> const Replica& {
    const std::size_t t = wait_for.task[flat];
    return replicas_[t][flat - wait_for.offset[t]];
  };
  for (std::size_t i = 1; i < wait_for.queue.size(); ++i) {
    const Replica& a = replica_of(wait_for.queue[i - 1]);
    const Replica& b = replica_of(wait_for.queue[i]);
    FTSCHED_REQUIRE(a.proc != b.proc || leq(a.finish, b.start),
                    "overlapping replicas on processor " +
                        std::to_string(b.proc.value()));
  }
  // 3. Channels: coverage and temporal feasibility (failure-free timeline).
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const auto& src_reps = replicas_[edge.src.index()];
    const auto& dst_reps = replicas_[edge.dst.index()];
    std::vector<double> earliest(dst_reps.size(),
                                 std::numeric_limits<double>::infinity());
    for (const Channel& c : channels(e)) {  // in range: wait_for_graph checks
      const Replica& src = src_reps[c.src_replica];
      const Replica& dst = dst_reps[c.dst_replica];
      const double arrival =
          src.finish + costs_->comm(e, src.proc, dst.proc);
      earliest[c.dst_replica] = std::min(earliest[c.dst_replica], arrival);
    }
    for (std::size_t k = 0; k < dst_reps.size(); ++k) {
      FTSCHED_REQUIRE(std::isfinite(earliest[k]),
                      "replica has no inbound channel for an incoming edge");
      FTSCHED_REQUIRE(leq(earliest[k], dst_reps[k].start),
                      "replica starts before its earliest input arrives");
    }
  }
  // 4. No deadlock by construction: the wait-for graph is acyclic.
  if (!wait_for.acyclic()) {
    std::vector<char> ordered(wait_for.queue.size(), 0);
    for (const std::uint32_t flat : wait_for.order) ordered[flat] = 1;
    std::size_t stuck = 0;
    while (ordered[wait_for.queue[stuck]]) ++stuck;
    const std::size_t flat = wait_for.queue[stuck];
    const std::size_t t = wait_for.task[flat];
    const std::size_t k = flat - wait_for.offset[t];
    throw Error("cyclic wait-for graph: replica " + std::to_string(k) +
                " of " + g.label(TaskId{t}) + " on processor " +
                std::to_string(replicas_[t][k].proc.value()) +
                " waits, directly or through other replicas, on a replica "
                "queued behind it");
  }
}

WaitForGraph wait_for_graph(const ReplicatedSchedule& schedule) {
  const TaskGraph& g = schedule.graph();
  const std::size_t v = g.task_count();
  const std::size_t m = schedule.platform().proc_count();
  WaitForGraph w;
  w.offset.assign(v + 1, 0);
  for (std::size_t t = 0; t < v; ++t) {
    w.offset[t + 1] = w.offset[t] + schedule.replicas(TaskId{t}).size();
  }
  const std::size_t total = w.offset[v];
  std::vector<std::uint32_t> proc(total);
  std::vector<double> start(total);
  w.task.resize(total);
  for (std::size_t t = 0; t < v; ++t) {
    const auto& reps = schedule.replicas(TaskId{t});
    for (std::size_t k = 0; k < reps.size(); ++k) {
      w.task[w.offset[t] + k] = static_cast<std::uint32_t>(t);
      proc[w.offset[t] + k] = reps[k].proc.value();
      start[w.offset[t] + k] = reps[k].start;
    }
  }

  // Queue order (CSR): scheduled start, then flat id.
  w.queue_offset.assign(m + 1, 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    ++w.queue_offset[proc[flat] + 1];
  }
  for (std::size_t p = 0; p < m; ++p) {
    w.queue_offset[p + 1] += w.queue_offset[p];
  }
  w.queue.resize(total);
  std::vector<std::size_t> fill(w.queue_offset.begin(),
                                w.queue_offset.end() - 1);
  for (std::size_t flat = 0; flat < total; ++flat) {
    w.queue[fill[proc[flat]]++] = static_cast<std::uint32_t>(flat);
  }
  const auto queued_before = [&start](std::uint32_t a, std::uint32_t b) {
    if (start[a] != start[b]) return start[a] < start[b];
    return a < b;
  };
  for (std::size_t p = 0; p < m; ++p) {
    std::sort(w.queue.begin() + static_cast<std::ptrdiff_t>(w.queue_offset[p]),
              w.queue.begin() +
                  static_cast<std::ptrdiff_t>(w.queue_offset[p + 1]),
              queued_before);
  }
  w.queue_index.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    w.queue_index[w.queue[i]] = static_cast<std::uint32_t>(i);
  }

  // Channel fan-out (CSR) and in-degrees: one per inbound channel, plus
  // one for the queue predecessor.
  std::vector<std::uint32_t> out_offset(total + 1, 0);
  std::vector<std::uint32_t> indegree(total, 0);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const std::size_t src0 = w.offset[edge.src.index()];
    const std::size_t dst0 = w.offset[edge.dst.index()];
    const std::size_t src_count = w.offset[edge.src.index() + 1] - src0;
    const std::size_t dst_count = w.offset[edge.dst.index() + 1] - dst0;
    for (const Channel& c : schedule.channels(e)) {
      FTSCHED_REQUIRE(c.src_replica < src_count && c.dst_replica < dst_count,
                      "channel replica index out of range");
      ++out_offset[src0 + c.src_replica + 1];
      ++indegree[dst0 + c.dst_replica];
    }
  }
  for (std::size_t flat = 0; flat < total; ++flat) {
    out_offset[flat + 1] += out_offset[flat];
  }
  std::vector<std::uint32_t> out(out_offset[total]);
  std::vector<std::uint32_t> cursor(out_offset.begin(), out_offset.end() - 1);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const std::size_t src0 = w.offset[edge.src.index()];
    const auto dst0 = static_cast<std::uint32_t>(w.offset[edge.dst.index()]);
    for (const Channel& c : schedule.channels(e)) {
      out[cursor[src0 + c.src_replica]++] =
          dst0 + static_cast<std::uint32_t>(c.dst_replica);
    }
  }
  for (std::size_t p = 0; p < m; ++p) {
    const std::size_t end = w.queue_offset[p + 1];
    for (std::size_t i = w.queue_offset[p] + 1; i < end; ++i) {
      ++indegree[w.queue[i]];
    }
  }

  // Kahn's algorithm; `order` doubles as its FIFO.
  w.order.reserve(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (indegree[flat] == 0) {
      w.order.push_back(static_cast<std::uint32_t>(flat));
    }
  }
  for (std::size_t head = 0; head < w.order.size(); ++head) {
    const std::uint32_t flat = w.order[head];
    for (std::size_t i = out_offset[flat]; i < out_offset[flat + 1]; ++i) {
      if (--indegree[out[i]] == 0) w.order.push_back(out[i]);
    }
    const std::size_t next = w.queue_index[flat] + std::size_t{1};
    if (next < w.queue_offset[proc[flat] + 1] &&
        --indegree[w.queue[next]] == 0) {
      w.order.push_back(w.queue[next]);
    }
  }
  return w;
}

}  // namespace ftsched
