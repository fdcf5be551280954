// Fault-tolerant (replicated) schedule representation (paper §4).
//
// Every task is mapped onto ε+1 distinct processors (its *replicas*); each
// precedence edge is realized by explicit *channels* between replicas.
// FTSA materializes all replica pairs (minus the intra-processor shortcut);
// MC-FTSA keeps exactly one inbound channel per replica per edge.
//
// Storage: channels dominate a schedule's size (up to (ε+1)² per edge), so
// they all live in one pool.  set_channels(e, ...) appends an edge's channels
// and records its (begin, count) range, which channels(e) views as a span.
// A Channel is two 16-bit replica indices: a task's replicas sit on distinct
// processors and place_task caps their number at 2^16.  replica_index() is
// the one checked size_t -> 16-bit conversion.
//
// Each replica carries two time pairs:
//  * (start, finish)       — the failure-free (lower-bound) timeline, eq. (1);
//  * (pess_start, pess_finish) — the all-messages-late timeline, eq. (3),
//    whose maximum over exit replicas is the guaranteed upper bound M.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftsched/platform/cost_model.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/ids.hpp"

namespace ftsched {

struct Replica {
  ProcId proc;
  double start = 0.0;
  double finish = 0.0;
  double pess_start = 0.0;
  double pess_finish = 0.0;
};

/// Narrows a replica index to 16 bits; throws Error if it does not fit.
[[nodiscard]] inline std::uint16_t replica_index(std::size_t k) {
  FTSCHED_REQUIRE(k <= 0xFFFF, "replica index exceeds 16 bits");
  return static_cast<std::uint16_t>(k);
}

/// A realized communication: replica `src_replica` of edge.src sends the
/// edge's data to replica `dst_replica` of edge.dst.
struct Channel {
  Channel() = default;
  Channel(std::size_t src, std::size_t dst)
      : src_replica(replica_index(src)), dst_replica(replica_index(dst)) {}
  std::uint16_t src_replica = 0;
  std::uint16_t dst_replica = 0;
};

class ReplicatedSchedule {
 public:
  ReplicatedSchedule(const CostModel& costs, std::size_t epsilon,
                     std::string algorithm);

  [[nodiscard]] const CostModel& costs() const noexcept { return *costs_; }
  [[nodiscard]] const TaskGraph& graph() const noexcept {
    return costs_->graph();
  }
  [[nodiscard]] const Platform& platform() const noexcept {
    return costs_->platform();
  }

  /// Number of failures tolerated; every task has epsilon()+1 replicas.
  [[nodiscard]] std::size_t epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return epsilon_ + 1;
  }
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }

  /// Registers the replicas of `t` (must be called once per task, replicas
  /// on pairwise-distinct processors).  At least ε+1 and at most 2^16
  /// replicas are required; algorithms using duplication (FTBAR's
  /// minimize-start-time) may register more than ε+1.
  void place_task(TaskId t, std::vector<Replica> replicas);

  /// Registers the channels realizing graph edge `edge_index`, replacing any
  /// earlier set; the earlier range stays in the pool, unreferenced.
  void set_channels(std::size_t edge_index,
                    const std::vector<Channel>& channels);

  [[nodiscard]] bool is_placed(TaskId t) const {
    return !replicas_[t.index()].empty();
  }
  [[nodiscard]] const std::vector<Replica>& replicas(TaskId t) const {
    return replicas_[t.index()];
  }
  /// The channels of edge `edge_index`; valid until the next set_channels.
  [[nodiscard]] std::span<const Channel> channels(
      std::size_t edge_index) const {
    const ChannelRange r = channel_ranges_[edge_index];
    return {channel_pool_.data() + r.begin, r.count};
  }

  /// Lower bound M* (eq. 2): latency if no processor fails.
  [[nodiscard]] double lower_bound() const;
  /// Upper bound M (eq. 4): guaranteed latency under <= ε failures.
  [[nodiscard]] double upper_bound() const;

  /// Total number of inter-processor messages (intra-processor channels are
  /// free and not counted). FTSA ~ e(ε+1)², MC-FTSA <= e(ε+1).
  [[nodiscard]] std::size_t interproc_message_count() const;
  /// All realized channels, including intra-processor ones.
  [[nodiscard]] std::size_t channel_count() const;

  /// The paper's v×m binary mapping matrix X (row-major).
  [[nodiscard]] std::vector<char> mapping_matrix() const;

  /// Tasks whose channels were repaired by MC-FTSA's end-to-end
  /// fault-tolerance enforcement (see mc_ftsa.hpp); empty for other
  /// algorithms or when no repair was needed.
  [[nodiscard]] const std::vector<TaskId>& repaired_tasks() const noexcept {
    return repaired_;
  }
  void set_repaired_tasks(std::vector<TaskId> tasks) {
    repaired_ = std::move(tasks);
  }

  /// Structural + temporal validation; throws Error with a diagnostic when
  /// any invariant is violated:
  ///  * every task placed, exactly ε+1 replicas on distinct processors
  ///    (Prop. 4.1);
  ///  * replicas adjacent in a processor's queue (wait_for_graph below) do
  ///    not overlap in time;
  ///  * execution times match the cost model;
  ///  * every replica has >= 1 inbound channel per incoming edge, and its
  ///    start is >= the earliest channel arrival (failure-free times);
  ///  * pessimistic times dominate failure-free times;
  ///  * the wait-for graph (wait_for_graph below) is acyclic — in
  ///    particular no channel comes from a replica queued behind its
  ///    destination on the same processor.
  void validate() const;

 private:
  const CostModel* costs_;
  std::size_t epsilon_;
  std::string algorithm_;
  struct ChannelRange { std::uint32_t begin = 0, count = 0; };
  std::vector<std::vector<Replica>> replicas_;  // per task
  std::vector<Channel> channel_pool_;           // every edge's channels
  std::vector<ChannelRange> channel_ranges_;    // per edge, into the pool
  std::vector<TaskId> repaired_;
};

/// The wait-for graph of a schedule, over a flat replica numbering.
///
/// Replicas are numbered task-major: the replicas of task t are the flat
/// ids offset[t] .. offset[t+1]-1, in replica-list order.  A processor runs
/// its replicas in *queue order* — by scheduled start, then flat id — so a
/// replica waits on its queue predecessor and on the source of every
/// inbound channel; those are the graph's edges.  `order` lists the
/// replicas in a topological order (Kahn's algorithm) and covers every
/// replica iff the graph is acyclic.  A cycle can deadlock a run: some
/// replica then waits for input that only a replica queued behind it, on
/// its own or another processor, would produce.
///
/// ReplicatedSchedule::validate() rejects cyclic graphs, and the simulator
/// replays crash-only runs as one forward pass over `order`.
struct WaitForGraph {
  std::vector<std::size_t> offset;         ///< task -> flat replica range
  std::vector<std::uint32_t> task;         ///< flat id -> task
  std::vector<std::size_t> queue_offset;   ///< processor -> range of queue
  std::vector<std::uint32_t> queue;        ///< flat ids, in queue order
  std::vector<std::uint32_t> queue_index;  ///< flat id -> index in queue
  std::vector<std::uint32_t> order;        ///< topological order

  [[nodiscard]] bool acyclic() const noexcept {
    return order.size() == queue.size();
  }
};

/// Builds the wait-for graph of `schedule`.  Throws Error on a channel
/// whose replica indices are out of range.
[[nodiscard]] WaitForGraph wait_for_graph(const ReplicatedSchedule& schedule);

}  // namespace ftsched
