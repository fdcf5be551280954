#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

#include "ftsched/core/kill_set.hpp"
#include "ftsched/core/matching.hpp"
#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/rng.hpp"
#include "engine_detail.hpp"

namespace ftsched::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// α entries: ordered by criticalness, then a random tie-break key (the
/// paper breaks ties randomly), then task id for full determinism.  The
/// paper keeps α in an AVL tree (§4.1); a binary heap gives the same
/// O(log ω) insert and head extraction and the same pop order, because
/// this key is a total order (task ids are unique within a run).
struct AlphaKey {
  double priority = 0.0;
  std::uint64_t tie = 0;
  TaskId task;

  friend bool operator<(const AlphaKey& a, const AlphaKey& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.task > b.task;  // lower id wins at equal priority+tie
  }
};

/// One candidate channel of the §4.2 bipartite graph.
struct ChannelCandidate {
  std::size_t left;    // replica index of the predecessor
  std::size_t right;   // index into the chosen processor set A(t)
  double weight;       // completion estimate, see §4.2
  bool internal;       // source proc == target proc
};

class Engine {
 public:
  Engine(const CostModel& costs, const EngineOptions& options)
      : costs_(costs),
        g_(costs.graph()),
        platform_(costs.platform()),
        options_(options),
        m_(platform_.proc_count()),
        replica_count_(options.epsilon + 1),
        schedule_(costs, options.epsilon, options.algorithm_name),
        rng_(options.seed) {
    FTSCHED_REQUIRE(replica_count_ <= m_,
                    "epsilon+1 exceeds the number of processors");
    if (options_.deadlines != nullptr) {
      FTSCHED_REQUIRE(options_.deadlines->size() == g_.task_count(),
                      "deadline vector size mismatch");
    }
    if (options_.comm.enabled()) {
      send_lanes_.assign(
          m_, std::vector<std::vector<Slot>>(options_.comm.ports));
    }
  }

  ReplicatedSchedule run() {
    const auto bl = bottom_levels(costs_);
    pending_.assign(g_.task_count(), 0);
    for (TaskId t : g_.tasks()) pending_[t.index()] = g_.in_degree(t);
    ready_.reset(m_);
    ready_pess_.reset(m_);

    for (TaskId t : g_.entry_tasks()) push_free(t, /*top_level=*/0.0, bl);

    kills_.assign(g_.task_count(), {});

    std::size_t scheduled = 0;
    while (!alpha_.empty()) {
      const TaskId t = alpha_.top().task;
      alpha_.pop();
      schedule_task(t);
      ++scheduled;
      for (std::size_t e : g_.out_edges(t)) {
        const TaskId s = g_.edge(e).dst;
        if (--pending_[s.index()] == 0) {
          push_free(s, dynamic_top_level(s), bl);
        }
      }
    }
    FTSCHED_REQUIRE(scheduled == g_.task_count(),
                    "scheduling loop did not reach every task (cycle?)");
    schedule_.set_repaired_tasks(std::move(repaired_));
    return std::move(schedule_);
  }

 private:
  void push_free(TaskId t, double top_level, const std::vector<double>& bl) {
    double priority = 0.0;
    switch (options_.priority) {
      case PriorityMode::kCriticalness:
        priority = top_level + bl[t.index()];
        break;
      case PriorityMode::kBottomLevel:
        priority = bl[t.index()];
        break;
      case PriorityMode::kRandom:
        priority = 0.0;  // the random tie key decides
        break;
    }
    alpha_.push(AlphaKey{priority, rng_(), t});
  }

  /// Paper §4.1 dynamic top level: worst-case outgoing link from the
  /// earliest-finishing replica of each predecessor.
  double dynamic_top_level(TaskId t) const {
    double tl = 0.0;
    for (std::size_t e : g_.in_edges(t)) {
      const Edge& edge = g_.edge(e);
      double best = kInf;
      for (const Replica& r : schedule_.replicas(edge.src)) {
        best = std::min(best, r.finish + edge.volume *
                                             platform_.max_delay_from(r.proc));
      }
      tl = std::max(tl, best);
    }
    return tl;
  }

  /// Best (lane, send start) over the source processor's port lanes.
  std::pair<std::size_t, double> best_lane(ProcId src_proc, double ready,
                                           double duration) const {
    const auto& lanes = send_lanes_[src_proc.index()];
    std::size_t best = 0;
    double best_start = kInf;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      // Gap-aware, like the one-port simulator's work-conserving ports.
      const double start = earliest_gap(lanes[lane], ready, duration);
      if (start < best_start) {
        best_start = start;
        best = lane;
      }
    }
    return {best, best_start};
  }

  /// Arrival time of one channel (src replica → processor pj), including
  /// the send-port waiting time when communication awareness is on.
  double channel_arrival(const Replica& src, const Edge& edge,
                         ProcId pj) const {
    const double duration = edge.volume * platform_.delay(src.proc, pj);
    if (duration <= 0.0 || !options_.comm.enabled()) {
      return src.finish + duration;
    }
    return best_lane(src.proc, src.finish, duration).second + duration;
  }

  /// Books one committed channel onto a send port of its source processor.
  void book_send(const Replica& src, const Edge& edge, ProcId dst_proc) {
    if (!options_.comm.enabled()) return;
    const double duration = edge.volume * platform_.delay(src.proc, dst_proc);
    if (duration <= 0.0) return;
    const auto [lane_index, start] =
        best_lane(src.proc, src.finish, duration);
    insert_slot(send_lanes_[src.proc.index()][lane_index],
                Slot{start, start + duration});
  }

  /// eq. (1): failure-free data-arrival time of task `t` on processor j,
  /// taking for each predecessor the best replica channel.  Without
  /// communication awareness every channel arrives at finish + V·d, which
  /// the shared contiguous kernel evaluates; with it, each channel also
  /// waits for a send port.
  void arrival_times(TaskId t, std::vector<double>& arrival) {
    if (!options_.comm.enabled()) {
      arrival.resize(m_);
      best_scratch_.resize(m_);
      fill_arrival_row(schedule_, t, arrival, best_scratch_);
      return;
    }
    arrival.assign(m_, 0.0);
    for (std::size_t e : g_.in_edges(t)) {
      const Edge& edge = g_.edge(e);
      for (std::size_t j = 0; j < m_; ++j) {
        const ProcId pj{j};
        double best = kInf;
        for (const Replica& r : schedule_.replicas(edge.src)) {
          best = std::min(best, channel_arrival(r, edge, pj));
        }
        arrival[j] = std::max(arrival[j], best);
      }
    }
  }

  /// The ε+1 processors with the smallest F(t, Pj) (ties: processor
  /// index), or a uniformly random distinct set under random_placement.
  /// Fills and returns the reused chosen_scratch_ member (valid until the
  /// next call).
  const std::vector<ProcId>& choose_processors(
      const std::vector<double>& finish) {
    if (options_.random_placement) {
      chosen_scratch_.clear();
      for (std::size_t j : rng_.sample_without_replacement(m_, replica_count_)) {
        chosen_scratch_.emplace_back(j);
      }
      return chosen_scratch_;
    }
    smallest_k(finish, replica_count_, chosen_scratch_);
    return chosen_scratch_;
  }

  void schedule_task(TaskId t) {
    std::vector<double>& arrival = arrival_scratch_;
    arrival_times(t, arrival);
    std::vector<double>& finish = finish_scratch_;
    finish.resize(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      finish[j] = costs_.exec(t, ProcId{j}) +
                  std::max(arrival[j], ready_.ready(j));
    }
    const std::vector<ProcId>& chosen = choose_processors(finish);

    if (options_.deadlines != nullptr) {
      double worst = 0.0;
      for (ProcId p : chosen) worst = std::max(worst, finish[p.index()]);
      if (worst > (*options_.deadlines)[t.index()]) {
        throw Infeasible("task " + g_.label(t) +
                         " misses its deadline: finish " +
                         std::to_string(worst) + " > " +
                         std::to_string((*options_.deadlines)[t.index()]));
      }
    }

    if (options_.policy == ChannelPolicy::kAllPairs) {
      place_all_pairs(t, chosen, arrival, finish);
    } else {
      place_mc(t, chosen, arrival);
    }
  }

  // --- FTSA channel realization -------------------------------------------

  void place_all_pairs(TaskId t, const std::vector<ProcId>& chosen,
                       const std::vector<double>& arrival,
                       const std::vector<double>& finish) {
    std::vector<Replica> replicas;
    replicas.reserve(chosen.size());
    for (ProcId p : chosen) {
      const std::size_t j = p.index();
      Replica r;
      r.proc = p;
      r.start = std::max(arrival[j], ready_.ready(j));
      r.finish = finish[j];
      // eq. (3): every predecessor message may be the last to arrive; when a
      // predecessor replica shares the processor, the intra-processor
      // channel is the only one (paper's remark after Thm 4.1).
      double pess_arrival = 0.0;
      for (std::size_t e : g_.in_edges(t)) {
        const Edge& edge = g_.edge(e);
        const auto& src_reps = schedule_.replicas(edge.src);
        const Replica* local = local_replica(src_reps, p);
        double worst = 0.0;
        if (local != nullptr) {
          worst = local->pess_finish;
        } else {
          for (const Replica& sr : src_reps) {
            worst = std::max(worst, sr.pess_finish +
                                        edge.volume *
                                            platform_.delay(sr.proc, p));
          }
        }
        pess_arrival = std::max(pess_arrival, worst);
      }
      // The max() with r.start matters only with communication awareness,
      // where the (port-aware) optimistic arrival can exceed the
      // contention-free pessimistic one.
      r.pess_start = std::max({pess_arrival, ready_pess_.ready(j), r.start});
      r.pess_finish = r.pess_start + costs_.exec(t, p);
      replicas.push_back(r);
      // Kill set: own processor, plus the co-located source's kill set for
      // every intra-shortcut (single-channel) edge.  Multi-channel edges
      // cannot be starved by <= ε failures (their sources' kill sets are
      // pairwise disjoint), so they contribute nothing.
      KillSet kill(m_);
      kill.add(p);
      for (std::size_t e : g_.in_edges(t)) {
        const Edge& edge = g_.edge(e);
        const auto& src_reps = schedule_.replicas(edge.src);
        for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
          if (src_reps[sk].proc == p) {
            kill.merge(kills_[edge.src.index()][sk]);
            break;
          }
        }
      }
      kills_[t.index()].push_back(std::move(kill));
    }
    commit(t, chosen, std::move(replicas));
    // Channels: all source replicas feed every target replica, except that
    // a co-located source replica suppresses the remote copies.
    for (std::size_t e : g_.in_edges(t)) {
      const Edge& edge = g_.edge(e);
      const auto& src_reps = schedule_.replicas(edge.src);
      channel_scratch_.clear();
      for (std::size_t dst_k = 0; dst_k < chosen.size(); ++dst_k) {
        const ProcId p = chosen[dst_k];
        bool local = false;
        for (std::size_t src_k = 0; src_k < src_reps.size(); ++src_k) {
          if (src_reps[src_k].proc == p) {
            channel_scratch_.push_back(Channel{src_k, dst_k});
            local = true;
            break;
          }
        }
        if (local) continue;
        for (std::size_t src_k = 0; src_k < src_reps.size(); ++src_k) {
          channel_scratch_.push_back(Channel{src_k, dst_k});
          book_send(src_reps[src_k], edge, p);
        }
      }
      schedule_.set_channels(e, channel_scratch_);
    }
  }

  // --- MC-FTSA channel realization (§4.2) ----------------------------------

  /// Sentinel in a selection vector: the slot receives the full channel
  /// set for that edge (all ε+1 sources) instead of a single source.
  static constexpr std::size_t kFullFallback = static_cast<std::size_t>(-1);

  void place_mc(TaskId t, const std::vector<ProcId>& chosen,
                const std::vector<double>& /*all_pairs_arrival*/) {
    const auto in_edges = g_.in_edges(t);
    const std::size_t n = chosen.size();

    // Per-slot kill sets, accumulated edge by edge.  A task survives ε
    // failures iff these stay pairwise disjoint (then killing all ε+1
    // replicas requires ε+1 distinct processors).  The §4.2 per-edge
    // selection alone does not guarantee this across edges; when
    // options_.repair_vulnerable is set, select_channels() constrains the
    // assignment accordingly and falls back to the full channel set for
    // slots that cannot be served conflict-free.
    std::vector<KillSet> kills;
    kills.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      KillSet kill(m_);
      kill.add(chosen[k]);
      kills.push_back(std::move(kill));
    }

    std::vector<std::vector<std::size_t>> selected(in_edges.size());
    bool any_fallback = false;
    for (std::size_t ei = 0; ei < in_edges.size(); ++ei) {
      selected[ei] = select_channels(in_edges[ei], t, chosen, kills);
      for (std::size_t k = 0; k < n; ++k) {
        if (selected[ei][k] == kFullFallback) {
          any_fallback = true;
        } else {
          kills[k].merge(
              kills_[g_.edge(in_edges[ei]).src.index()][selected[ei][k]]);
        }
      }
    }
    if (any_fallback) repaired_.push_back(t);
    kills_[t.index()] = std::move(kills);

    // Replica times under the selected channel set.
    std::vector<Replica> replicas;
    replicas.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const ProcId p = chosen[k];
      const std::size_t j = p.index();
      double arrival = 0.0;
      double pess_arrival = 0.0;
      for (std::size_t ei = 0; ei < in_edges.size(); ++ei) {
        const Edge& edge = g_.edge(in_edges[ei]);
        const auto& src_reps = schedule_.replicas(edge.src);
        if (selected[ei][k] == kFullFallback) {
          // Full set: first message wins; worst case, the last one does
          // (a co-located source may itself be starved under failures, so
          // it gets no special treatment in the pessimistic time).
          double best = std::numeric_limits<double>::infinity();
          double worst = 0.0;
          for (const Replica& sr : src_reps) {
            const double comm = edge.volume * platform_.delay(sr.proc, p);
            best = std::min(best, channel_arrival(sr, edge, p));
            worst = std::max(worst, sr.pess_finish + comm);
          }
          arrival = std::max(arrival, best);
          pess_arrival = std::max(pess_arrival, worst);
        } else {
          const Replica& src = src_reps[selected[ei][k]];
          const double comm = edge.volume * platform_.delay(src.proc, p);
          arrival = std::max(arrival, channel_arrival(src, edge, p));
          pess_arrival = std::max(pess_arrival, src.pess_finish + comm);
        }
      }
      Replica r;
      r.proc = p;
      r.start = std::max(arrival, ready_.ready(j));
      r.finish = r.start + costs_.exec(t, p);
      // max() with r.start: with communication awareness the port-aware
      // optimistic arrival can exceed the contention-free pessimistic one.
      r.pess_start = std::max({pess_arrival, ready_pess_.ready(j), r.start});
      r.pess_finish = r.pess_start + costs_.exec(t, p);
      replicas.push_back(r);
    }
    commit(t, chosen, std::move(replicas));

    for (std::size_t ei = 0; ei < in_edges.size(); ++ei) {
      const Edge& edge = g_.edge(in_edges[ei]);
      const auto& src_reps = schedule_.replicas(edge.src);
      channel_scratch_.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (selected[ei][k] == kFullFallback) {
          for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
            channel_scratch_.push_back(Channel{sk, k});
            book_send(src_reps[sk], edge, chosen[k]);
          }
        } else {
          channel_scratch_.push_back(Channel{selected[ei][k], k});
          book_send(src_reps[selected[ei][k]], edge, chosen[k]);
        }
      }
      schedule_.set_channels(in_edges[ei], channel_scratch_);
    }
  }

  /// Builds the §4.2 bipartite channel graph for one predecessor edge and
  /// returns, for each chosen-processor slot k, the source replica feeding
  /// it (or kFullFallback).  Guarantees the Prop.-4.3 structure:
  /// co-located replicas use the internal channel; the rest form a
  /// one-to-one mapping.
  ///
  /// When options_.repair_vulnerable is set, a candidate (source l → slot
  /// k) is only *compatible* if the source's kill set does not touch any
  /// other slot's accumulated kill set — this aligns shared ancestors onto
  /// a single slot and keeps the per-slot kill sets pairwise disjoint.
  /// Slots that cannot be served by a compatible source fall back to the
  /// full channel set (unstarvable by <= ε failures, no kill contribution).
  std::vector<std::size_t> select_channels(std::size_t edge_index, TaskId t,
                                           const std::vector<ProcId>& chosen,
                                           const std::vector<KillSet>& slot_kills) {
    const Edge& edge = g_.edge(edge_index);
    const auto& src_reps = schedule_.replicas(edge.src);
    const std::size_t n = chosen.size();  // == ε+1 == src_reps.size()

    // Union of all slot kill sets: a source conflicts with slot k iff its
    // kill set touches the union outside slot k's own part.
    KillSet& universe = universe_scratch_;
    universe.reset(m_);
    for (const KillSet& k : slot_kills) universe.merge(k);
    auto compatible = [&](std::size_t l, std::size_t k) {
      if (!options_.repair_vulnerable) return true;
      return !kills_[edge.src.index()][l].conflicts_outside(universe,
                                                            slot_kills[k]);
    };

    // Candidate channels with §4.2 weights (reused scratch).
    std::vector<ChannelCandidate>& candidates = candidate_scratch_;
    candidates.clear();
    candidates.reserve(n * n);
    for (std::size_t l = 0; l < n; ++l) {
      const Replica& src = src_reps[l];
      // Does the source processor host one of t's replicas?
      std::size_t internal_slot = n;
      for (std::size_t k = 0; k < n; ++k) {
        if (chosen[k] == src.proc) {
          internal_slot = k;
          break;
        }
      }
      auto weight_to = [&](std::size_t k) {
        const ProcId p = chosen[k];
        return std::max(channel_arrival(src, edge, p), ready_.ready(p.index())) +
               costs_.exec(t, p);
      };
      if (internal_slot < n) {
        if (compatible(l, internal_slot)) {
          candidates.push_back(ChannelCandidate{
              l, internal_slot, weight_to(internal_slot), true});
        }
        // An incompatible internal source cannot feed any other slot
        // either (its kill set contains its own processor, which is in
        // the internal slot's kill set); the slot will fall back.
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          if (compatible(l, k)) {
            candidates.push_back(ChannelCandidate{l, k, weight_to(k), false});
          }
        }
      }
    }

    std::vector<std::size_t> chosen_src(n, kFullFallback);
    if (options_.policy == ChannelPolicy::kMcGreedy) {
      // Priority to internal channels, then non-decreasing weight.
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const ChannelCandidate& a, const ChannelCandidate& b) {
                         if (a.internal != b.internal) return a.internal;
                         return a.weight < b.weight;
                       });
      std::vector<char>& left_done = left_done_scratch_;
      left_done.assign(n, 0);
      for (const ChannelCandidate& c : candidates) {
        if (left_done[c.left] || chosen_src[c.right] != kFullFallback) continue;
        left_done[c.left] = 1;
        chosen_src[c.right] = c.left;
      }
    } else {
      // Binary search on the bottleneck weight T; feasibility via maximum
      // bipartite matching (Hopcroft–Karp).  With the compatibility
      // constraint a perfect matching may not exist; we then binary-search
      // the smallest T that achieves the maximum matching size and leave
      // the unmatched slots to the fallback.
      std::vector<double>& weights = weight_scratch_;
      weights.clear();
      weights.reserve(candidates.size());
      for (const ChannelCandidate& c : candidates) weights.push_back(c.weight);
      std::sort(weights.begin(), weights.end());
      weights.erase(std::unique(weights.begin(), weights.end()), weights.end());

      auto matching_at = [&](double threshold) {
        BipartiteGraph bg(n, n);
        for (const ChannelCandidate& c : candidates) {
          if (c.weight <= threshold) bg.add_edge(c.left, c.right);
        }
        return hopcroft_karp(bg);
      };
      if (!weights.empty()) {
        const std::size_t target = matching_at(weights.back()).size;
        std::size_t lo = 0;
        std::size_t hi = weights.size() - 1;
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (matching_at(weights[mid]).size >= target) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        const Matching m = matching_at(weights[lo]);
        for (std::size_t l = 0; l < n; ++l) {
          if (m.pair_of_left[l] != Matching::kUnmatched) {
            chosen_src[m.pair_of_left[l]] = l;
          }
        }
      }
    }
    if (!options_.repair_vulnerable) {
      for (std::size_t k = 0; k < n; ++k) {
        FTSCHED_REQUIRE(chosen_src[k] != kFullFallback,
                        "MC channel selection left a replica without input");
      }
    }
    return chosen_src;
  }

  // --- shared ----------------------------------------------------------------

  static const Replica* local_replica(const std::vector<Replica>& reps,
                                      ProcId p) {
    for (const Replica& r : reps) {
      if (r.proc == p) return &r;
    }
    return nullptr;
  }

  void commit(TaskId t, const std::vector<ProcId>& chosen,
              std::vector<Replica> replicas) {
    for (std::size_t k = 0; k < chosen.size(); ++k) {
      ready_.commit(chosen[k].index(), replicas[k].finish);
      ready_pess_.commit(chosen[k].index(), replicas[k].pess_finish);
    }
    schedule_.place_task(t, std::move(replicas));
  }

  const CostModel& costs_;
  const TaskGraph& g_;
  const Platform& platform_;
  EngineOptions options_;
  std::size_t m_;
  std::size_t replica_count_;
  ReplicatedSchedule schedule_;
  Rng rng_;
  std::priority_queue<AlphaKey> alpha_;
  std::vector<std::size_t> pending_;
  // Factored into core/placement.hpp so the online rescheduling policies
  // share the same incremental availability state (see reschedule.cpp).
  ProcReadyState ready_;
  ProcReadyState ready_pess_;
  std::vector<std::vector<KillSet>> kills_;  // per task, per replica
  std::vector<TaskId> repaired_;
  // Scratch reused across schedule_task calls (cleared, never shrunk):
  // per-task vectors in the O(v) loop otherwise allocate v times per run.
  std::vector<double> arrival_scratch_;
  std::vector<double> finish_scratch_;
  std::vector<double> best_scratch_;
  std::vector<ProcId> chosen_scratch_;
  std::vector<ChannelCandidate> candidate_scratch_;
  std::vector<double> weight_scratch_;
  std::vector<char> left_done_scratch_;
  std::vector<Channel> channel_scratch_;
  KillSet universe_scratch_;
  /// Per processor, per port lane: booked send intervals sorted by start
  /// (empty when the engine is communication-unaware; see
  /// core/comm_awareness.hpp).
  std::vector<std::vector<std::vector<Slot>>> send_lanes_;
};

}  // namespace

ReplicatedSchedule run_list_engine(const CostModel& costs,
                                   const EngineOptions& options) {
  Engine engine(costs, options);
  return engine.run();
}

}  // namespace ftsched::detail
