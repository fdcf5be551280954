#include "ftsched/sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ftsched/core/reschedule.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

double SimulationResult::task_completion(TaskId t) const {
  double best = std::numeric_limits<double>::infinity();
  for (const ReplicaOutcome& o : outcomes[t.index()]) {
    if (o.status == ReplicaStatus::kCompleted) best = std::min(best, o.finish);
  }
  return best;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// kRepair sorts after kCrash at equal time: a processor that crashes and
// restarts at the same instant still loses its running replica.  A
// repair-free run never pushes repair events, so the order of the first
// three is that of the paper's crash-only replay.
enum class EventType : std::uint8_t {
  kFinish = 0,
  kMessage = 1,
  kCrash = 2,
  kRepair = 3
};

struct Event {
  double time;
  std::uint32_t seq;  // FIFO tie-break for full determinism
  std::uint32_t a;    // finish: replica; message: dst replica; crash: proc
  std::uint32_t b;    // message: flat in-slot of dst
  EventType type;
};

// Min-queue order: earlier time, then finish < message < crash, then FIFO.
// The order is total (seq is unique), so any heap implementation pops the
// exact same event sequence — the bit-identity anchor of this rewrite.
struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.type != y.type) return x.type > y.type;
    return x.seq > y.seq;
  }
};

enum class State : std::uint8_t {
  kPending,
  kRunning,
  kCompleted,
  kDead,
  kCancelled
};

struct OutChannel {
  std::uint32_t dst;     // flat destination replica
  std::uint32_t slot;    // flat in-slot of the destination (slot arena index)
  double comm_duration;  // volume * delay between the scheduled processors
  double volume;         // edge volume: once a policy moved a replica, the
                         // duration is recomputed from the *current*
                         // processors (the same multiplication, so unmoved
                         // channels match comm_duration bit for bit)
};

constexpr std::uint32_t kNoReplica = std::numeric_limits<std::uint32_t>::max();

/// A point in the event loop's processing order.  At one time the loop
/// runs finishes and messages first (phase 0), then crash k of the
/// scenario (phase 2k+1), then the finishes and messages that crash made
/// due at that same time (phase 2k+2), then the next crash.  Within a
/// crash, `root` is the queue index of the replica on the crashing
/// processor whose loss the cascade started from; 0 otherwise.
struct Instant {
  double time;
  std::uint32_t phase;
  std::uint32_t root;

  friend bool operator<(const Instant& a, const Instant& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.phase != b.phase) return a.phase < b.phase;
    return a.root < b.root;
  }
};

}  // namespace

/// The simulator split along the static/dynamic line: everything derived
/// from the schedule alone is computed once at construction (flat replica
/// arrays, CSR out-channel and per-processor queues, pristine copies of the
/// countdown arrays, the wait-for order); every run resets only the
/// per-run state with fill/copy sweeps over flat arrays — structure-of-
/// arrays, no per-node touches, no allocation in steady state.
///
/// A run takes one of two paths.  A crash-only run of an acyclic schedule
/// under contention-free links, with no live policy, is the forward pass:
/// one visit per replica in wait-for order.  Every other run replays the
/// event loop on an arena-backed binary heap whose storage is retained
/// across runs.  The loop is the online one: a policy, when present and
/// not a no-op, is consulted on every crash and repair and may move pending
/// replicas.  Without one, the handlers execute the static schedule — the
/// paper's replay — and a repaired processor resumes the work it parked.
/// The forward pass reproduces that loop's crash-only runs bit for bit.
class ScheduleSimulator::Impl {
 public:
  Impl(const ReplicatedSchedule& schedule, const SimulationOptions& options)
      : schedule_(schedule),
        options_(options),
        g_(schedule.graph()),
        platform_(schedule.platform()),
        contention_free_(options.comm.kind == CommModelKind::kContentionFree),
        comm_(make_comm_model(schedule.platform().proc_count(), options.comm)) {
    build_static();
  }

  ScheduleSimulator::Summary run_summary(const FailureScenario& failures,
                                         ReschedulePolicy* policy) {
    if (policy != nullptr) policy->begin_run();
    // A no-op policy is never consulted: no view construction, no moves.
    policy_ = (policy == nullptr || policy->is_noop()) ? nullptr : policy;
    const std::size_t m = platform_.proc_count();
    for (const Crash& c : failures.crashes()) {
      FTSCHED_REQUIRE(c.proc.index() < m, "outage names an unknown processor");
    }
    if (forward_ && policy_ == nullptr && !failures.has_repairs()) {
      forward_pass(failures);
      return summarize();
    }
    reset();
    for (const Crash& c : failures.crashes()) {
      const auto p = static_cast<std::uint32_t>(c.proc.index());
      push(Event{c.time, seq_++, p, 0, EventType::kCrash});
      if (c.repair < kInf) {
        repair_at_[p] = c.repair;
        push(Event{c.repair, seq_++, p, 0, EventType::kRepair});
      }
    }
    for (std::size_t p = 0; p < m; ++p) {
      try_start(p, 0.0);
    }
    while (!events_.empty()) {
      const Event ev = pop();
      switch (ev.type) {
        case EventType::kFinish:
          on_finish(ev.a, ev.time);
          break;
        case EventType::kMessage:
          on_message(ev.a, ev.b, ev.time);
          break;
        case EventType::kCrash:
          on_crash(ev.a, ev.time);
          break;
        case EventType::kRepair:
          on_repair(ev.a, ev.time);
          break;
      }
    }
    return summarize();
  }

 private:
  // --- static structure (depends only on the schedule) ----------------------

  void build_static() {
    WaitForGraph wait_for = wait_for_graph(schedule_);
    const bool acyclic = wait_for.acyclic();
    offset_ = std::move(wait_for.offset);
    queue_offset_ = std::move(wait_for.queue_offset);
    queue_ = std::move(wait_for.queue);
    const std::size_t v = g_.task_count();
    const std::size_t total = offset_[v];
    task_of_ = std::move(wait_for.task);
    proc_of_.resize(total);
    duration_.resize(total);

    // In-edge slots live in one arena: replica `flat` owns the contiguous
    // range [in_offset_[flat], in_offset_[flat + 1]), one slot per in-edge
    // of its task, in in-edge-list order.  slot_of_edge[e] is the position
    // of edge e within its destination's in-edge list.
    std::vector<std::size_t> slot_of_edge(g_.edge_count(), 0);
    in_offset_.assign(total + 1, 0);
    unsatisfied0_.assign(total, 0);
    for (TaskId t : g_.tasks()) {
      const auto in = g_.in_edges(t);
      for (std::size_t pos = 0; pos < in.size(); ++pos) {
        slot_of_edge[in[pos]] = pos;
      }
      const auto& reps = schedule_.replicas(t);
      for (std::size_t k = 0; k < reps.size(); ++k) {
        const std::size_t flat = offset_[t.index()] + k;
        proc_of_[flat] = static_cast<std::uint32_t>(reps[k].proc.index());
        duration_[flat] = reps[k].finish - reps[k].start;
        in_offset_[flat + 1] = in.size();
        unsatisfied0_[flat] = static_cast<std::uint32_t>(in.size());
      }
    }
    for (std::size_t flat = 0; flat < total; ++flat) {
      in_offset_[flat + 1] += in_offset_[flat];
    }
    const std::size_t total_slots = in_offset_[total];
    live_sources0_.assign(total_slots, 0);

    // Channels -> CSR outgoing lists and live-source counts.  Two passes:
    // count, then fill, preserving the per-source channel order of the
    // schedule (edge-major, channel order within the edge).
    out_offset_.assign(total + 1, 0);
    for (std::size_t e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      for (const Channel& c : schedule_.channels(e)) {
        ++out_offset_[offset_[edge.src.index()] + c.src_replica + 1];
      }
    }
    for (std::size_t flat = 0; flat < total; ++flat) {
      out_offset_[flat + 1] += out_offset_[flat];
    }
    out_.resize(out_offset_[total]);
    std::vector<std::size_t> fill(total, 0);
    for (std::size_t e = 0; e < g_.edge_count(); ++e) {
      const Edge& edge = g_.edge(e);
      for (const Channel& c : schedule_.channels(e)) {
        const std::size_t src = offset_[edge.src.index()] + c.src_replica;
        const std::size_t dst = offset_[edge.dst.index()] + c.dst_replica;
        const std::size_t slot = in_offset_[dst] + slot_of_edge[e];
        const double d = platform_.delay(ProcId{proc_of_[src]}, ProcId{proc_of_[dst]});
        out_[out_offset_[src] + fill[src]++] =
            OutChannel{static_cast<std::uint32_t>(dst),
                       static_cast<std::uint32_t>(slot), edge.volume * d,
                       edge.volume};
        ++live_sources0_[slot];
      }
    }

    // Exit-task replica ranges, for the summary fold.
    for (TaskId t : g_.exit_tasks()) {
      exit_ranges_.emplace_back(offset_[t.index()], offset_[t.index() + 1]);
    }

    if (contention_free_ && acyclic) {
      build_forward(std::move(wait_for.order),
                    std::move(wait_for.queue_index));
    }

    // The outcome arrays both paths write; each path sizes its own state
    // on its first run (forward_pass(), reset()), and later runs only
    // overwrite it.
    state_.assign(total, State::kPending);
    actual_start_.assign(total, 0.0);
    actual_finish_.assign(total, 0.0);
    // The pending_on listing stamps; never reset (see listed_).
    listed_.assign(total, 0);
  }

  /// The forward pass's static part: the topological order and each
  /// replica's queue index.  The pass stays off for a schedule it cannot
  /// replay exactly: a slot with no channel (its replica waits forever), or
  /// a negative or infinite duration or comm time.
  void build_forward(std::vector<std::uint32_t> order,
                     std::vector<std::uint32_t> queue_index) {
    for (const double d : duration_) {
      if (!(d >= 0.0 && d < kInf)) return;
    }
    for (const OutChannel& ch : out_) {
      if (!(ch.comm_duration >= 0.0 && ch.comm_duration < kInf)) return;
    }
    for (const std::uint32_t sources : live_sources0_) {
      if (sources == 0) return;
    }
    order_ = std::move(order);
    queue_index_ = std::move(queue_index);
    forward_ = true;
  }

  // --- per-run reset --------------------------------------------------------

  void reset() {
    // Contiguous fill/copy sweeps over the flat arrays — this is the whole
    // per-run cost of the build-once split, so it must stay memset-shaped.
    std::fill(state_.begin(), state_.end(), State::kPending);
    std::fill(actual_start_.begin(), actual_start_.end(), 0.0);
    std::fill(actual_finish_.begin(), actual_finish_.end(), 0.0);
    const std::size_t m = platform_.proc_count();
    unsatisfied_ = unsatisfied0_;
    satisfied_.assign(live_sources0_.size(), 0);
    earliest_.assign(live_sources0_.size(), kInf);
    live_sources_ = live_sources0_;
    cur_proc_ = proc_of_;
    cur_duration_ = duration_;
    head_.assign(queue_offset_.begin(), queue_offset_.end() - 1);
    busy_.assign(m, 0);
    crashed_.assign(m, 0);
    running_.assign(m, kNoReplica);
    run_finish_.assign(m, 0.0);
    repair_at_.assign(m, kInf);
    moved_pool_.resize(m);
    for (auto& pool : moved_pool_) pool.clear();  // storage retained
    events_.clear();  // storage retained
    // Worst-case live events: one finish per replica + one message per
    // channel in flight + the crashes and repairs.  Reserving the
    // replica+channel part on the first event-loop run (a simulator that
    // only runs the forward pass never needs the heap) makes the heap
    // allocation-free for every run whose outage count fits the slack.
    events_.reserve(proc_of_.size() + out_.size() + 16);
    seq_ = 0;
    messages_delivered_ = 0;
    moves_applied_ = 0;
    repairs_applied_ = 0;
    // Contention-aware models are stateful (they book delivery lanes as
    // messages flow); rewind instead of reallocating.  The contention-free
    // default is stateless and bypassed entirely in on_finish.
    if (!contention_free_) comm_->reset();
  }

  void push(const Event& ev) {
    events_.push_back(ev);
    std::push_heap(events_.begin(), events_.end(), EventLater{});
  }

  Event pop() {
    std::pop_heap(events_.begin(), events_.end(), EventLater{});
    const Event ev = events_.back();
    events_.pop_back();
    return ev;
  }

  // --- event handlers -------------------------------------------------------

  /// Starts the next replica on an alive, idle `p`.  The in-order queue
  /// scan is the static rule: skip replicas that moved away or are
  /// resolved, stop at the first one not yet ready.  Replicas a policy
  /// moved onto p do NOT join that queue — they sit in a fill-in pool
  /// consulted when the scan is blocked or exhausted.  Tail-appending them
  /// instead would make every rescue useless (it runs after the whole
  /// static queue) and deadlock-prone (a blocked static entry waiting on a
  /// moved replica parked behind another blocked entry).
  void try_start(std::size_t p, double now) {
    if (crashed_[p] || busy_[p]) return;
    const std::size_t end = queue_offset_[p + 1];
    for (std::size_t& head = head_[p]; head < end; ++head) {
      const std::uint32_t flat = queue_[head];
      if (cur_proc_[flat] != p) continue;  // moved away by a policy
      const State s = state_[flat];
      if (s == State::kCancelled || s == State::kDead ||
          s == State::kCompleted) {
        continue;
      }
      if (s != State::kPending || unsatisfied_[flat] > 0) break;  // blocked
      start(p, flat, now);
      return;
    }
    // Fill in with the first ready moved replica, in arrival order (the
    // policies emit moves highest-priority-first, so arrival order is the
    // policy's own order).  Entries that moved on or resolved are dropped.
    auto& pool = moved_pool_[p];
    if (pool.empty()) return;
    std::size_t keep = 0;
    std::uint32_t chosen = kNoReplica;
    for (const std::uint32_t flat : pool) {
      if (cur_proc_[flat] != p || state_[flat] != State::kPending) continue;
      if (chosen == kNoReplica && unsatisfied_[flat] == 0) {
        chosen = flat;  // leaves the pool by starting
        continue;
      }
      pool[keep++] = flat;
    }
    pool.resize(keep);
    if (chosen != kNoReplica) start(p, chosen, now);
  }

  void start(std::size_t p, std::uint32_t flat, double now) {
    state_[flat] = State::kRunning;
    busy_[p] = 1;
    running_[p] = flat;
    actual_start_[flat] = now;
    const double finish = now + cur_duration_[flat];
    run_finish_[p] = finish;
    push(Event{finish, seq_++, flat, 0, EventType::kFinish});
  }

  void on_finish(std::uint32_t flat, double now) {
    if (state_[flat] != State::kRunning) return;  // killed by a crash
    state_[flat] = State::kCompleted;
    actual_finish_[flat] = now;
    const std::size_t p = cur_proc_[flat];
    busy_[p] = 0;
    running_[p] = kNoReplica;
    // A queue-scan start is always the head; a fill-in start is not, and
    // must leave the blocked head alone.
    if (head_[p] < queue_offset_[p + 1] && queue_[head_[p]] == flat) {
      ++head_[p];
    }
    // Emit all outgoing messages (active replication: send unconditionally).
    const std::size_t out_end = out_offset_[flat + 1];
    for (std::size_t i = out_offset_[flat]; i < out_end; ++i) {
      const OutChannel& ch = out_[i];
      const std::size_t dp = cur_proc_[ch.dst];
      if (p == dp) {
        queue_message(ch, now);
        continue;
      }
      // Until a policy moves a replica, every channel joins its scheduled
      // processors and the precomputed duration is exact.
      const double d =
          moves_applied_ == 0
              ? ch.comm_duration
              : ch.volume * platform_.delay(ProcId{p}, ProcId{dp});
      // Contention-free arrival is ready + duration exactly; skipping the
      // virtual dispatch changes no double.
      const double arrival =
          contention_free_ ? now + d : comm_->deliver(ProcId{p}, now, d);
      ++messages_delivered_;
      queue_message(ch, arrival);
    }
    try_start(p, now);
  }

  /// Queues a message only if it can win its in-slot: on_message acts on
  /// the first arrival alone.  A queued message with an earlier time, or
  /// the same time and a lower seq, pops first, so skipping a later one
  /// leaves the sequence of events that do something unchanged.  An
  /// infinite arrival is queued while the slot has none queued yet
  /// (earliest_ is +inf then too): it still pops at +inf and satisfies it.
  void queue_message(const OutChannel& ch, double arrival) {
    const double earliest = earliest_[ch.slot];
    if (earliest < kInf && arrival >= earliest) return;
    earliest_[ch.slot] = arrival;
    push(Event{arrival, seq_++, ch.dst, ch.slot, EventType::kMessage});
  }

  void on_message(std::uint32_t dst, std::uint32_t slot, double now) {
    if (satisfied_[slot]) return;  // first input wins; ignore the rest
    satisfied_[slot] = 1;
    FTSCHED_ASSERT(unsatisfied_[dst] > 0, "satisfied count underflow");
    --unsatisfied_[dst];
    if (state_[dst] == State::kPending && unsatisfied_[dst] == 0) {
      try_start(cur_proc_[dst], now);
    }
  }

  void on_crash(std::uint32_t p, double now) {
    if (crashed_[p]) return;
    crashed_[p] = 1;
    // The running replica dies first (it is the queue head, so this is the
    // static kill order).  A replica finishing exactly at the crash instant
    // counts as completed: its finish event sorts before the crash.
    if (running_[p] != kNoReplica) {
      const std::uint32_t flat = running_[p];
      running_[p] = kNoReplica;
      if (state_[flat] == State::kRunning) {
        mark_lost(flat, State::kDead, now);
      }
    }
    busy_[p] = 0;
    consult(OnlineEvent::Kind::kCrash, p, now);
    // With a scheduled repair, the pending replicas still on p are parked
    // through the outage and resume when the processor returns.  A
    // permanent crash kills them in queue order, then the fill-in pool in
    // arrival order.
    if (repair_at_[p] > now && repair_at_[p] < kInf) return;
    const std::size_t end = queue_offset_[p + 1];
    for (std::size_t i = head_[p]; i < end; ++i) {
      const std::uint32_t flat = queue_[i];
      if (cur_proc_[flat] == p && state_[flat] == State::kPending) {
        mark_lost(flat, State::kDead, now);
      }
    }
    for (const std::uint32_t flat : moved_pool_[p]) {
      if (cur_proc_[flat] == p && state_[flat] == State::kPending) {
        mark_lost(flat, State::kDead, now);
      }
    }
    moved_pool_[p].clear();
  }

  void on_repair(std::uint32_t p, double now) {
    if (!crashed_[p]) return;
    crashed_[p] = 0;
    repair_at_[p] = kInf;
    ++repairs_applied_;
    consult(OnlineEvent::Kind::kRepair, p, now);
    try_start(p, now);
  }

  /// Marks a replica dead/cancelled and propagates doomed-input
  /// cancellations downstream.
  void mark_lost(std::uint32_t flat, State lost_state, double now) {
    FTSCHED_ASSERT(state_[flat] == State::kPending ||
                       state_[flat] == State::kRunning,
                   "losing a replica twice");
    state_[flat] = lost_state;
    const std::size_t out_end = out_offset_[flat + 1];
    for (std::size_t i = out_offset_[flat]; i < out_end; ++i) {
      const OutChannel& ch = out_[i];
      FTSCHED_ASSERT(live_sources_[ch.slot] > 0, "live source count underflow");
      if (--live_sources_[ch.slot] == 0 && !satisfied_[ch.slot] &&
          state_[ch.dst] == State::kPending) {
        const std::size_t dp = cur_proc_[ch.dst];
        mark_lost(ch.dst, State::kCancelled, now);
        // Skipping the cancelled head may unblock the processor.
        if (!crashed_[dp]) try_start(dp, now);
      }
    }
  }

  // --- the forward pass -----------------------------------------------------

  /// A crash-only run without events: one visit per replica, in the wait-for
  /// graph's topological order, so every source and the queue predecessor
  /// are resolved first, and each resolved replica pushes its outcome into
  /// the in-slots it feeds.  This is the schedulers' start-time recurrence
  /// under a crash set, with the event loop's tie rules:
  ///  * a slot is ready at the earliest finish + comm over its completed
  ///    sources; a slot whose sources are all lost dooms its replica at the
  ///    instant the last one was lost, and a live processor skips a doomed
  ///    replica at max(avail, doom);
  ///  * otherwise the replica starts at s = max(avail, ready) if that comes
  ///    before its processor's crash, and completes iff s + d <= crash (a
  ///    finish at the crash instant counts); else it is dead at the crash
  ///    and its processor takes nothing else.
  /// Instants carry the event loop's processing order at equal times (see
  /// Instant), which decides dead against cancelled and started against
  /// not started.  Writes state_, actual_start_ and actual_finish_ — all
  /// that summarize() and result() read — and allocates nothing.
  void forward_pass(const FailureScenario& failures) {
    const std::size_t m = platform_.proc_count();
    crash_at_.assign(m, Instant{kInf, 0, 0});
    const std::vector<Crash>& crashes = failures.crashes();
    for (std::size_t k = 0; k < crashes.size(); ++k) {
      crash_at_[crashes[k].proc.index()] =
          Instant{crashes[k].time, static_cast<std::uint32_t>(2 * k + 1), 0};
    }
    avail_.assign(m, Instant{0.0, 0, 0});
    slot_arrival_.assign(live_sources0_.size(), Instant{kInf, 0, 0});
    slot_lost_.assign(live_sources0_.size(), Instant{0.0, 0, 0});
    messages_delivered_ = 0;
    moves_applied_ = 0;
    repairs_applied_ = 0;
    for (const std::uint32_t flat : order_) {
      // Every source has resolved: a slot with no arrival has lost them all.
      Instant ready{0.0, 0, 0};
      Instant doom{kInf, 0, 0};
      bool doomed = false;
      for (std::size_t slot = in_offset_[flat]; slot < in_offset_[flat + 1];
           ++slot) {
        if (slot_arrival_[slot].time < kInf) {
          if (ready < slot_arrival_[slot]) ready = slot_arrival_[slot];
        } else if (!doomed || slot_lost_[slot] < doom) {
          doom = slot_lost_[slot];
          doomed = true;
        }
      }

      const std::size_t p = proc_of_[flat];
      const Instant crash = crash_at_[p];
      // A crash kills its processor's running replica, then the pending
      // ones in queue order; each loss cascades before the next.
      const Instant killed{crash.time, crash.phase, queue_index_[flat]};
      Instant& avail = avail_[p];
      Instant lost = killed;
      actual_start_[flat] = 0.0;
      if (doomed && doom < killed) {
        state_[flat] = State::kCancelled;
        lost = doom;
        if (avail < doom) avail = doom;
      } else {
        state_[flat] = State::kDead;
        const Instant start = avail < ready ? ready : avail;
        if (!doomed && start < crash) {
          const double s = start.time;
          const double f = s + duration_[flat];
          actual_start_[flat] = s;
          if (f <= crash.time) {
            // A finish due at its own start runs right after the phase
            // that started it (the next even one).
            state_[flat] = State::kCompleted;
            actual_finish_[flat] = f;
            avail = Instant{f, f == s ? (start.phase + 1) & ~1u : 0u, 0};
            complete(flat, p, avail);
            continue;
          }
        }
        avail = killed;
      }
      for (std::size_t i = out_offset_[flat]; i < out_offset_[flat + 1]; ++i) {
        Instant& last = slot_lost_[out_[i].slot];
        if (last < lost) last = lost;
      }
    }
  }

  /// The forward pass's delivery of a replica that completed at `finish`:
  /// every out-channel's message, at the sender's finish instant for a
  /// local channel (handled in that same phase) and comm time later for a
  /// remote one.
  void complete(std::uint32_t flat, std::size_t p, const Instant& finish) {
    for (std::size_t i = out_offset_[flat]; i < out_offset_[flat + 1]; ++i) {
      const OutChannel& ch = out_[i];
      Instant arrival = finish;
      if (proc_of_[ch.dst] != p) {
        ++messages_delivered_;
        arrival.time += ch.comm_duration;
        if (arrival.time != finish.time) arrival.phase = 0;
      }
      Instant& best = slot_arrival_[ch.slot];
      if (arrival < best) best = arrival;
    }
  }

  // --- policy decisions -----------------------------------------------------

  /// The OnlineView the policies observe: a window onto the current
  /// (post-move) dynamic state.
  class ViewAdapter final : public OnlineView {
   public:
    explicit ViewAdapter(const Impl& impl) : impl_(impl) {}

    [[nodiscard]] std::size_t proc_count() const override {
      return impl_.crashed_.size();
    }
    [[nodiscard]] bool alive(std::size_t p) const override {
      return impl_.crashed_[p] == 0;
    }
    [[nodiscard]] bool pending(TaskId t, std::size_t replica) const override {
      return impl_.state_[impl_.offset_[t.index()] + replica] ==
             State::kPending;
    }
    [[nodiscard]] std::size_t proc_of(TaskId t,
                                      std::size_t replica) const override {
      return impl_.cur_proc_[impl_.offset_[t.index()] + replica];
    }
    [[nodiscard]] double backlog(std::size_t p) const override {
      return impl_.busy_[p] ? impl_.run_finish_[p] : 0.0;
    }
    void pending_on(
        std::size_t p,
        std::vector<std::pair<TaskId, std::size_t>>& out) const override {
      // A replica moved away and back before the queue scan passed it is
      // both in the queue and in the pool, and one moved away and back
      // twice before the pool was pruned is in the pool twice: the listing
      // stamp keeps its first entry only.
      const std::uint64_t listing = impl_.next_listing();
      const std::size_t end = impl_.queue_offset_[p + 1];
      for (std::size_t i = impl_.head_[p]; i < end; ++i) {
        append_if_pending(p, impl_.queue_[i], listing, out);
      }
      // Replicas moved *onto* p live in the fill-in pool, not the queue.
      for (const std::uint32_t flat : impl_.moved_pool_[p]) {
        append_if_pending(p, flat, listing, out);
      }
    }
    [[nodiscard]] bool hosts_live_replica(TaskId t,
                                          std::size_t p) const override {
      for (std::size_t flat = impl_.offset_[t.index()];
           flat < impl_.offset_[t.index() + 1]; ++flat) {
        if (impl_.cur_proc_[flat] != p) continue;
        const State s = impl_.state_[flat];
        if (s == State::kPending || s == State::kRunning ||
            s == State::kCompleted) {
          return true;
        }
      }
      return false;
    }

   private:
    void append_if_pending(
        std::size_t p, std::uint32_t flat, std::uint64_t listing,
        std::vector<std::pair<TaskId, std::size_t>>& out) const {
      if (impl_.cur_proc_[flat] != p) return;  // moved away
      if (impl_.state_[flat] != State::kPending) return;
      if (impl_.listed_[flat] == listing) return;  // already listed
      impl_.listed_[flat] = listing;
      const std::uint32_t t = impl_.task_of_[flat];
      out.emplace_back(TaskId{t}, flat - impl_.offset_[t]);
    }

    const Impl& impl_;
  };

  /// Hands a crash or repair to the live policy, if any, and applies the
  /// moves it emits.
  void consult(OnlineEvent::Kind kind, std::size_t p, double now) {
    if (policy_ == nullptr) return;
    moves_scratch_.clear();
    const ViewAdapter view(*this);
    policy_->on_event(view, OnlineEvent{kind, p, now}, moves_scratch_);
    apply_moves(now);
  }

  /// A stamp no replica carries yet, for one pending_on listing.
  std::uint64_t next_listing() const { return ++listing_; }

  /// Applies the policy's moves in emitted order, then wakes the affected
  /// processors.  Structural violations (unknown replica, dead target,
  /// non-pending replica) are policy bugs and fail loudly.
  void apply_moves(double now) {
    for (const ReplicaMove& mv : moves_scratch_) {
      FTSCHED_REQUIRE(mv.task.index() < g_.task_count(),
                      "policy move: unknown task");
      const std::size_t count =
          offset_[mv.task.index() + 1] - offset_[mv.task.index()];
      FTSCHED_REQUIRE(mv.replica < count, "policy move: unknown replica");
      const std::uint32_t flat =
          static_cast<std::uint32_t>(offset_[mv.task.index()] + mv.replica);
      const std::size_t to = mv.to.index();
      FTSCHED_REQUIRE(to < crashed_.size(), "policy move: unknown processor");
      FTSCHED_REQUIRE(crashed_[to] == 0, "policy move: target is crashed");
      FTSCHED_REQUIRE(state_[flat] == State::kPending,
                      "policy move: replica is not pending");
      FTSCHED_REQUIRE(std::isfinite(mv.duration) && mv.duration >= 0.0,
                      "policy move: duration must be finite and >= 0");
      if (cur_proc_[flat] == to) continue;  // staying put: not a move
      cur_proc_[flat] = static_cast<std::uint32_t>(to);
      cur_duration_[flat] = mv.duration;
      moved_pool_[to].push_back(flat);
      ++moves_applied_;
    }
    // A moved replica may be ready right now, and its departure may have
    // unblocked the queue behind it; wake targets in emitted order, then
    // every live processor (deterministic sweep, try_start is idempotent).
    for (const ReplicaMove& mv : moves_scratch_) {
      if (crashed_[mv.to.index()] == 0) try_start(mv.to.index(), now);
    }
    for (std::size_t p = 0; p < crashed_.size(); ++p) {
      if (crashed_[p] == 0) try_start(p, now);
    }
  }

  // --- results --------------------------------------------------------------

  /// Success + achieved latency straight off the flat state arrays: the
  /// latency fold of result() without materialising per-replica outcomes.
  ScheduleSimulator::Summary summarize() const {
    ScheduleSimulator::Summary s;
    s.moves = moves_applied_;
    s.repairs = repairs_applied_;
    s.success = true;
    double latency = 0.0;
    for (const auto& [begin, end] : exit_ranges_) {
      double done = kInf;
      for (std::size_t flat = begin; flat < end; ++flat) {
        if (state_[flat] == State::kCompleted) {
          done = std::min(done, actual_finish_[flat]);
        }
      }
      if (done == kInf) {
        s.success = false;
        s.latency = kInf;
        return s;
      }
      latency = std::max(latency, done);
    }
    s.latency = latency;
    return s;
  }

 public:
  /// The last run's per-replica outcomes and counters.
  SimulationResult result() const {
    SimulationResult r;
    r.outcomes.resize(g_.task_count());
    for (TaskId t : g_.tasks()) {
      const std::size_t count = offset_[t.index() + 1] - offset_[t.index()];
      r.outcomes[t.index()].resize(count);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t flat = offset_[t.index()] + k;
        ReplicaOutcome& o = r.outcomes[t.index()][k];
        switch (state_[flat]) {
          case State::kCompleted:
            o.status = ReplicaStatus::kCompleted;
            o.start = actual_start_[flat];
            o.finish = actual_finish_[flat];
            ++r.completed_replicas;
            break;
          case State::kDead:
            o.status = ReplicaStatus::kDead;
            o.start = actual_start_[flat];
            ++r.dead_replicas;
            break;
          case State::kCancelled:
            o.status = ReplicaStatus::kCancelled;
            ++r.cancelled_replicas;
            break;
          case State::kPending:
          case State::kRunning:
            o.status = ReplicaStatus::kNotStarted;
            break;
        }
      }
    }
    r.messages_delivered = messages_delivered_;
    r.success = true;
    double latency = 0.0;
    for (TaskId t : g_.exit_tasks()) {
      const double done = r.task_completion(t);
      if (done == kInf) {
        r.success = false;
        r.latency = kInf;
        return r;
      }
      latency = std::max(latency, done);
    }
    r.latency = latency;
    return r;
  }

 private:
  const ReplicatedSchedule& schedule_;
  SimulationOptions options_;
  const TaskGraph& g_;
  const Platform& platform_;
  bool contention_free_;
  std::unique_ptr<CommModel> comm_;  ///< built once, reset per run

  // Static (built once from the schedule).
  std::vector<std::size_t> offset_;       ///< task -> flat replica range
  std::vector<std::uint32_t> proc_of_;    ///< flat replica -> processor
  std::vector<std::uint32_t> task_of_;    ///< flat replica -> task index
  std::vector<double> duration_;
  std::vector<std::size_t> out_offset_;   ///< flat replica -> out_ CSR range
  std::vector<OutChannel> out_;
  std::vector<std::size_t> in_offset_;    ///< flat replica -> slot arena range
  std::vector<std::uint32_t> unsatisfied0_;
  std::vector<std::uint32_t> live_sources0_;
  std::vector<std::size_t> queue_offset_;  ///< processor -> queue_ CSR range
  std::vector<std::uint32_t> queue_;
  std::vector<std::pair<std::size_t, std::size_t>> exit_ranges_;
  // Forward pass (built when forward_): see build_forward().
  bool forward_ = false;
  std::vector<std::uint32_t> order_;        ///< wait-for topological order
  std::vector<std::uint32_t> queue_index_;  ///< flat replica -> queue_ index

  // Dynamic (overwritten by reset(); flat except the fill-in pools).
  std::vector<State> state_;
  std::vector<double> actual_start_;
  std::vector<double> actual_finish_;
  std::vector<std::uint32_t> unsatisfied_;   ///< copied from unsatisfied0_
  std::vector<std::uint8_t> satisfied_;      ///< slot arena, zero-filled
  std::vector<double> earliest_;  ///< slot arena: earliest queued arrival
  std::vector<std::uint32_t> live_sources_;  ///< copied from live_sources0_
  std::vector<std::uint32_t> cur_proc_;      ///< copied from proc_of_
  std::vector<double> cur_duration_;         ///< copied from duration_
  std::vector<std::size_t> head_;  ///< per proc: queue_ cursor of the scan
  std::vector<std::uint8_t> busy_;
  std::vector<std::uint8_t> crashed_;
  /// Per proc: replicas a policy moved here, in arrival order.  Fill-in
  /// work for when the in-order queue scan is blocked or exhausted.
  std::vector<std::vector<std::uint32_t>> moved_pool_;
  std::vector<std::uint32_t> running_;  ///< per proc: running flat replica
  std::vector<double> run_finish_;      ///< per proc: running finish time
  std::vector<double> repair_at_;       ///< per proc: scheduled repair time
  std::vector<Event> events_;  ///< binary min-heap, storage retained
  // Forward pass state: per in-slot, the earliest arrival (time +inf until
  // a source completes) and the latest source loss; per processor, when it
  // is free for its next replica and when it crashes.
  std::vector<Instant> slot_arrival_;
  std::vector<Instant> slot_lost_;
  std::vector<Instant> avail_;
  std::vector<Instant> crash_at_;
  std::uint32_t seq_ = 0;
  std::size_t messages_delivered_ = 0;
  std::size_t moves_applied_ = 0;
  std::size_t repairs_applied_ = 0;
  ReschedulePolicy* policy_ = nullptr;  ///< live policy of the current run
  std::vector<ReplicaMove> moves_scratch_;
  // Per replica, the pending_on listing that last appended it.  The 64-bit
  // stamp only grows, across runs too, so nothing is reset between listings.
  mutable std::vector<std::uint64_t> listed_;
  mutable std::uint64_t listing_ = 0;
};

ScheduleSimulator::ScheduleSimulator(const ReplicatedSchedule& schedule,
                                     const SimulationOptions& options)
    : impl_(std::make_unique<Impl>(schedule, options)) {}

ScheduleSimulator::~ScheduleSimulator() = default;
ScheduleSimulator::ScheduleSimulator(ScheduleSimulator&&) noexcept = default;
ScheduleSimulator& ScheduleSimulator::operator=(ScheduleSimulator&&) noexcept =
    default;

ScheduleSimulator::Summary ScheduleSimulator::run_summary(
    const FailureScenario& failures, ReschedulePolicy* policy) {
  return impl_->run_summary(failures, policy);
}

SimulationResult ScheduleSimulator::result() const { return impl_->result(); }

SimulationResult simulate(const ReplicatedSchedule& schedule,
                          const FailureScenario& failures,
                          const SimulationOptions& options) {
  ScheduleSimulator simulator(schedule, options);
  (void)simulator.run_summary(failures);
  return simulator.result();
}

}  // namespace ftsched
