// Online rescheduling: the schedule→simulate inversion must be a strict
// generalisation of the static path.  `policy=none` and a null policy are
// bit-exact with a fresh simulate() over a repair-free scenario; with
// repairs, the sweep's static replay is exactly the `none` run and
// ≤ ε repaired outages never fail; an
// empty scenario makes *every* registered policy reproduce the static run;
// the policy sweep axis is deterministic across thread counts and matches
// the per-coordinate reference; the shard protocol round-trips the new policy
// field and still reads pre-policy shards (no "policies" header field, no
// "pol" record field) as an implicit `none` column.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "per_coordinate.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

/// Uniform draw from {0, ..., n-1}.
std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::unique_ptr<Workload> random_workload(Rng& rng, std::size_t procs,
                                          std::size_t tasks) {
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

/// A scenario of `count` random victims at random instants — beyond the
/// tolerated ε half the time, so failed runs are exercised too.
FailureScenario random_scenario(Rng& rng, std::size_t procs, double anchor) {
  const std::size_t count = below(rng, procs);
  const auto victims = rng.sample_without_replacement(procs, count);
  FailureScenario scenario;
  for (const std::size_t v : victims) {
    scenario.add(ProcId{v}, rng.uniform(0.0, 1.5) * anchor);
  }
  return scenario;
}

void expect_same(const ScheduleSimulator::Summary& got,
                 const ScheduleSimulator::Summary& want) {
  EXPECT_EQ(got.success, want.success);
  if (std::isinf(want.latency)) {
    EXPECT_TRUE(std::isinf(got.latency));
  } else {
    EXPECT_EQ(got.latency, want.latency);
  }
}

TEST(OnlinePolicy, NoneAndNullPolicyMatchStaticBitExact) {
  proptest::check(
      "run_summary(crash-only scenario, none/null) == simulate(), bit for "
      "bit",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 4);
        const auto w = random_workload(rng, procs, 12 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{eps, 0});
        ScheduleSimulator sim(s);
        const ReschedulePolicyPtr none = make_reschedule_policy("none");
        ASSERT_TRUE(none->is_noop());

        for (std::size_t i = 0; i < 8; ++i) {
          const FailureScenario scenario =
              random_scenario(rng, procs, s.lower_bound());
          EXPECT_FALSE(scenario.has_repairs());
          const SimulationResult fresh = simulate(s, scenario);
          const ScheduleSimulator::Summary want{fresh.success, fresh.latency};

          const auto null_run = sim.run_summary(scenario, nullptr);
          expect_same(null_run, want);
          EXPECT_EQ(null_run.moves, 0u);
          EXPECT_EQ(null_run.repairs, 0u);

          const auto none_run = sim.run_summary(scenario, none.get());
          expect_same(none_run, want);
          EXPECT_EQ(none_run.moves, 0u);
          EXPECT_EQ(none_run.repairs, 0u);
        }
      },
      {.iterations = 10});
}

TEST(OnlinePolicy, EmptyScenarioMatchesStaticForEveryRegisteredPolicy) {
  proptest::check(
      "zero crashes: null == none == every registered policy",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 3);
        const auto w = random_workload(rng, procs, 12 + below(rng, 12));
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
        ScheduleSimulator sim(s);
        const ScheduleSimulator::Summary want = sim.run_summary();
        ASSERT_TRUE(want.success);

        // The registry lists `none` too, so null == none is checked here.
        for (const std::string& name : PolicyRegistry::global().names()) {
          const ReschedulePolicyPtr policy = make_reschedule_policy(name);
          policy->prepare(s);
          const auto got = sim.run_summary({}, policy.get());
          expect_same(got, want);
          EXPECT_EQ(got.moves, 0u) << "policy '" << name
                                   << "' moved replicas with zero crashes";
        }
      },
      {.iterations = 6});
}

TEST(OnlinePolicy, DrawnCellStaticReplayIsTheNoneRun) {
  // `none` means one thing on every path: simulate_drawn_cell (the sweep's
  // static replay) reports exactly what run_summary(scenario, none) gives
  // for the same draw — repairs included.
  std::size_t repair_mattered = 0;
  proptest::check(
      "simulate_drawn_cell <A>-Success == run_summary(repairs, none)",
      [&repair_mattered](Rng& rng, std::uint64_t) {
        const std::size_t procs = 5 + below(rng, 3);
        const auto w = random_workload(rng, procs, 12 + below(rng, 16));
        InstanceOptions options;
        options.epsilon = 1 + below(rng, 2);
        options.seed = rng();
        const InstanceSchedules schedules =
            build_instance_schedules(*w, options);
        const CellDraw draw = draw_instance_cell(
            schedules, rng, CrashTimeLaw::parse("uniform:hi=1"),
            FailureModel::parse("repair:p=0.6,mttr=0.5"));
        const SeriesSample sample =
            simulate_drawn_cell(schedules, draw, nullptr);
        const ReschedulePolicyPtr none = make_reschedule_policy("none");

        for (const InstanceSchedules::Algo& a : schedules.algos) {
          const double anchor = a.schedule->lower_bound();
          FailureScenario scenario;
          FailureScenario permanent_only;
          for (std::size_t i = 0; i < draw.victims.size(); ++i) {
            const double crash = draw.unit_times[i] * anchor;
            const double repair = crash + draw.unit_repair_delays[i] * anchor;
            scenario.add(ProcId{draw.victims[i]}, crash,
                         repair > crash
                             ? repair
                             : std::numeric_limits<double>::infinity());
            permanent_only.add(ProcId{draw.victims[i]}, crash);
          }
          const ScheduleSimulator::Summary got =
              a.simulator->run_summary(scenario, none.get());
          EXPECT_EQ(sample.at(a.success_series), got.success ? 1.0 : 0.0)
              << a.algo.key;
          if (got.success) {
            EXPECT_EQ(sample.at(a.drawn_series),
                      normalized_latency(got.latency, w->costs()))
                << a.algo.key;
          }
          EXPECT_EQ(got.moves, 0u);
          const ScheduleSimulator::Summary permanent =
              a.simulator->run_summary(permanent_only);
          if (permanent.success != got.success ||
              permanent.latency != got.latency) {
            ++repair_mattered;
          }
        }
      },
      {.iterations = 12});
  // Otherwise the property could pass with repairs silently dropped.
  EXPECT_GT(repair_mattered, 0u);
}

TEST(OnlinePolicy, AtMostEpsilonRepairedOutagesNeverFail) {
  // Theorem 4.1 with restarts: ≤ ε processors crash at any time and come
  // back after any delay; parking their pending replicas must not cost the
  // run its guarantee.  (Past ε, parking can lose a run a permanent crash
  // would have survived, so no such property holds there.)
  proptest::check(
      "<= eps repaired outages: ftsa and mc-ftsa static replays succeed",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 5);
        const auto w = random_workload(rng, procs, 10 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        const std::vector<ReplicatedSchedule> schedules = {
            ftsa_schedule(w->costs(), FtsaOptions{eps, 0}),
            mc_ftsa_schedule(w->costs(), McFtsaOptions{eps, 0})};
        for (const ReplicatedSchedule& s : schedules) {
          ScheduleSimulator sim(s);
          const double anchor = s.lower_bound();
          for (std::size_t run = 0; run < 6; ++run) {
            FailureScenario scenario;
            for (const std::size_t v :
                 rng.sample_without_replacement(procs, 1 + below(rng, eps))) {
              const double crash = rng.uniform(0.0, 1.2) * anchor;
              scenario.add(ProcId{v}, crash,
                           crash + rng.uniform(0.05, 1.0) * anchor);
            }
            const ScheduleSimulator::Summary got = sim.run_summary(scenario);
            EXPECT_TRUE(got.success) << "eps=" << eps;
          }
        }
      },
      {.iterations = 40});
}

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void bits(double x) { word(std::bit_cast<std::uint64_t>(x)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Folds everything a run reports: its summary, then every replica's
/// outcome and the message count of result().
void fold_run(Fnv1a& h, const ScheduleSimulator::Summary& summary,
              const SimulationResult& result) {
  h.word(summary.success ? 1 : 0);
  h.bits(summary.latency);
  h.word(summary.moves);
  h.word(summary.repairs);
  for (const std::vector<ReplicaOutcome>& task : result.outcomes) {
    for (const ReplicaOutcome& o : task) {
      h.word(static_cast<std::uint64_t>(o.status));
      h.bits(o.start);
      h.bits(o.finish);
    }
  }
  h.word(result.messages_delivered);
}

/// A workload with the ε its schedules tolerate.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::size_t eps;
};

/// Seeded figure-1 instances (m = 20; ε = 1, 1, 2) plus a uniform-cost
/// fork-join whose branches all share one bottom level, so distinct tasks
/// tie in the greedy pass's priority order.
std::vector<Instance> online_instances() {
  std::vector<Instance> instances;
  for (const auto& [seed, eps] :
       {std::pair<std::uint64_t, std::size_t>{101, 1}, {202, 1}, {303, 2}}) {
    Rng rng(seed);
    instances.push_back({make_paper_workload(rng, PaperWorkloadParams{}), eps});
  }
  constexpr std::size_t kProcs = 20;
  TaskGraph g = make_fork_join(40, ClassicParams{2.0});
  std::vector<std::vector<double>> exec(g.task_count(),
                                        std::vector<double>(kProcs, 10.0));
  instances.push_back({std::make_unique<Workload>(
                           std::move(g), Platform(kProcs, 1.0), std::move(exec)),
                       1});
  return instances;
}

/// The instance's FTSA, MC-FTSA and FTBAR schedules.
std::vector<ReplicatedSchedule> online_schedules(const Instance& instance) {
  const CostModel& costs = instance.workload->costs();
  std::vector<ReplicatedSchedule> schedules;
  schedules.push_back(ftsa_schedule(costs, FtsaOptions{instance.eps, 0}));
  schedules.push_back(mc_ftsa_schedule(costs, McFtsaOptions{instance.eps, 0}));
  schedules.push_back(ftbar_schedule(costs, FtbarOptions{instance.eps, 0}));
  return schedules;
}

TEST(OnlinePolicy, OutcomesMatchPinnedDigest) {
  // Every policy's per-replica outcomes, pinned bit for bit: the
  // online_instances(), each scheduled by FTSA, MC-FTSA and FTBAR,
  // replayed under a repair draw and a permanent-crash draw on
  // contention-free and one-port links.  An optimisation of the online
  // path must leave the digest unchanged; a deliberate behaviour change
  // re-pins it.
  const std::vector<Instance> instances = online_instances();
  const std::vector<SimulationOptions> links = {
      SimulationOptions{},
      SimulationOptions{CommModelOptions{CommModelKind::kOnePort}}};
  std::vector<ReschedulePolicyPtr> policies;
  for (const char* spec : {"none", "requeue-heft", "reactive-ftsa"}) {
    policies.push_back(make_reschedule_policy(spec));
  }
  const CrashTimeLaw law = CrashTimeLaw::parse("uniform:hi=1");
  const std::vector<FailureModel> models = {
      FailureModel::parse("repair:p=0.3,mttr=0.5"),
      FailureModel::parse("bernoulli:p=0.2")};

  Fnv1a digest;
  std::size_t runs = 0, moves = 0, repairs = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::size_t procs =
        instances[i].workload->platform().proc_count();
    Rng draw_rng(1000 + i);
    std::vector<CellDraw> draws;
    for (const FailureModel& model : models) {
      draws.push_back(
          draw_cell(draw_rng, procs, instances[i].eps, law, model));
    }
    for (const ReplicatedSchedule& s : online_schedules(instances[i])) {
      for (const SimulationOptions& link : links) {
        ScheduleSimulator sim(s, link);
        for (const ReschedulePolicyPtr& policy : policies) {
          policy->prepare(s);
          for (const CellDraw& draw : draws) {
            const FailureScenario scenario =
                draw.scenario(s.lower_bound(), draw.victims.size());
            const ScheduleSimulator::Summary summary =
                sim.run_summary(scenario, policy.get());
            fold_run(digest, summary, sim.result());
            ++runs;
            moves += summary.moves;
            repairs += summary.repairs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 4u * 3u * 2u * 3u * 2u);
  // Otherwise the digest could pin runs in which no policy ever acted.
  EXPECT_GT(moves, 0u);
  EXPECT_GT(repairs, 0u);
  EXPECT_EQ(digest.value(), 0x4157514072d493e6ull)
      << "online outcome digest: 0x" << std::hex << digest.value();
}

/// The (task, replica) pairs `view` lists over every processor, in
/// processor then listing order.
std::vector<std::pair<TaskId, std::size_t>> all_pending(
    const OnlineView& view) {
  std::vector<std::pair<TaskId, std::size_t>> listed;
  for (std::size_t p = 0; p < view.proc_count(); ++p) {
    view.pending_on(p, listed);
  }
  return listed;
}

/// How many entries of `pairs` repeat an earlier one.
std::size_t repeats(const std::vector<std::pair<TaskId, std::size_t>>& pairs) {
  std::set<std::pair<TaskId, std::size_t>> seen;
  std::size_t repeated = 0;
  for (const auto& pair : pairs) repeated += seen.insert(pair).second ? 0 : 1;
  return repeated;
}

/// Wraps a policy and counts, at every decision point, the pending_on
/// entries that list a replica again and the moves that move one again.
class CheckedPolicy final : public ReschedulePolicy {
 public:
  explicit CheckedPolicy(ReschedulePolicyPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string spec() const override { return inner_->spec(); }
  void prepare(const ReplicatedSchedule& s) override { inner_->prepare(s); }
  void begin_run() override { inner_->begin_run(); }
  void on_event(const OnlineView& view, const OnlineEvent& event,
                std::vector<ReplicaMove>& moves) override {
    repeated_entries += repeats(all_pending(view));
    const std::size_t first = moves.size();
    inner_->on_event(view, event, moves);
    std::vector<std::pair<TaskId, std::size_t>> moved;
    for (std::size_t i = first; i < moves.size(); ++i) {
      moved.emplace_back(moves[i].task, moves[i].replica);
    }
    repeated_moves += repeats(moved);
    ++events;
  }

  std::size_t events = 0;
  std::size_t repeated_entries = 0;
  std::size_t repeated_moves = 0;

 private:
  ReschedulePolicyPtr inner_;
};

/// Moves one pending replica X from processor 0 to processor 1 and back,
/// twice, then stops; records at every event how many entries name X.
class AwayAndBackPolicy final : public ReschedulePolicy {
 public:
  [[nodiscard]] std::string spec() const override { return "away-and-back"; }
  void on_event(const OnlineView& view, const OnlineEvent&,
                std::vector<ReplicaMove>& moves) override {
    const auto listed = all_pending(view);
    if (events_ == 0) {
      // The last of processor 0's pending replicas: its queue head is
      // running or blocked, so the queue scan has not passed X.
      std::vector<std::pair<TaskId, std::size_t>> on_home;
      view.pending_on(0, on_home);
      ASSERT_GE(on_home.size(), 2u);
      x_ = on_home.back();
    } else {
      x_entries.push_back(static_cast<std::size_t>(
          std::count(listed.begin(), listed.end(), x_)));
    }
    repeated_entries += repeats(listed);
    if (events_ < 4 && view.pending(x_.first, x_.second)) {
      moves.push_back(
          ReplicaMove{x_.first, x_.second, ProcId{events_ % 2 == 0 ? 1 : 0},
                      10.0});
    }
    ++events_;
  }

  std::vector<std::size_t> x_entries;
  std::size_t repeated_entries = 0;

 private:
  std::size_t events_ = 0;
  std::pair<TaskId, std::size_t> x_;
};

TEST(OnlinePolicy, PendingOnListsAReplicaMovedAwayAndBackOnce) {
  // Fork-join on 6 processors: every branch waits for the fork (10 time
  // units), while processors 3, 4 and 5 crash at 0.1, 0.2 and 0.3 and
  // return at 0.4, 0.5 and 0.6 — six decision points during which X moves
  // 0 -> 1 -> 0 -> 1 -> 0.  Moved back, X is both ahead in processor 0's
  // queue and in its fill-in pool (twice, while processor 0 runs the fork
  // and never prunes the pool); each listing still names it once.
  constexpr std::size_t kProcs = 6;
  TaskGraph g = make_fork_join(12, ClassicParams{1.0});
  std::vector<std::vector<double>> exec(g.task_count(),
                                        std::vector<double>(kProcs, 10.0));
  const Workload w(std::move(g), Platform(kProcs, 1.0), std::move(exec));
  const ReplicatedSchedule s = ftsa_schedule(w.costs(), FtsaOptions{1, 0});
  FailureScenario scenario;
  scenario.add(ProcId{3}, 0.1, 0.4);
  scenario.add(ProcId{4}, 0.2, 0.5);
  scenario.add(ProcId{5}, 0.3, 0.6);

  ScheduleSimulator sim(s);
  AwayAndBackPolicy policy;
  const ScheduleSimulator::Summary summary = sim.run_summary(scenario, &policy);
  EXPECT_EQ(summary.moves, 4u);
  EXPECT_EQ(policy.x_entries,
            (std::vector<std::size_t>{1, 1, 1, 1, 1}));
  EXPECT_EQ(policy.repeated_entries, 0u);
}

TEST(OnlinePolicy, GreedyPoliciesListAndMoveEachReplicaOncePerEvent) {
  // The online_instances() under repair draws, through both greedy
  // policies: no decision point sees a replica listed twice, and none
  // moves a replica twice.
  const CrashTimeLaw law = CrashTimeLaw::parse("uniform:hi=1");
  const FailureModel model = FailureModel::parse("repair:p=0.3,mttr=0.5");
  std::vector<std::unique_ptr<CheckedPolicy>> policies;
  for (const char* spec : {"requeue-heft", "reactive-ftsa"}) {
    policies.push_back(
        std::make_unique<CheckedPolicy>(make_reschedule_policy(spec)));
  }
  std::size_t moves = 0;
  const std::vector<Instance> instances = online_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::size_t procs = instances[i].workload->platform().proc_count();
    Rng draw_rng(2000 + i);
    for (const ReplicatedSchedule& s : online_schedules(instances[i])) {
      ScheduleSimulator sim(s);
      for (std::size_t d = 0; d < 3; ++d) {
        const CellDraw draw =
            draw_cell(draw_rng, procs, instances[i].eps, law, model);
        const FailureScenario scenario =
            draw.scenario(s.lower_bound(), draw.victims.size());
        for (const auto& policy : policies) {
          policy->prepare(s);
          moves += sim.run_summary(scenario, policy.get()).moves;
        }
      }
    }
  }
  EXPECT_GT(moves, 0u);
  for (const auto& policy : policies) {
    EXPECT_GT(policy->events, 0u) << policy->spec();
    EXPECT_EQ(policy->repeated_entries, 0u) << policy->spec();
    EXPECT_EQ(policy->repeated_moves, 0u) << policy->spec();
  }
}

/// 2 workloads x 2 scenarios x 2 failure models x 3 policies x 2
/// granularities x 2 reps = 96 instances; one failure law has repairs so
/// the reactive policies actually fire.
FigureConfig policy_grid_config() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.0};
  config.graphs_per_point = 2;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 17;
  config.threads = 2;
  config.workloads = {"paper", "chain:size=10"};
  config.scenarios = {"t0", "frac:f=0.5"};
  config.failure_models = {"bernoulli:p=0.3", "repair:p=0.3,mttr=0.5"};
  config.policies = {"none", "requeue-heft", "reactive-ftsa"};
  return config;
}

TEST(OnlinePolicy, PolicyAxisGridShapeAndLabels) {
  const SweepPlan plan(policy_grid_config());
  EXPECT_EQ(plan.policies(),
            (std::vector<std::string>{"none", "requeue-heft",
                                      "reactive-ftsa"}));
  EXPECT_EQ(plan.grid_size(), 2u * 2u * 2u * 3u * 2u * 2u);

  // The policy index cycles fastest among the cell-ish factors and the
  // series label carries a fourth "|policy" part on multi-policy grids.
  bool saw_reactive = false;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    ASSERT_LT(c.policy, 3u);
    const std::string label = plan.series_label(c, "X");
    EXPECT_NE(label.find("|" + plan.policies()[c.policy]), std::string::npos)
        << label;
    saw_reactive = saw_reactive || c.policy == 2;
  }
  EXPECT_TRUE(saw_reactive);

  // Bad policy axes are rejected at plan construction.
  FigureConfig dup = policy_grid_config();
  dup.policies = {"none", "none"};
  EXPECT_THROW((void)SweepPlan(dup), InvalidArgument);
  FigureConfig unknown = policy_grid_config();
  unknown.policies = {"meteor"};
  EXPECT_THROW((void)SweepPlan(unknown), InvalidArgument);
}

TEST(OnlinePolicy, NoneColumnOfMultiPolicyGridMatchesSinglePolicyPlan) {
  // The policy axis must not perturb the instance streams: the `none`
  // column of a 3-policy grid is the same draws — and byte for byte the
  // same samples — as the legacy single-policy plan.
  const SweepPlan plan(policy_grid_config());
  FigureConfig base_config = policy_grid_config();
  base_config.policies.clear();
  const SweepPlan base(base_config);
  ASSERT_EQ(base.grid_size() * 3u, plan.grid_size());

  constexpr std::size_t kScenarios = 2, kFailures = 2, kGrans = 2, kReps = 2;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    if (c.policy != 0) continue;
    const std::size_t base_id =
        (((c.workload * kScenarios + c.scenario) * kFailures + c.failure) *
             kGrans +
         c.gran) *
            kReps +
        c.rep;
    EXPECT_EQ(reference::evaluate_alone(plan, k),
              reference::evaluate_alone(base, base_id))
        << "none column diverged from the legacy plan at id " << c.id;
  }
}

TEST(OnlinePolicy, BitIdenticalAcrossThreadCountsAndGrouping) {
  FigureConfig config = policy_grid_config();
  config.threads = 1;
  const SweepPlan serial_plan(config);
  const SweepResult reference = reference::per_coordinate_result(serial_plan);
  EXPECT_EQ(reference.policies, serial_plan.policies());

  for (const std::size_t threads : {1u, 2u, 3u}) {
    config.threads = threads;
    const SweepPlan plan(config);
    OnlineStatsSink sink(plan);
    run_plan(plan, sink);
    EXPECT_TRUE(sweep_results_identical(reference, sink.take()))
        << "threads=" << threads;
  }
}

TEST(OnlinePolicy, ShardMergeRoundTripsThePolicyAxis) {
  const SweepPlan plan(policy_grid_config());
  const SweepResult reference = reference::per_coordinate_result(plan);

  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    std::stringstream file(shard_bytes(plan.shard(i, 3)));
    shards.push_back(read_shard(file, "p" + std::to_string(i)));
  }
  const SweepResult merged = merge_shards(shards);
  EXPECT_EQ(merged.policies, plan.policies());
  EXPECT_TRUE(sweep_results_identical(reference, merged));
}

TEST(OnlinePolicy, ShardHeaderWithoutThePolicyAxisIsRejected) {
  // Every shard header names its policy cells; a header without them is
  // not read as an implicit `none` column, it is refused, naming the file.
  const SweepPlan plan(policy_grid_config());
  std::string text = shard_bytes(plan);
  const std::size_t at = text.find(",\"policies\":\"");
  ASSERT_NE(at, std::string::npos);
  text.erase(at, text.find('"', text.find(":\"", at) + 2) + 1 - at);
  std::stringstream file(text);
  try {
    (void)read_shard(file, "no-policies.shard");
    ADD_FAILURE() << "a header without policies must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-policies.shard:1"), std::string::npos) << what;
    EXPECT_NE(what.find("policies"), std::string::npos) << what;
  }
}

TEST(OnlinePolicy, RepairDomainBeyondProcCountIsRejected) {
  // Satellite: a repair/burst law whose failure domain exceeds the
  // platform is one whole-platform mega-domain in disguise — reject it at
  // plan construction with the spec-style message.
  const FailureModel repair =
      FailureModel::parse("repair:p=0.2,mttr=0.5,domain=8");
  EXPECT_NO_THROW(repair.validate(8));
  try {
    repair.validate(4);
    FAIL() << "validate accepted domain=8 on 4 processors";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("domain"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      FailureModel::parse("burst:p=0.2,domain=9").validate(5),
      InvalidArgument);
  // Plain bernoulli has no domain notion: nothing to validate.
  EXPECT_NO_THROW(FailureModel::parse("bernoulli:p=0.2").validate(1));

  FigureConfig config = policy_grid_config();
  config.failure_models = {"repair:p=0.2,mttr=0.5,domain=8"};
  EXPECT_THROW((void)SweepPlan(config), InvalidArgument);
}

}  // namespace
}  // namespace ftsched
