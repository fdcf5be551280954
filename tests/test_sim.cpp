// Tests for the discrete-event execution simulator: failure-free fidelity,
// crash semantics, cancellation, contention models, and Prop. 4.2.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 6,
                                         std::size_t tasks = 30) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

TEST(Sim, FailureFreeChain) {
  TaskGraph g = make_chain(3, ClassicParams{10.0});
  const Platform p(2, 1.0);
  std::vector<std::vector<double>> exec(3, std::vector<double>(2, 5.0));
  const CostModel costs(g, p, exec);
  const auto s = ftsa_schedule(costs, FtsaOptions{1, 0});
  const SimulationResult r = simulate(s);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9);
  EXPECT_EQ(r.dead_replicas, 0u);
  EXPECT_EQ(r.cancelled_replicas, 0u);
  EXPECT_EQ(r.completed_replicas, 6u);
}

TEST(Sim, CrashOfUnusedProcessorIsHarmless) {
  TaskGraph g = make_chain(3, ClassicParams{10.0});
  const Platform p(3, 1.0);
  // P2 is terrible: FTSA(ε=0) avoids it.
  std::vector<std::vector<double>> exec(3, {1.0, 1.0, 1000.0});
  const CostModel costs(g, p, exec);
  const auto s = ftsa_schedule(costs, FtsaOptions{0, 0});
  FailureScenario scenario;
  scenario.add(ProcId{2u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9);
}

TEST(Sim, CrashKillsUnreplicatedSchedule) {
  const auto w = small_workload(1, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{0, 0});
  // Crash whichever processor hosts the first task: the run must fail.
  const ProcId victim = s.replicas(TaskId{0u})[0].proc;
  FailureScenario scenario;
  scenario.add(victim, 0.0);
  const SimulationResult r = simulate(s, scenario);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(std::isinf(r.latency));
  EXPECT_GT(r.dead_replicas + r.cancelled_replicas, 0u);
}

TEST(Sim, SurvivesEpsilonCrashes) {
  const auto w = small_workload(2, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const FailureScenario scenario = random_crashes(rng, 5, 2);
    const SimulationResult r = simulate(s, scenario);
    ASSERT_TRUE(r.success);
    // Prop. 4.2: the guaranteed bound holds. (The achieved latency may
    // even dip below M* when a cancelled replica unblocks its processor
    // early, so no lower-bound assertion here.)
    EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
  }
}

TEST(Sim, MidExecutionCrash) {
  // Crash at half the lower bound: in-flight work on the victim dies but
  // the schedule (ε = 1) still completes.
  const auto w = small_workload(3, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureScenario scenario;
  scenario.add(ProcId{0u}, 0.5 * s.lower_bound());
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
}

TEST(Sim, LateCrashDoesNotHurt) {
  // A crash after the whole schedule finished changes nothing.
  const auto w = small_workload(4, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureScenario scenario;
  scenario.add(ProcId{1u}, 10.0 * s.upper_bound());
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9 * (1 + s.lower_bound()));
  EXPECT_EQ(r.dead_replicas, 0u);
}

TEST(Sim, AllProcessorsCrashFails) {
  const auto w = small_workload(5, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureScenario scenario;
  for (std::size_t p = 0; p < 4; ++p) scenario.add(ProcId{p}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.completed_replicas, 0u);
}

TEST(Sim, TaskCompletionTimes) {
  const auto w = small_workload(6, /*procs=*/4);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const SimulationResult r = simulate(s);
  for (TaskId t : w->graph().tasks()) {
    const double done = r.task_completion(t);
    EXPECT_TRUE(std::isfinite(done));
    // Completion equals the earliest replica's planned finish when nothing
    // fails.
    double planned = std::numeric_limits<double>::infinity();
    for (const Replica& rep : s.replicas(t)) {
      planned = std::min(planned, rep.finish);
    }
    EXPECT_NEAR(done, planned, 1e-9 * (1 + planned));
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  const auto w = small_workload(7, /*procs=*/5);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{2, 0});
  FailureScenario scenario;
  scenario.add(ProcId{0u}, 0.0);
  scenario.add(ProcId{3u}, 12.0);
  const SimulationResult a = simulate(s, scenario);
  const SimulationResult b = simulate(s, scenario);
  EXPECT_EQ(a.success, b.success);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_EQ(a.completed_replicas, b.completed_replicas);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
}

TEST(Sim, CancelledReplicasAreSkippedNotBlocking) {
  // Force cancellation: ε = 1 on 2 processors; crash P0 at 0. Every replica
  // on P0 dies, every task still completes on P1 (the co-located chain).
  const auto w = small_workload(8, /*procs=*/2, /*tasks=*/15);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  FailureScenario scenario;
  scenario.add(ProcId{0u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.latency, s.upper_bound() * (1 + 1e-9));
}

// ------------------------------------------------------ hand-built schedules

/// A replica on `proc` over [start, finish], pessimistic times equal.
Replica at(std::size_t proc, double start, double finish) {
  return Replica{ProcId{proc}, start, finish, start, finish};
}

/// The same run on the crash-only forward pass (simulate's default) and on
/// the event loop (a port per channel: never contended, but not the
/// contention-free model, so the forward pass is off).
std::pair<SimulationResult, SimulationResult> both_paths(
    const ReplicatedSchedule& s, const FailureScenario& scenario) {
  SimulationOptions loop;
  loop.comm = {CommModelKind::kBoundedMultiPort, s.channel_count() + 1};
  return {simulate(s, scenario), simulate(s, scenario, loop)};
}

TEST(Sim, FaultFreeRunDeliversEveryInterprocessorMessage) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed, /*procs=*/5);
    FtbarOptions ftbar;
    ftbar.seed = seed;
    for (const ReplicatedSchedule& s :
         {ftsa_schedule(w->costs(), FtsaOptions{2, seed}),
          mc_ftsa_schedule(w->costs(), McFtsaOptions{2, seed}),
          ftbar_schedule(w->costs(), ftbar)}) {
      ASSERT_GT(s.interproc_message_count(), 0u);
      const auto [fast, loop] = both_paths(s, {});
      EXPECT_EQ(fast.messages_delivered, s.interproc_message_count());
      EXPECT_EQ(loop.messages_delivered, s.interproc_message_count());
    }
  }
}

TEST(Sim, CrashedRunDeliversOnlyCompletedSendersMessages) {
  // Chain a -> b -> c on three processors, unit costs and delays, ε = 1:
  //   a: P0 [0,1], P1 [0,1]     b: P1 [1,2], P2 [2,3]     c: P0 [3,4], P2 [3,4]
  // b on P1 and c on P2 read their local predecessor; the other replicas
  // read every predecessor replica: 4 inter-processor channels.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  const TaskId c = g.add_task("c");
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  const Platform platform(3, 1.0);
  const CostModel costs(g, platform,
                        std::vector<std::vector<double>>(3, {1.0, 1.0, 1.0}));
  ReplicatedSchedule s(costs, 1, "hand");
  s.place_task(a, {at(0, 0, 1), at(1, 0, 1)});
  s.place_task(b, {at(1, 1, 2), at(2, 2, 3)});
  s.place_task(c, {at(0, 3, 4), at(2, 3, 4)});
  s.set_channels(0, {{1, 0}, {0, 1}, {1, 1}});
  s.set_channels(1, {{0, 0}, {1, 0}, {1, 1}});
  s.validate();
  ASSERT_EQ(s.interproc_message_count(), 4u);

  // P1 crashes at 0: a on P1 starts and dies, which cancels b on P1 (its
  // only source).  a on P0 sends to b on P2, and b on P2 sends to c on P0:
  // two messages; b on P2 feeding c on P2 is local and not counted.
  FailureScenario crash;
  crash.add(ProcId{1u}, 0.0);
  const auto [fast, loop] = both_paths(s, crash);
  for (const SimulationResult& r : {fast, loop}) {
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.messages_delivered, 2u);
    EXPECT_EQ(r.completed_replicas, 4u);
    EXPECT_EQ(r.dead_replicas, 1u);
    EXPECT_EQ(r.cancelled_replicas, 1u);
    EXPECT_EQ(r.outcomes[1][0].status, ReplicaStatus::kCancelled);
    EXPECT_EQ(r.latency, 4.0);  // c on P2; c on P0 starts at 4
    EXPECT_EQ(r.outcomes[2][0].start, 4.0);
  }
}

TEST(Sim, ZeroDurationReplicaFinishesAfterTheCrashThatStartedIt) {
  // Equal-time crashes are handled in scenario order, and what one crash
  // sets off at that instant runs before the next.  P2 and then P0 crash
  // at 10.  P0's crash kills a, which cancels b, the replica blocking P1;
  // x (no time, no input) then starts and finishes at 10 on P1 and sends
  // y its input over a free link — but after P2's crash, so y, pending on
  // P2, was already dead and never started.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  const TaskId x = g.add_task("x");
  const TaskId y = g.add_task("y");
  g.add_edge(a, b, 1.0);
  g.add_edge(x, y, 1.0);
  const Platform platform({{0, 1, 1}, {1, 0, 0}, {1, 0, 0}});
  const CostModel costs(
      g, platform, std::vector<std::vector<double>>(4, {1.0, 1.0, 1.0}));
  ReplicatedSchedule s(costs, 0, "hand");
  s.place_task(a, {at(0, 0, 20)});
  s.place_task(b, {at(1, 21, 22)});
  s.place_task(x, {at(1, 22, 22)});
  s.place_task(y, {at(2, 22, 23)});
  s.set_channels(0, {{0, 0}});
  s.set_channels(1, {{0, 0}});
  FailureScenario crash;
  crash.add(ProcId{2u}, 10.0);
  crash.add(ProcId{0u}, 10.0);
  const auto [fast, loop] = both_paths(s, crash);
  for (const SimulationResult& r : {fast, loop}) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.outcomes[a.index()][0].status, ReplicaStatus::kDead);
    EXPECT_EQ(r.outcomes[b.index()][0].status, ReplicaStatus::kCancelled);
    EXPECT_EQ(r.outcomes[x.index()][0].status, ReplicaStatus::kCompleted);
    EXPECT_EQ(r.outcomes[x.index()][0].finish, 10.0);
    EXPECT_EQ(r.outcomes[y.index()][0].status, ReplicaStatus::kDead);
    EXPECT_EQ(r.outcomes[y.index()][0].start, 0.0);  // never started
    EXPECT_EQ(r.messages_delivered, 1u);
  }

  // In the other order y starts at 10, when x's message arrives, and dies
  // there when P2 crashes.
  FailureScenario reversed;
  reversed.add(ProcId{0u}, 10.0);
  reversed.add(ProcId{2u}, 10.0);
  const auto [fast2, loop2] = both_paths(s, reversed);
  for (const SimulationResult& r : {fast2, loop2}) {
    EXPECT_EQ(r.outcomes[y.index()][0].status, ReplicaStatus::kDead);
    EXPECT_EQ(r.outcomes[y.index()][0].start, 10.0);
  }
}

TEST(Sim, MessageOverAnInfiniteLinkArrivesAtInfinity) {
  // Chain a -> b, ε = 1, and the link between P0 and P2 never delivers in
  // finite time:  a: P0 [0,1], P1 [0,1]   b: P2 [2,3], P1 [1,2].
  // P1 crashes at 0, so b on P2 is left with a on P0 as its only live
  // source.  Its message still arrives, at +inf, and b runs there.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  g.add_edge(a, b, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  const Platform platform({{0, 1, inf}, {1, 0, 1}, {inf, 1, 0}});
  const CostModel costs(g, platform,
                        std::vector<std::vector<double>>(2, {1.0, 1.0, 1.0}));
  ReplicatedSchedule s(costs, 1, "hand");
  s.place_task(a, {at(0, 0, 1), at(1, 0, 1)});
  s.place_task(b, {at(2, 2, 3), at(1, 1, 2)});
  s.set_channels(0, {{0, 0}, {1, 0}, {1, 1}});

  FailureScenario crash;
  crash.add(ProcId{1u}, 0.0);
  for (const CommModelKind kind :
       {CommModelKind::kContentionFree, CommModelKind::kOnePort}) {
    const SimulationResult r =
        simulate(s, crash, SimulationOptions{CommModelOptions{kind}});
    const ReplicaOutcome& late = r.outcomes[b.index()][0];
    EXPECT_EQ(late.status, ReplicaStatus::kCompleted);
    EXPECT_EQ(late.start, inf);
    EXPECT_EQ(late.finish, inf);
    EXPECT_EQ(r.messages_delivered, 1u);
  }
}

TEST(Sim, CyclicScheduleStallsOnTheEventLoop) {
  // a on P0 is queued behind b on P0 yet feeds it.  b also reads a on P1,
  // so the failure-free times check out, but the wait-for graph has a
  // cycle: once P1 crashes, b waits forever for a, which waits for P0.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  g.add_edge(a, b, 1.0);
  const Platform platform(2, 1.0);
  const CostModel costs(g, platform,
                        std::vector<std::vector<double>>(2, {1.0, 1.0}));
  ReplicatedSchedule s(costs, 1, "hand");
  s.place_task(a, {at(0, 3, 4), at(1, 0, 1)});
  s.place_task(b, {at(0, 2, 3), at(1, 1, 2)});
  s.set_channels(0, {{1, 0}, {0, 0}, {1, 1}});
  EXPECT_FALSE(wait_for_graph(s).acyclic());
  EXPECT_THROW(s.validate(), Error);

  FailureScenario crash;
  crash.add(ProcId{1u}, 0.0);
  const SimulationResult r = simulate(s, crash);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcomes[a.index()][0].status, ReplicaStatus::kNotStarted);
  EXPECT_EQ(r.outcomes[b.index()][0].status, ReplicaStatus::kNotStarted);
}

// ---------------------------------------------------------------- contention

using CommParam = std::tuple<std::uint64_t, CommModelKind>;

class CommModelProperty : public ::testing::TestWithParam<CommParam> {};

TEST_P(CommModelProperty, ContentionNeverBeatsContentionFree) {
  const auto [seed, kind] = GetParam();
  const auto w = small_workload(seed, /*procs=*/6, /*tasks=*/40);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  SimulationOptions contended;
  contended.comm.kind = kind;
  contended.comm.ports = 2;
  const SimulationResult free_run = simulate(s);
  const SimulationResult slow_run = simulate(s, {}, contended);
  ASSERT_TRUE(free_run.success);
  ASSERT_TRUE(slow_run.success);
  EXPECT_GE(slow_run.latency, free_run.latency * (1 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CommModelProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kBoundedMultiPort)));

TEST(CommModels, MorePortsHelp) {
  const auto w = small_workload(9, /*procs=*/8, /*tasks=*/60);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{3, 0});
  auto run_with_ports = [&s](std::size_t ports) {
    SimulationOptions options;
    options.comm.kind = CommModelKind::kBoundedMultiPort;
    options.comm.ports = ports;
    return simulate(s, {}, options).latency;
  };
  const double one = run_with_ports(1);
  const double four = run_with_ports(4);
  const double many = run_with_ports(64);
  EXPECT_GE(one, four * (1 - 1e-9));
  EXPECT_GE(four, many * (1 - 1e-9));
  // With effectively unlimited ports we recover the contention-free run.
  EXPECT_NEAR(many, simulate(s).latency, 1e-6 * (1 + many));
}

// ---------------------------------------------------------------- traces

TEST(Trace, GanttAndListingRender) {
  const auto w = small_workload(10, /*procs=*/4, /*tasks=*/10);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string gantt = schedule_gantt(s);
  EXPECT_NE(gantt.find("P0"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  const std::string listing = schedule_listing(s);
  EXPECT_NE(listing.find("FTSA"), std::string::npos);
  EXPECT_NE(listing.find("M*"), std::string::npos);

  FailureScenario scenario;
  scenario.add(ProcId{0u}, 0.0);
  const SimulationResult r = simulate(s, scenario);
  const std::string egantt = execution_gantt(s, r);
  EXPECT_NE(egantt.find("lost replicas"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
