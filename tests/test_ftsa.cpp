// Tests for FTSA (Algorithm 4.1): structural validity, bounds, and the
// simulation invariant that the failure-free execution achieves exactly M*.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 6,
                                         std::size_t tasks = 40,
                                         double granularity = 1.0) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  params.granularity = granularity;
  return make_paper_workload(rng, params);
}

TEST(Ftsa, RejectsTooManyFailures) {
  const auto w = small_workload(1, /*procs=*/3);
  FtsaOptions options;
  options.epsilon = 3;  // epsilon+1 = 4 > 3 processors
  EXPECT_THROW((void)ftsa_schedule(w->costs(), options), InvalidArgument);
}

TEST(Ftsa, EpsilonZeroGivesOneReplicaPerTask) {
  const auto w = small_workload(2);
  FtsaOptions options;
  options.epsilon = 0;
  const auto s = ftsa_schedule(w->costs(), options);
  s.validate();
  for (TaskId t : w->graph().tasks()) {
    EXPECT_EQ(s.replicas(t).size(), 1u);
  }
  EXPECT_DOUBLE_EQ(s.lower_bound(), s.upper_bound());
}

TEST(Ftsa, ScheduleOnChainIsSequential) {
  // On a chain with epsilon = 0 the latency is just the sum of chosen
  // execution times + any communications; with identical processors and
  // intra-processor mapping, FTSA should keep the whole chain on one
  // processor (comm = 0 beats any migration).
  TaskGraph g = make_chain(5, ClassicParams{100.0});
  const Platform p(3, 1.0);
  std::vector<std::vector<double>> exec(5, std::vector<double>(3, 7.0));
  const CostModel costs(g, p, exec);
  FtsaOptions options;
  options.epsilon = 0;
  const auto s = ftsa_schedule(costs, options);
  s.validate();
  EXPECT_DOUBLE_EQ(s.lower_bound(), 35.0);
  const ProcId proc = s.replicas(TaskId{0u})[0].proc;
  for (TaskId t : g.tasks()) {
    EXPECT_EQ(s.replicas(t)[0].proc, proc);
  }
}

TEST(Ftsa, DeterministicForSameSeed) {
  const auto w = small_workload(3);
  FtsaOptions options;
  options.epsilon = 2;
  options.seed = 7;
  const auto a = ftsa_schedule(w->costs(), options);
  const auto b = ftsa_schedule(w->costs(), options);
  EXPECT_DOUBLE_EQ(a.lower_bound(), b.lower_bound());
  EXPECT_DOUBLE_EQ(a.upper_bound(), b.upper_bound());
  for (TaskId t : w->graph().tasks()) {
    ASSERT_EQ(a.replicas(t).size(), b.replicas(t).size());
    for (std::size_t k = 0; k < a.replicas(t).size(); ++k) {
      EXPECT_EQ(a.replicas(t)[k].proc, b.replicas(t)[k].proc);
      EXPECT_DOUBLE_EQ(a.replicas(t)[k].start, b.replicas(t)[k].start);
    }
  }
}

// Parameterized structural sweep: (seed, epsilon, granularity).
class FtsaProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, double>> {};

TEST_P(FtsaProperty, StructuralInvariants) {
  const auto [seed, epsilon, granularity] = GetParam();
  const auto w = small_workload(seed, /*procs=*/8, /*tasks=*/50, granularity);
  FtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  const auto s = ftsa_schedule(w->costs(), options);
  // validate() checks Prop 4.1, timeline consistency, channel coverage.
  s.validate();
  // Exactly ε+1 replicas (FTSA never duplicates beyond that).
  for (TaskId t : w->graph().tasks()) {
    EXPECT_EQ(s.replicas(t).size(), epsilon + 1);
  }
  // Bounds ordered.
  EXPECT_LE(s.lower_bound(), s.upper_bound() * (1 + 1e-12));
  // Communication bound: at most e(ε+1)² channels.
  EXPECT_LE(s.channel_count(),
            w->graph().edge_count() * (epsilon + 1) * (epsilon + 1));
}

TEST_P(FtsaProperty, FailureFreeSimulationAchievesLowerBound) {
  const auto [seed, epsilon, granularity] = GetParam();
  const auto w = small_workload(seed, /*procs=*/8, /*tasks=*/50, granularity);
  FtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  const auto s = ftsa_schedule(w->costs(), options);
  const SimulationResult r = simulate(s);
  ASSERT_TRUE(r.success);
  // The engine computes replica times with exactly the simulator's
  // semantics, so the failure-free run reproduces M* to the last ulp-ish.
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9 * (1.0 + s.lower_bound()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtsaProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(0.2, 1.0, 2.0)));

TEST(Ftsa, ReplicationIncreasesLatencyOnAverage) {
  // Not guaranteed instance-by-instance, but robust in aggregate: the
  // ε = 2 lower bound should not beat the fault-free latency on average.
  double sum0 = 0.0;
  double sum2 = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto w = small_workload(seed);
    FtsaOptions o0;
    o0.epsilon = 0;
    FtsaOptions o2;
    o2.epsilon = 2;
    sum0 += ftsa_schedule(w->costs(), o0).lower_bound();
    sum2 += ftsa_schedule(w->costs(), o2).lower_bound();
  }
  EXPECT_GE(sum2, sum0);
}

TEST(Ftsa, AllProcessorsUsableAsReplicas) {
  // epsilon + 1 == m: every task runs everywhere.
  const auto w = small_workload(5, /*procs=*/4, /*tasks=*/15);
  FtsaOptions options;
  options.epsilon = 3;
  const auto s = ftsa_schedule(w->costs(), options);
  s.validate();
  for (TaskId t : w->graph().tasks()) {
    std::set<ProcId> procs;
    for (const Replica& r : s.replicas(t)) procs.insert(r.proc);
    EXPECT_EQ(procs.size(), 4u);
  }
}

TEST(Ftsa, ForkJoinWithReplication) {
  Rng rng(8);
  PaperWorkloadParams params;
  params.proc_count = 5;
  const auto w = make_workload_for_graph(rng, make_fork_join(6), params);
  FtsaOptions options;
  options.epsilon = 2;
  const auto s = ftsa_schedule(w->costs(), options);
  s.validate();
  const SimulationResult r = simulate(s);
  EXPECT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9 * (1.0 + s.lower_bound()));
}

TEST(Ftsa, IndependentTasksNoChannels) {
  // A graph with no edges yields no channels and a latency equal to the
  // longest chosen execution time.
  TaskGraph g;
  for (int i = 0; i < 6; ++i) (void)g.add_task();
  const Platform p(4, 1.0);
  std::vector<std::vector<double>> exec(6, std::vector<double>(4, 5.0));
  const CostModel costs(g, p, exec);
  FtsaOptions options;
  options.epsilon = 1;
  const auto s = ftsa_schedule(costs, options);
  s.validate();
  EXPECT_EQ(s.channel_count(), 0u);
  // 12 replicas of 5 time units on 4 identical processors: the greedy
  // min-finish rule keeps the loads balanced, so every processor ends at
  // 15 and the last tasks' earliest replicas finish exactly then.
  EXPECT_NEAR(s.lower_bound(), 15.0, 1e-9);
  EXPECT_NEAR(s.upper_bound(), 15.0, 1e-9);
}

// The processor-selection tie rule: among equal F(t, Pj) the lower
// processor index wins.  m = 70 spans more than one 64-bit word and is not
// a multiple of any vector width, so a selection that mishandles a tail or
// a word boundary shows here.
constexpr std::size_t kTieProcs = 70;

CostModel uniform_costs(const TaskGraph& g, const Platform& p) {
  return CostModel(g, p,
                   std::vector<std::vector<double>>(
                       g.task_count(), std::vector<double>(kTieProcs, 3.0)));
}

/// Processor indices of t's replicas, in replica order.
std::vector<std::size_t> replica_procs(const ReplicatedSchedule& s, TaskId t) {
  std::vector<std::size_t> procs;
  for (const Replica& r : s.replicas(t)) procs.push_back(r.proc.index());
  return procs;
}

std::vector<std::size_t> block(std::size_t first, std::size_t count) {
  std::vector<std::size_t> procs(count);
  for (std::size_t k = 0; k < count; ++k) procs[k] = first + k;
  return procs;
}

TEST(Ftsa, EqualFinishTiesGoToLowerProcessorIndex) {
  const TaskGraph g = make_fork_join(8, ClassicParams{10.0});
  const Platform p(kTieProcs, 1.0);
  const CostModel costs = uniform_costs(g, p);
  const TaskId entry = g.entry_tasks().front();
  for (std::size_t eps : {0u, 1u, 5u, 69u}) {
    SCOPED_TRACE("eps=" + std::to_string(eps));
    FtsaOptions ftsa;
    ftsa.epsilon = eps;
    EXPECT_EQ(replica_procs(ftsa_schedule(costs, ftsa), entry),
              block(0, eps + 1));
    for (McSelector selector :
         {McSelector::kGreedy, McSelector::kBinarySearchMatching}) {
      McFtsaOptions mc;
      mc.epsilon = eps;
      mc.selector = selector;
      EXPECT_EQ(replica_procs(mc_ftsa_schedule(costs, mc), entry),
                block(0, eps + 1));
    }
  }
}

TEST(Ftsa, EqualFinishTiesFillProcessorsInIndexOrder) {
  // 15 independent identical tasks with 5 replicas each on 70 processors:
  // every task takes the lowest-index idle block of five, so the first 14
  // tile processors 0..69 and the 15th wraps back to 0..4.
  TaskGraph g;
  for (int i = 0; i < 15; ++i) (void)g.add_task();
  const Platform p(kTieProcs, 1.0);
  const CostModel costs = uniform_costs(g, p);
  FtsaOptions options;
  options.epsilon = 4;
  const auto s = ftsa_schedule(costs, options);
  std::multiset<std::size_t> firsts;
  for (TaskId t : g.tasks()) {
    const auto procs = replica_procs(s, t);
    ASSERT_EQ(procs.size(), 5u);
    EXPECT_EQ(procs, block(procs.front(), 5));
    EXPECT_EQ(procs.front() % 5, 0u);
    firsts.insert(procs.front());
  }
  std::multiset<std::size_t> expected{0};
  for (std::size_t q = 0; q < 14; ++q) expected.insert(5 * q);
  EXPECT_EQ(firsts, expected);
}

}  // namespace
}  // namespace ftsched
