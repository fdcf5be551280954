// Tests for MC-FTSA (§4.2): exact channel counts, Prop.-4.3 robustness of
// the selected channel sets, and selector equivalence properties.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 6,
                                         std::size_t tasks = 30,
                                         double granularity = 1.0) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  params.granularity = granularity;
  return make_paper_workload(rng, params);
}

using McParam = std::tuple<std::uint64_t, std::size_t, McSelector>;

class McProperty : public ::testing::TestWithParam<McParam> {};

TEST_P(McProperty, LinearChannelCountModuloRepairs) {
  const auto [seed, epsilon, selector] = GetParam();
  const auto w = small_workload(seed);
  McFtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.selector = selector;
  const auto s = mc_ftsa_schedule(w->costs(), options);
  s.validate();
  // §4.2's headline: e(ε+1) channels instead of e(ε+1)².  The end-to-end
  // repair may give individual (replica, edge) pairs the full source set,
  // so the count is exact only when nothing was repaired, and always stays
  // within the FTSA bound.
  const std::size_t n = epsilon + 1;
  const std::size_t e = w->graph().edge_count();
  EXPECT_GE(s.channel_count(), e * n);
  EXPECT_LE(s.channel_count(), e * n * n);
  if (s.repaired_tasks().empty()) {
    EXPECT_EQ(s.channel_count(), e * n);
  } else {
    EXPECT_GT(s.channel_count(), e * n);
  }
  EXPECT_LE(s.interproc_message_count(), s.channel_count());
}

TEST_P(McProperty, PaperModeIsExactlyLinear) {
  const auto [seed, epsilon, selector] = GetParam();
  const auto w = small_workload(seed);
  McFtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.selector = selector;
  options.enforce_fault_tolerance = false;  // paper-faithful selection
  const auto s = mc_ftsa_schedule(w->costs(), options);
  s.validate();
  EXPECT_EQ(s.channel_count(), w->graph().edge_count() * (epsilon + 1));
  EXPECT_TRUE(s.repaired_tasks().empty());
}

TEST_P(McProperty, Prop43RobustChannelSets) {
  const auto [seed, epsilon, selector] = GetParam();
  const auto w = small_workload(seed, /*procs=*/5, /*tasks=*/20);
  McFtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.selector = selector;
  const auto s = mc_ftsa_schedule(w->costs(), options);
  // Prop. 4.3: for every edge and every crash set S of size ε, some channel
  // has both endpoints outside S.
  const auto subsets = all_crash_subsets(5, epsilon);
  for (std::size_t e = 0; e < w->graph().edge_count(); ++e) {
    const Edge& edge = w->graph().edge(e);
    for (const FailureScenario& scenario : subsets) {
      bool survivor = false;
      for (const Channel& c : s.channels(e)) {
        const ProcId src = s.replicas(edge.src)[c.src_replica].proc;
        const ProcId dst = s.replicas(edge.dst)[c.dst_replica].proc;
        if (!scenario.is_failed(src) && !scenario.is_failed(dst)) {
          survivor = true;
          break;
        }
      }
      EXPECT_TRUE(survivor) << "edge " << e << " loses all channels";
    }
  }
}

TEST_P(McProperty, InternalChannelsAreForced) {
  const auto [seed, epsilon, selector] = GetParam();
  const auto w = small_workload(seed);
  McFtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.selector = selector;
  options.enforce_fault_tolerance = false;  // property of the §4.2 selection
  const auto s = mc_ftsa_schedule(w->costs(), options);
  // Whenever a predecessor replica is co-located with a consumer replica,
  // the channel between them must be the intra-processor one (§4.2).
  for (std::size_t e = 0; e < w->graph().edge_count(); ++e) {
    const Edge& edge = w->graph().edge(e);
    const auto& src_reps = s.replicas(edge.src);
    const auto& dst_reps = s.replicas(edge.dst);
    for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
      for (std::size_t dk = 0; dk < dst_reps.size(); ++dk) {
        if (src_reps[sk].proc != dst_reps[dk].proc) continue;
        // Channel into dk must come from sk.
        for (const Channel& c : s.channels(e)) {
          if (c.dst_replica == dk) {
            EXPECT_EQ(c.src_replica, sk)
                << "edge " << e << ": co-located pair not using the "
                << "internal channel";
          }
        }
      }
    }
  }
}

TEST_P(McProperty, FailureFreeSimulationAchievesLowerBound) {
  const auto [seed, epsilon, selector] = GetParam();
  const auto w = small_workload(seed);
  McFtsaOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.selector = selector;
  const auto s = mc_ftsa_schedule(w->costs(), options);
  const SimulationResult r = simulate(s);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.latency, s.lower_bound(), 1e-9 * (1.0 + s.lower_bound()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0u, 1u, 2u),
                       ::testing::Values(McSelector::kGreedy,
                                         McSelector::kBinarySearchMatching)));

TEST(McFtsa, EveryReplicaHasExactlyOneInboundChannelPerEdge) {
  const auto w = small_workload(4);
  McFtsaOptions options;
  options.epsilon = 2;
  options.enforce_fault_tolerance = false;  // property of the §4.2 selection
  const auto s = mc_ftsa_schedule(w->costs(), options);
  for (std::size_t e = 0; e < w->graph().edge_count(); ++e) {
    const Edge& edge = w->graph().edge(e);
    std::vector<int> inbound(s.replicas(edge.dst).size(), 0);
    std::vector<int> outbound(s.replicas(edge.src).size(), 0);
    for (const Channel& c : s.channels(e)) {
      ++inbound[c.dst_replica];
      ++outbound[c.src_replica];
    }
    for (int count : inbound) EXPECT_EQ(count, 1);
    for (int count : outbound) EXPECT_EQ(count, 1);  // one-to-one mapping
  }
}

TEST(McFtsa, FewerMessagesThanFtsa) {
  // The whole point of MC-FTSA: drastically fewer inter-processor messages.
  const auto w = small_workload(6, /*procs=*/10, /*tasks=*/60);
  FtsaOptions ftsa_opts;
  ftsa_opts.epsilon = 3;
  McFtsaOptions mc_opts;
  mc_opts.epsilon = 3;
  const auto ftsa = ftsa_schedule(w->costs(), ftsa_opts);
  const auto mc = mc_ftsa_schedule(w->costs(), mc_opts);
  EXPECT_LT(mc.interproc_message_count(), ftsa.interproc_message_count());
  EXPECT_LT(mc.channel_count(), ftsa.channel_count());
  // In paper mode the linear bound e(ε+1) is exact.
  mc_opts.enforce_fault_tolerance = false;
  const auto mc_paper = mc_ftsa_schedule(w->costs(), mc_opts);
  EXPECT_EQ(mc_paper.channel_count(), w->graph().edge_count() * 4);
}

TEST(McFtsa, LowerBoundAtLeastFtsa) {
  // Restricting channels can only delay data arrival: for the same replica
  // placement decisions MC-FTSA's bound is >= FTSA's. Placement decisions
  // are made with the same eq.-(1) evaluation, so this holds on average; we
  // assert the aggregate to stay robust to tie-break noise.
  double ftsa_sum = 0.0;
  double mc_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto w = small_workload(seed);
    FtsaOptions fo;
    fo.epsilon = 2;
    fo.seed = seed;
    McFtsaOptions mo;
    mo.epsilon = 2;
    mo.seed = seed;
    ftsa_sum += ftsa_schedule(w->costs(), fo).lower_bound();
    mc_sum += mc_ftsa_schedule(w->costs(), mo).lower_bound();
  }
  EXPECT_GE(mc_sum, ftsa_sum * 0.999);
}

// Regression for the soundness gap we found in the paper (see
// McFtsaOptions::enforce_fault_tolerance in core/mc_ftsa.hpp):
// the paper-faithful per-edge selection produces schedules that a SINGLE
// crash can break, and the repair fixes exactly those cases.
TEST(McFtsa, RepairRestoresTheorem41) {
  std::size_t gap_instances = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto w = small_workload(seed, /*procs=*/5, /*tasks=*/20);
    McFtsaOptions paper;
    paper.epsilon = 1;
    paper.seed = seed;
    paper.enforce_fault_tolerance = false;
    const auto unsafe = mc_ftsa_schedule(w->costs(), paper);
    McFtsaOptions fixed = paper;
    fixed.enforce_fault_tolerance = true;
    const auto safe = mc_ftsa_schedule(w->costs(), fixed);
    bool unsafe_failed = false;
    for (const FailureScenario& scenario : all_crash_subsets(5, 1)) {
      if (!simulate(unsafe, scenario).success) unsafe_failed = true;
      // The repaired schedule must survive every single-crash scenario.
      EXPECT_TRUE(simulate(safe, scenario).success);
    }
    if (unsafe_failed) ++gap_instances;
  }
  // The gap is not a fluke: it shows up in several of the six instances.
  EXPECT_GE(gap_instances, 1u);
}

TEST(McFtsa, UpperBoundTighterThanFtsaOnAverage) {
  // With one inbound channel per replica, the pessimistic timeline no
  // longer takes a max over all replica pairs, so M should be much closer
  // to M* than FTSA's (the paper's Figure 1a observation).
  double ftsa_gap = 0.0;
  double mc_gap = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto w = small_workload(seed, /*procs=*/10, /*tasks=*/50);
    FtsaOptions fo;
    fo.epsilon = 2;
    McFtsaOptions mo;
    mo.epsilon = 2;
    const auto f = ftsa_schedule(w->costs(), fo);
    const auto m = mc_ftsa_schedule(w->costs(), mo);
    ftsa_gap += f.upper_bound() - f.lower_bound();
    mc_gap += m.upper_bound() - m.lower_bound();
  }
  EXPECT_LT(mc_gap, ftsa_gap);
}

}  // namespace
}  // namespace ftsched
