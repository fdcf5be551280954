// Unit tests for the platform substrate: Platform, CostModel, failures,
// generators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ftsched/platform/cost_model.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/platform/generator.hpp"
#include "ftsched/platform/platform.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"

namespace ftsched {
namespace {

// ---------------------------------------------------------------- platform

TEST(Platform, UniformDelays) {
  const Platform p(4, 0.5);
  EXPECT_EQ(p.proc_count(), 4u);
  EXPECT_DOUBLE_EQ(p.delay(ProcId{0u}, ProcId{1u}), 0.5);
  EXPECT_DOUBLE_EQ(p.delay(ProcId{2u}, ProcId{2u}), 0.0);
  EXPECT_DOUBLE_EQ(p.average_delay(), 0.5);
  EXPECT_DOUBLE_EQ(p.max_delay(), 0.5);
  EXPECT_DOUBLE_EQ(p.max_delay_from(ProcId{1u}), 0.5);
}

TEST(Platform, MatrixConstruction) {
  const Platform p({{0.0, 1.0, 2.0}, {3.0, 0.0, 4.0}, {5.0, 6.0, 0.0}});
  EXPECT_DOUBLE_EQ(p.delay(ProcId{0u}, ProcId{2u}), 2.0);
  EXPECT_DOUBLE_EQ(p.delay(ProcId{2u}, ProcId{1u}), 6.0);
  EXPECT_DOUBLE_EQ(p.average_delay(), 21.0 / 6.0);
  EXPECT_DOUBLE_EQ(p.max_delay(), 6.0);
  EXPECT_DOUBLE_EQ(p.max_delay_from(ProcId{0u}), 2.0);
}

TEST(Platform, RejectsBadMatrices) {
  EXPECT_THROW(Platform({{0.0, 1.0}}), InvalidArgument);          // not square
  EXPECT_THROW(Platform({{1.0, 1.0}, {1.0, 0.0}}), InvalidArgument);  // diag
  EXPECT_THROW(Platform({{0.0, -1.0}, {1.0, 0.0}}), InvalidArgument);
  EXPECT_THROW(Platform(0, 1.0), InvalidArgument);
}

TEST(Platform, SingleProcessor) {
  const Platform p(1, 1.0);
  EXPECT_DOUBLE_EQ(p.average_delay(), 0.0);
  EXPECT_EQ(p.procs().size(), 1u);
}

TEST(Platform, FastestLinks) {
  // P1 has cheap outgoing links, P0 expensive.
  const Platform p({{0.0, 9.0, 9.0}, {1.0, 0.0, 1.0}, {5.0, 5.0, 0.0}});
  const auto fastest = p.fastest_links(2);
  ASSERT_EQ(fastest.size(), 2u);
  EXPECT_EQ(fastest[0], ProcId{1u});
  EXPECT_EQ(fastest[1], ProcId{2u});
}

TEST(Platform, OffDiagonalDelays) {
  const Platform p(3, 2.0);
  const auto d = p.off_diagonal_delays();
  EXPECT_EQ(d.size(), 6u);
  for (double x : d) EXPECT_DOUBLE_EQ(x, 2.0);
}

// ---------------------------------------------------------------- cost model

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : graph_(make_chain(3, ClassicParams{10.0})),
        platform_(2, 1.0),
        costs_(graph_, platform_,
               {{2.0, 4.0}, {6.0, 8.0}, {1.0, 3.0}}) {}

  TaskGraph graph_;
  Platform platform_;
  CostModel costs_;
};

TEST_F(CostModelTest, ExecLookup) {
  EXPECT_DOUBLE_EQ(costs_.exec(TaskId{0u}, ProcId{1u}), 4.0);
  EXPECT_DOUBLE_EQ(costs_.exec(TaskId{2u}, ProcId{0u}), 1.0);
}

TEST_F(CostModelTest, Aggregates) {
  EXPECT_DOUBLE_EQ(costs_.avg_exec(TaskId{0u}), 3.0);
  EXPECT_DOUBLE_EQ(costs_.max_exec(TaskId{1u}), 8.0);
  EXPECT_DOUBLE_EQ(costs_.min_exec(TaskId{1u}), 6.0);
  EXPECT_DOUBLE_EQ(costs_.mean_avg_exec(), (3.0 + 7.0 + 2.0) / 3.0);
}

TEST_F(CostModelTest, AvgExecOnSubset) {
  EXPECT_DOUBLE_EQ(costs_.avg_exec_on(TaskId{0u}, {ProcId{1u}}), 4.0);
  EXPECT_THROW((void)costs_.avg_exec_on(TaskId{0u}, {}), InvalidArgument);
}

TEST_F(CostModelTest, CommCost) {
  // chain edges have volume 10, delay 1 inter-proc / 0 intra.
  EXPECT_DOUBLE_EQ(costs_.comm(0, ProcId{0u}, ProcId{1u}), 10.0);
  EXPECT_DOUBLE_EQ(costs_.comm(0, ProcId{0u}, ProcId{0u}), 0.0);
  EXPECT_DOUBLE_EQ(costs_.avg_comm(0), 10.0);
}

TEST_F(CostModelTest, Granularity) {
  // comp = 4 + 8 + 3 = 15; comm = 2 edges * 10 * 1 = 20.
  EXPECT_DOUBLE_EQ(costs_.granularity(), 15.0 / 20.0);
}

TEST_F(CostModelTest, ScaleExec) {
  costs_.scale_exec(2.0);
  EXPECT_DOUBLE_EQ(costs_.exec(TaskId{0u}, ProcId{0u}), 4.0);
  EXPECT_DOUBLE_EQ(costs_.granularity(), 30.0 / 20.0);
  EXPECT_THROW(costs_.scale_exec(0.0), InvalidArgument);
}

TEST(CostModel, GranularityInfiniteWithoutEdges) {
  TaskGraph g;
  (void)g.add_task();
  const Platform p(2, 1.0);
  const CostModel costs(g, p, {{1.0, 2.0}});
  EXPECT_TRUE(std::isinf(costs.granularity()));
}

TEST(CostModel, RejectsBadMatrices) {
  TaskGraph g;
  (void)g.add_task();
  const Platform p(2, 1.0);
  EXPECT_THROW(CostModel(g, p, {}), InvalidArgument);
  EXPECT_THROW(CostModel(g, p, {{1.0}}), InvalidArgument);
  EXPECT_THROW(CostModel(g, p, {{1.0, 0.0}}), InvalidArgument);  // zero exec
}

// ---------------------------------------------------------------- failures

TEST(Failure, BasicScenario) {
  FailureScenario s;
  s.add(ProcId{2u}, 5.0);
  EXPECT_EQ(s.crash_count(), 1u);
  EXPECT_TRUE(s.is_failed(ProcId{2u}));
  EXPECT_FALSE(s.is_failed(ProcId{1u}));
  EXPECT_DOUBLE_EQ(s.crash_time(ProcId{2u}), 5.0);
  EXPECT_TRUE(s.alive_at(ProcId{2u}, 4.9));
  EXPECT_FALSE(s.alive_at(ProcId{2u}, 5.0));
  EXPECT_TRUE(s.alive_at(ProcId{1u}, 1e9));
  EXPECT_FALSE(s.has_repairs());
  EXPECT_FALSE(s.alive_at(ProcId{2u}, 1e9));  // permanent by default
}

TEST(Failure, RepairEndsTheOutage) {
  FailureScenario s;
  s.add(ProcId{2u}, 5.0, 8.0);
  EXPECT_TRUE(s.has_repairs());
  EXPECT_TRUE(s.is_failed(ProcId{2u}));
  EXPECT_DOUBLE_EQ(s.crashes().front().repair, 8.0);
  EXPECT_TRUE(s.alive_at(ProcId{2u}, 4.9));
  EXPECT_FALSE(s.alive_at(ProcId{2u}, 5.0));
  EXPECT_FALSE(s.alive_at(ProcId{2u}, 7.9));
  EXPECT_TRUE(s.alive_at(ProcId{2u}, 8.0));
}

TEST(Failure, RejectsDuplicatesAndBadInput) {
  FailureScenario s;
  s.add(ProcId{0u});
  EXPECT_THROW(s.add(ProcId{0u}, 1.0), InvalidArgument);
  EXPECT_THROW(s.add(ProcId{0u}, 1.0, 2.0), InvalidArgument);
  EXPECT_THROW(s.add(ProcId{1u}, -1.0), InvalidArgument);
  EXPECT_THROW(s.add(ProcId{}), InvalidArgument);
  // A finite repair must come strictly after the crash.
  EXPECT_THROW(s.add(ProcId{1u}, 3.0, 3.0), InvalidArgument);
  EXPECT_THROW(s.add(ProcId{1u}, 3.0, 2.0), InvalidArgument);
  EXPECT_EQ(s.crash_count(), 1u);
}

TEST(Failure, RandomCrashesDistinctVictims) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const FailureScenario s = random_crashes(rng, 10, 4);
    EXPECT_EQ(s.crash_count(), 4u);
    std::set<ProcId> victims;
    for (const Crash& c : s.crashes()) {
      victims.insert(c.proc);
      EXPECT_DOUBLE_EQ(c.time, 0.0);
      EXPECT_LT(c.proc.index(), 10u);
    }
    EXPECT_EQ(victims.size(), 4u);
  }
}

TEST(Failure, RandomTimedCrashesWithinHorizon) {
  Rng rng(3);
  const FailureScenario s = random_timed_crashes(rng, 8, 3, 100.0);
  for (const Crash& c : s.crashes()) {
    EXPECT_GE(c.time, 0.0);
    EXPECT_LT(c.time, 100.0);
  }
}

TEST(Failure, AllSubsetsCount) {
  EXPECT_EQ(all_crash_subsets(5, 0).size(), 1u);
  EXPECT_EQ(all_crash_subsets(5, 1).size(), 5u);
  EXPECT_EQ(all_crash_subsets(5, 2).size(), 10u);
  EXPECT_EQ(all_crash_subsets(5, 3).size(), 10u);
  EXPECT_EQ(all_crash_subsets(6, 3).size(), 20u);
}

TEST(Failure, AllSubsetsAreDistinctAndCorrectSize) {
  const auto subsets = all_crash_subsets(6, 2);
  std::set<std::set<std::uint32_t>> seen;
  for (const FailureScenario& s : subsets) {
    EXPECT_EQ(s.crash_count(), 2u);
    std::set<std::uint32_t> key;
    for (const Crash& c : s.crashes()) key.insert(c.proc.value());
    seen.insert(key);
  }
  EXPECT_EQ(seen.size(), subsets.size());
}

// ---------------------------------------------------------------- generators

TEST(Generator, RandomPlatformDelaysInRange) {
  Rng rng(1);
  PlatformParams params;
  params.proc_count = 10;
  params.delay_min = 0.5;
  params.delay_max = 1.0;
  const Platform p = make_random_platform(rng, params);
  EXPECT_EQ(p.proc_count(), 10u);
  for (ProcId a : p.procs()) {
    for (ProcId b : p.procs()) {
      const double d = p.delay(a, b);
      if (a == b) {
        EXPECT_DOUBLE_EQ(d, 0.0);
      } else {
        EXPECT_GE(d, 0.5);
        EXPECT_LT(d, 1.0);
      }
    }
  }
}

TEST(Generator, InconsistentExecCosts) {
  Rng rng(2);
  const TaskGraph g = make_chain(20);
  ExecCostParams params;
  params.base_min = 10.0;
  params.base_max = 50.0;
  params.spread = 1.0;
  const auto exec = make_exec_costs(rng, g, 5, params);
  ASSERT_EQ(exec.size(), 20u);
  for (const auto& row : exec) {
    ASSERT_EQ(row.size(), 5u);
    for (double e : row) {
      EXPECT_GE(e, 10.0);
      EXPECT_LE(e, 100.0);  // base_max * (1 + spread)
    }
  }
}

TEST(Generator, ConsistentExecCostsAreRatioConsistent) {
  Rng rng(2);
  const TaskGraph g = make_chain(10);
  ExecCostParams params;
  params.heterogeneity = Heterogeneity::kConsistent;
  const auto exec = make_exec_costs(rng, g, 4, params);
  // Under the uniform-machines model, exec[t][p] / exec[t][q] is the same
  // for every task t.
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t q = 0; q < 4; ++q) {
      const double ratio = exec[0][p] / exec[0][q];
      for (std::size_t t = 1; t < 10; ++t) {
        EXPECT_NEAR(exec[t][p] / exec[t][q], ratio, 1e-9);
      }
    }
  }
}

TEST(Generator, RejectsBadParams) {
  Rng rng(1);
  const TaskGraph g = make_chain(2);
  ExecCostParams bad;
  bad.base_min = 0.0;
  EXPECT_THROW((void)make_exec_costs(rng, g, 2, bad), InvalidArgument);
  PlatformParams badp;
  badp.proc_count = 0;
  EXPECT_THROW((void)make_random_platform(rng, badp), InvalidArgument);
}

}  // namespace
}  // namespace ftsched
