// Tests for the kill-set robustness analyzer, cross-checked against the
// exhaustive simulation validator.
#include <gtest/gtest.h>

#include <tuple>

#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/robustness.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/validator.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 5,
                                         std::size_t tasks = 25) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

TEST(Robustness, FtsaIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    for (std::size_t epsilon : {1u, 2u}) {
      const auto s = ftsa_schedule(w->costs(), FtsaOptions{epsilon, seed});
      const RobustnessReport report = analyze_robustness(s);
      EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
          << report.summary();
      EXPECT_TRUE(report.fatal_processors.empty());
    }
  }
}

TEST(Robustness, EnforcedMcIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    for (const McSelector sel :
         {McSelector::kGreedy, McSelector::kBinarySearchMatching}) {
      const auto s =
          mc_ftsa_schedule(w->costs(), McFtsaOptions{2, seed, sel});
      const RobustnessReport report = analyze_robustness(s);
      EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
          << report.summary();
    }
  }
}

TEST(Robustness, FtbarIsCertified) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto w = small_workload(seed);
    FtbarOptions options;
    options.npf = 2;
    options.seed = seed;
    const auto s = ftbar_schedule(w->costs(), options);
    const RobustnessReport report = analyze_robustness(s);
    EXPECT_EQ(report.verdict, RobustnessVerdict::kCertifiedRobust)
        << report.summary();
  }
}

TEST(Robustness, FatalWitnessesAreRealCrashes) {
  // Paper-mode MC-FTSA schedules: every reported fatal processor, when
  // crashed alone in the simulator, must actually break the run — and
  // conversely a schedule with no fatal processor must survive every
  // single crash.
  std::size_t fatal_found = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto w = small_workload(seed);
    McFtsaOptions options;
    options.epsilon = 1;
    options.seed = seed;
    options.enforce_fault_tolerance = false;
    const auto s = mc_ftsa_schedule(w->costs(), options);
    const RobustnessReport report = analyze_robustness(s);
    if (report.verdict == RobustnessVerdict::kSingleCrashFatal) {
      ++fatal_found;
      ASSERT_FALSE(report.fatal_processors.empty());
      for (ProcId p : report.fatal_processors) {
        FailureScenario scenario;
        scenario.add(p, 0.0);
        EXPECT_FALSE(simulate(s, scenario).success)
            << "analysis claims P" << p.value() << " is fatal";
      }
    } else {
      // Exact single-crash analysis: no fatal processor => every single
      // crash survivable.
      for (std::size_t p = 0; p < 5; ++p) {
        FailureScenario scenario;
        scenario.add(ProcId{p}, 0.0);
        EXPECT_TRUE(simulate(s, scenario).success);
      }
    }
  }
  EXPECT_GE(fatal_found, 1u);  // the paper gap shows up in these seeds
}

TEST(Robustness, AgreesWithExhaustiveValidator) {
  // Certified => exhaustive validation passes; single-crash-fatal =>
  // exhaustive validation fails. (Inconclusive can go either way.)
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto w = small_workload(seed, /*procs=*/5, /*tasks=*/15);
    for (const bool enforce : {false, true}) {
      McFtsaOptions options;
      options.epsilon = 2;
      options.seed = seed;
      options.enforce_fault_tolerance = enforce;
      const auto s = mc_ftsa_schedule(w->costs(), options);
      const RobustnessReport analysis = analyze_robustness(s);
      const ValidationReport exhaustive = validate_fault_tolerance(s);
      if (analysis.verdict == RobustnessVerdict::kCertifiedRobust) {
        EXPECT_TRUE(exhaustive.valid) << exhaustive.failure_description;
      }
      if (analysis.verdict == RobustnessVerdict::kSingleCrashFatal) {
        EXPECT_FALSE(exhaustive.valid);
      }
    }
  }
}

/// `s` rewired the way FTBAR wired its channels before it checked queue
/// order: a destination with a source replica on its own processor reads
/// that replica alone, even one queued behind it.
ReplicatedSchedule any_local_shortcut(const ReplicatedSchedule& s) {
  ReplicatedSchedule out(s.costs(), s.epsilon(), s.algorithm());
  for (TaskId t : s.graph().tasks()) out.place_task(t, s.replicas(t));
  for (std::size_t e = 0; e < s.graph().edge_count(); ++e) {
    const Edge& edge = s.graph().edge(e);
    const auto& src_reps = s.replicas(edge.src);
    const auto& dst_reps = s.replicas(edge.dst);
    std::vector<Channel> channels;
    for (std::size_t dk = 0; dk < dst_reps.size(); ++dk) {
      std::size_t local = src_reps.size();
      for (std::size_t sk = 0; sk < src_reps.size() && local == src_reps.size();
           ++sk) {
        if (src_reps[sk].proc == dst_reps[dk].proc) local = sk;
      }
      for (std::size_t sk = 0; sk < src_reps.size(); ++sk) {
        if (local == src_reps.size() || sk == local) {
          channels.push_back(Channel{sk, dk});
        }
      }
    }
    out.set_channels(e, std::move(channels));
  }
  return out;
}

TEST(Robustness, QueuedBehindSourceIsNotCertified) {
  // a on P0 is queued behind b on P0 yet feeds it; b also reads a on P1.
  // A lone crash of P1 then kills b: b on P1 dies, and b on P0 waits
  // forever for a on P0, which waits for P0.  Counting a on P0 as a
  // source of b on P0 used to certify this schedule.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  g.add_edge(a, b, 1.0);
  const Platform platform(2, 1.0);
  const CostModel costs(g, platform,
                        std::vector<std::vector<double>>(2, {1.0, 1.0}));
  ReplicatedSchedule s(costs, 1, "hand");
  s.place_task(a, {Replica{ProcId{0u}, 3, 4, 3, 4},
                   Replica{ProcId{1u}, 0, 1, 0, 1}});
  s.place_task(b, {Replica{ProcId{0u}, 2, 3, 2, 3},
                   Replica{ProcId{1u}, 1, 2, 1, 2}});
  s.set_channels(0, {{1, 0}, {0, 0}, {1, 1}});
  EXPECT_THROW(s.validate(), Error);
  const RobustnessReport report = analyze_robustness(s);
  EXPECT_EQ(report.verdict, RobustnessVerdict::kSingleCrashFatal)
      << report.summary();
  ASSERT_EQ(report.fatal_processors.size(), 1u);
  EXPECT_EQ(report.fatal_processors[0], ProcId{1u});
  FailureScenario crash;
  crash.add(ProcId{1u}, 0.0);
  EXPECT_FALSE(simulate(s, crash).success);

  // With only the queued-behind source left, b on P0 never runs at all.
  s.set_channels(0, {{0, 0}, {1, 1}});
  const RobustnessReport starved = analyze_robustness(s);
  EXPECT_NE(starved.verdict, RobustnessVerdict::kCertifiedRobust);
  EXPECT_TRUE(starved.wait_for_cycle);
}

TEST(Robustness, CertifiedImpliesValid) {
  // Over FTSA, MC-FTSA and FTBAR schedules and FTBAR schedules rewired
  // with the unchecked local shortcut: "certified robust" must never be
  // said of a schedule validate() rejects.
  std::size_t cyclic = 0;
  proptest::check(
      "certified robust => validate() passes",
      [&cyclic](Rng& rng, std::uint64_t seed) {
        const auto procs = static_cast<std::size_t>(rng.uniform_int(8, 16));
        PaperWorkloadParams params;
        params.task_min = 20;
        params.task_max = 80;
        params.proc_count = procs;
        params.granularity = rng.uniform(0.1, 0.2);
        const auto w = make_paper_workload(rng, params);
        const auto eps = static_cast<std::size_t>(rng.uniform_int(1, 2));
        FtbarOptions ftbar;
        ftbar.npf = eps;
        ftbar.seed = seed;
        const ReplicatedSchedule fixed = ftbar_schedule(w->costs(), ftbar);
        EXPECT_TRUE(wait_for_graph(fixed).acyclic());
        const ReplicatedSchedule rewired = any_local_shortcut(fixed);
        if (!wait_for_graph(rewired).acyclic()) ++cyclic;
        for (const ReplicatedSchedule& s :
             {fixed, rewired, ftsa_schedule(w->costs(), FtsaOptions{eps, seed}),
              mc_ftsa_schedule(w->costs(), McFtsaOptions{eps, seed})}) {
          if (analyze_robustness(s).verdict ==
              RobustnessVerdict::kCertifiedRobust) {
            EXPECT_NO_THROW(s.validate()) << s.algorithm();
          }
        }
      },
      {.iterations = 100});
  // The rewiring must have produced the defect now and then.
  EXPECT_GT(cyclic, 0u);
}

TEST(Robustness, EpsilonZeroIsTriviallyCertified) {
  const auto w = small_workload(7);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{0, 0});
  // Against its own epsilon (0), the schedule is vacuously robust.
  EXPECT_EQ(analyze_robustness(s).verdict,
            RobustnessVerdict::kCertifiedRobust);
}

TEST(Robustness, SummaryIsHumanReadable) {
  const auto w = small_workload(8);
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
  const std::string text = analyze_robustness(s).summary();
  EXPECT_NE(text.find("certified"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
