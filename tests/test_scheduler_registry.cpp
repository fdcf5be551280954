// Tests for the polymorphic scheduler layer: the SchedulerRegistry (name
// lookup, option parsing, error paths, spec round-trips), the adapter
// classes, the ParallelExecutor, and the determinism contract of the
// parallel run_sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/parallel.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "ftsched/workload/workload_registry.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed = 3,
                                         std::size_t procs = 6) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 30;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

// ----------------------------------------------------------------- registry

TEST(SchedulerRegistry, AllBuiltinAlgorithmsConstructibleByName) {
  const auto w = small_workload();
  for (const char* name :
       {"ftsa", "mc-ftsa", "ftbar", "heft", "cpop", "random"}) {
    const SchedulerPtr s = SchedulerRegistry::global().create(name);
    ASSERT_NE(s, nullptr) << name;
    const ReplicatedSchedule schedule = s->run(w->costs());
    schedule.validate();
    EXPECT_FALSE(s->describe().empty());
  }
}

/// One small instance of a random registered workload family (all but
/// `trace`, which needs a file) and a schedule of it by every registered
/// scheduler, at a random ε and seed.
template <typename Check>
void for_every_scheduler_and_family(Rng& rng, std::uint64_t seed,
                                    Check&& check) {
  std::vector<std::string> families;
  for (const std::string& name : WorkloadRegistry::global().names()) {
    if (name != "trace") families.push_back(name);
  }
  const std::string family = families[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1))];
  const SweepPoint point{rng.uniform(0.2, 2.0),
                         static_cast<std::size_t>(rng.uniform_int(3, 8))};
  const auto w = make_workload_family(family, {{"size", "8"},
                                               {"tasks", "30"},
                                               {"tmin", "20"},
                                               {"tmax", "40"}})
                     ->generate(rng, point);
  const std::string eps = std::to_string(rng.uniform_int(1, 2));
  for (const std::string& algo : SchedulerRegistry::global().names()) {
    SCOPED_TRACE(family + " x " + algo + " eps=" + eps);
    const ReplicatedSchedule s =
        make_scheduler(algo, {{"eps", eps}, {"seed", std::to_string(seed)}})
            ->run(w->costs());
    check(s);
  }
}

TEST(SchedulerRegistry, EverySchedulerOutputValidatesOnEveryFamily) {
  // validate() includes the wait-for check: no schedule may queue a
  // replica's only usable input behind it.
  proptest::check(
      "registered scheduler x workload family -> validate() passes",
      [](Rng& rng, std::uint64_t seed) {
        for_every_scheduler_and_family(
            rng, seed,
            [](const ReplicatedSchedule& s) { EXPECT_NO_THROW(s.validate()); });
      },
      {.iterations = 30});
}

TEST(SchedulerRegistry, FaultFreeRunStartsEveryReplica) {
  // With no crash every processor stays live, so every replica must start
  // and complete: a replica left waiting is a deadlock that replication
  // would otherwise hide until one more crash exposes it.
  proptest::check(
      "registered scheduler x workload family -> fault-free run completes "
      "every replica",
      [](Rng& rng, std::uint64_t seed) {
        for_every_scheduler_and_family(rng, seed, [](const auto& s) {
          const SimulationResult r = simulate(s);
          EXPECT_TRUE(r.success);
          EXPECT_EQ(r.dead_replicas + r.cancelled_replicas, 0u);
          for (const auto& outcomes : r.outcomes) {
            for (const ReplicaOutcome& o : outcomes) {
              EXPECT_EQ(o.status, ReplicaStatus::kCompleted);
            }
          }
        });
      },
      {.iterations = 30});
}

TEST(SchedulerRegistry, UnknownNameThrowsWithKnownNamesListed) {
  try {
    (void)SchedulerRegistry::global().create("nonsense");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nonsense"), std::string::npos);
    EXPECT_NE(what.find("ftsa"), std::string::npos);  // alternatives listed
  }
}

TEST(SchedulerRegistry, UnknownOptionKeyThrowsWithSupportedKeysListed) {
  try {
    (void)SchedulerRegistry::global().create("ftsa:bogus=1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("eps"), std::string::npos);
  }
}

TEST(SchedulerRegistry, MalformedOptionStringsThrow) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  EXPECT_THROW((void)registry.create("ftsa:eps"), InvalidArgument);
  EXPECT_THROW((void)registry.create("ftsa:=2"), InvalidArgument);
  EXPECT_THROW((void)registry.create("ftsa:eps=1,eps=2"), InvalidArgument);
  EXPECT_THROW((void)registry.create("ftsa:eps=2,"), InvalidArgument);
  EXPECT_THROW((void)registry.create("ftsa:eps=two"), InvalidArgument);
  EXPECT_THROW((void)registry.create("ftsa:prio=zigzag"), InvalidArgument);
  EXPECT_THROW((void)registry.create("mc-ftsa:selector=x"), InvalidArgument);
  EXPECT_THROW((void)registry.create("heft:insertion=maybe"), InvalidArgument);
  EXPECT_THROW((void)registry.create("cpop:eps=1"), InvalidArgument);
}

TEST(SchedulerRegistry, NamesContainBuiltinsSorted) {
  const std::vector<std::string> names = SchedulerRegistry::global().names();
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* expected :
       {"ftsa", "mc-ftsa", "mc-ftsa-paper", "ftbar", "heft", "cpop",
        "random"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SchedulerRegistry, SpecRoundTripsThroughName) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  for (const char* spec :
       {"ftsa", "ftsa:eps=2,prio=bl", "ftsa:eps=3,ports=1,seed=9",
        "mc-ftsa:enforce=0,eps=2,selector=matching", "ftbar:npf=2,seed=5",
        "ftbar:mst=0", "heft", "heft:insertion=0", "cpop",
        "mc-ftsa:seed=77", "random", "random:eps=2,seed=3"}) {
    const SchedulerPtr first = registry.create(spec);
    const SchedulerPtr second = registry.create(first->name());
    EXPECT_EQ(first->name(), second->name()) << "spec: " << spec;
  }
}

TEST(SchedulerRegistry, CanonicalNameOmitsDefaults) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  EXPECT_EQ(registry.create("ftsa:eps=1,seed=0,prio=crit")->name(), "ftsa");
  EXPECT_EQ(registry.create("ftsa:eps=2,prio=bl")->name(),
            "ftsa:eps=2,prio=bl");
  EXPECT_EQ(registry.create("mc-ftsa-paper")->name(), "mc-ftsa:enforce=0");
  EXPECT_EQ(registry.create("ftbar:eps=2")->name(), "ftbar:npf=2");
}

TEST(SchedulerRegistry, OptionsParsedIntoAdapterStructs) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  const SchedulerPtr s =
      registry.create("ftsa:eps=4,seed=123,prio=random,ports=2");
  const auto* ftsa = dynamic_cast<const FtsaScheduler*>(s.get());
  ASSERT_NE(ftsa, nullptr);
  EXPECT_EQ(ftsa->options().epsilon, 4u);
  EXPECT_EQ(ftsa->options().seed, 123u);
  EXPECT_EQ(ftsa->options().priority, FtsaPriority::kRandom);
  EXPECT_EQ(ftsa->options().comm.ports, 2u);

  const SchedulerPtr m = registry.create("mc-ftsa:selector=matching,enforce=0");
  const auto* mc = dynamic_cast<const McFtsaScheduler*>(m.get());
  ASSERT_NE(mc, nullptr);
  EXPECT_EQ(mc->options().selector, McSelector::kBinarySearchMatching);
  EXPECT_FALSE(mc->options().enforce_fault_tolerance);
}

TEST(SchedulerRegistry, AdaptersMatchDirectCalls) {
  const auto w = small_workload();
  FtsaOptions options;
  options.epsilon = 2;
  options.seed = 11;
  const ReplicatedSchedule direct = ftsa_schedule(w->costs(), options);
  const ReplicatedSchedule via_registry =
      SchedulerRegistry::global().create("ftsa:eps=2,seed=11")->run(w->costs());
  EXPECT_EQ(direct.lower_bound(), via_registry.lower_bound());
  EXPECT_EQ(direct.upper_bound(), via_registry.upper_bound());
  EXPECT_EQ(direct.interproc_message_count(),
            via_registry.interproc_message_count());
}

TEST(SchedulerRegistry, MakeSchedulerInjectsSupportedDefaultsOnly) {
  // eps/seed defaults land where the algorithm takes them...
  const SchedulerPtr s = make_scheduler("ftsa", {{"eps", "3"}, {"seed", "7"}});
  const auto* ftsa = dynamic_cast<const FtsaScheduler*>(s.get());
  ASSERT_NE(ftsa, nullptr);
  EXPECT_EQ(ftsa->options().epsilon, 3u);
  EXPECT_EQ(ftsa->options().seed, 7u);
  // ...explicit spec options win over the defaults...
  const SchedulerPtr pinned =
      make_scheduler("ftsa:eps=1", {{"eps", "3"}, {"seed", "7"}});
  const auto* pinned_ftsa = dynamic_cast<const FtsaScheduler*>(pinned.get());
  ASSERT_NE(pinned_ftsa, nullptr);
  EXPECT_EQ(pinned_ftsa->options().epsilon, 1u);
  // ...and algorithms without the key are unaffected instead of rejecting.
  EXPECT_NO_THROW((void)make_scheduler("cpop", {{"eps", "3"}, {"seed", "7"}}));
}

TEST(SchedulerRegistry, DuplicateRegistrationThrows) {
  SchedulerRegistry registry;
  SchedulerRegistry::Entry entry;
  entry.name = "dummy";
  entry.factory = [](const SchedulerOptions&) -> SchedulerPtr {
    return std::make_unique<CpopScheduler>();
  };
  registry.add(entry);
  EXPECT_THROW(registry.add(entry), InvalidArgument);
  EXPECT_TRUE(registry.contains("dummy"));
  EXPECT_FALSE(registry.contains("cpop"));  // separate from the global one
}

// --------------------------------------------------------- ParallelExecutor

TEST(ParallelExecutor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelExecutor executor(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    executor.for_each(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelExecutor, ZeroCountIsANoop) {
  ParallelExecutor executor(4);
  executor.for_each(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelExecutor, ReusableAcrossJobs) {
  ParallelExecutor executor(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    executor.for_each(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelExecutor, ExceptionsPropagateToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    ParallelExecutor executor(threads);
    EXPECT_THROW(
        executor.for_each(64,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error)
        << "threads=" << threads;
    // The executor stays usable after an exception.
    std::atomic<int> ran{0};
    executor.for_each(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(Rng, DeriveIsStableAndKeyed) {
  const Rng parent(42);
  Rng a = parent.derive(7);
  Rng b = parent.derive(7);
  Rng c = parent.derive(8);
  const std::uint64_t first_a = a();
  EXPECT_EQ(first_a, b());             // same key → same stream
  EXPECT_NE(first_a, c());             // different key → different stream
  Rng advanced(42);
  (void)advanced();
  (void)advanced();
  EXPECT_NE(advanced.derive(7)(), first_a);  // state-dependent
}

// ------------------------------------------------------- deterministic sweep

FigureConfig tiny_sweep_config(std::size_t threads) {
  FigureConfig config;
  config.epsilon = 1;
  config.proc_count = 6;
  config.graphs_per_point = 2;
  config.seed = 7;
  config.granularities = {0.6, 1.4};
  config.extra_crash_counts = {};
  config.threads = threads;
  config.workload.task_min = 20;
  config.workload.task_max = 25;
  config.workload.proc_count = 6;
  return config;
}

TEST(RunSweep, EmitsThePaperSeriesLayout) {
  const SweepResult sweep = run_sweep(tiny_sweep_config(1));
  for (const char* series :
       {"FTSA-LowerBound", "FTSA-UpperBound", "MC-FTSA-LowerBound",
        "MC-FTSA-UpperBound", "FTBAR-LowerBound", "FTBAR-UpperBound",
        "FaultFree-FTSA", "FaultFree-FTBAR", "FTSA-0Crash", "FTSA-1Crash",
        "MC-FTSA-1Crash", "FTBAR-1Crash", "OH-FTSA-LowerBound",
        "OH-FTBAR-LowerBound", "OH-FTSA-1Crash", "Msg-FTSA", "Msg-MC-FTSA",
        "Msg-FTBAR", "MC-RepairRate"}) {
    EXPECT_TRUE(sweep.series.count(series)) << "missing series " << series;
  }
  ASSERT_EQ(sweep.granularities.size(), 2u);
  for (const auto& [name, stats] : sweep.series) {
    ASSERT_EQ(stats.size(), 2u) << name;
    EXPECT_EQ(stats[0].count(), 2u) << name;
  }
}

TEST(RunSweep, ParallelIsBitIdenticalToSerial) {
  const SweepResult serial = run_sweep(tiny_sweep_config(1));
  const SweepResult parallel2 = run_sweep(tiny_sweep_config(2));
  const SweepResult parallel5 = run_sweep(tiny_sweep_config(5));
  EXPECT_TRUE(sweep_results_identical(serial, serial));
  EXPECT_TRUE(sweep_results_identical(serial, parallel2));
  EXPECT_TRUE(sweep_results_identical(serial, parallel5));
}

TEST(RunSweep, DifferentSeedsDiffer) {
  FigureConfig a = tiny_sweep_config(1);
  FigureConfig b = tiny_sweep_config(1);
  b.seed = 8;
  EXPECT_FALSE(sweep_results_identical(run_sweep(a), run_sweep(b)));
}

TEST(EvaluateInstance, CustomAlgoListViaRegistry) {
  const auto w = small_workload(5, 6);
  InstanceOptions options;
  options.epsilon = 1;
  options.seed = 9;
  InstanceAlgo heft;
  heft.key = "HEFT";
  heft.spec = "heft";
  options.algos = {heft};
  Rng rng(1);
  const InstanceSchedules schedules = build_instance_schedules(*w, options);
  const CellDraw draw =
      draw_instance_cell(schedules, rng, CrashTimeLaw{}, FailureModel{});
  const SeriesSample sample = simulate_drawn_cell(schedules, draw, nullptr);
  EXPECT_TRUE(sample.count("HEFT-LowerBound"));
  EXPECT_TRUE(sample.count("Msg-HEFT"));
  EXPECT_TRUE(sample.count("FaultFree-FTSA"));
  EXPECT_FALSE(sample.count("FTSA-LowerBound"));
}

// ------------------------------------------- random placement baseline

TEST(RandomScheduler, ProducesValidFaultTolerantSchedules) {
  const auto w = small_workload(3, 7);
  for (std::size_t eps : {0u, 1u, 2u}) {
    const auto s = make_scheduler("random:eps=" + std::to_string(eps) +
                                  ",seed=11")
                       ->run(w->costs());
    s.validate();
    EXPECT_EQ(s.epsilon(), eps);
    EXPECT_LE(s.lower_bound(), s.upper_bound() + 1e-9);
  }
}

TEST(RandomScheduler, DeterministicPerSeedAndSeedSensitive) {
  const auto w = small_workload(4, 6);
  const auto a = make_scheduler("random:seed=5")->run(w->costs());
  const auto b = make_scheduler("random:seed=5")->run(w->costs());
  const auto c = make_scheduler("random:seed=6")->run(w->costs());
  EXPECT_EQ(a.lower_bound(), b.lower_bound());
  EXPECT_EQ(a.upper_bound(), b.upper_bound());
  // Different placement seeds give different schedules (astronomically
  // likely for a 30-task workload on 6 processors).
  EXPECT_NE(a.mapping_matrix(), c.mapping_matrix());
}

TEST(RandomScheduler, SweepableViaInstanceAlgoList) {
  // The PR-1 seam end to end: a registry entry is all it takes for an
  // algorithm to be sweepable next to the paper's trio.
  const auto w = small_workload(5, 6);
  InstanceOptions options;
  options.epsilon = 1;
  options.seed = 9;
  InstanceAlgo random;
  random.key = "RANDOM";
  random.spec = "random";
  random.crash_counts = {1};
  options.algos = {random};
  Rng rng(1);
  const InstanceSchedules schedules = build_instance_schedules(*w, options);
  const CellDraw draw =
      draw_instance_cell(schedules, rng, CrashTimeLaw{}, FailureModel{});
  const SeriesSample sample = simulate_drawn_cell(schedules, draw, nullptr);
  EXPECT_TRUE(sample.count("RANDOM-LowerBound"));
  EXPECT_TRUE(sample.count("RANDOM-1Crash"));
  EXPECT_TRUE(sample.count("Msg-RANDOM"));
  // Simulated crash latency stays within the schedule's guaranteed bound.
  EXPECT_LE(sample.at("RANDOM-1Crash"), sample.at("RANDOM-UpperBound") + 1e-9);
}

}  // namespace
}  // namespace ftsched
