// Build-once/SoA simulation engine equivalence: a reused ScheduleSimulator's
// run_summary() and its opt-in result() must be bit-exact with a fresh
// one-shot simulate() for every scenario, in every order, on every comm
// model, with and without repairs; and the cross-cell draw dedupe
// (SimulationCache / simulate_drawn_cell) must fan cached Summaries out
// without changing a single double, including graceful-degradation cells
// whose draws exceed ε and repair-law cells whose repairs change outcomes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
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
/// tolerated ε half the time, so failure paths are exercised too.  With
/// `repairs`, about half the victims restart after a random delay.
FailureScenario random_scenario(Rng& rng, std::size_t procs, double anchor,
                                bool repairs = false) {
  const std::size_t count = below(rng, procs);
  const auto victims = rng.sample_without_replacement(procs, count);
  FailureScenario scenario;
  for (const std::size_t v : victims) {
    const double crash = rng.uniform(0.0, 1.5) * anchor;
    double repair = std::numeric_limits<double>::infinity();
    if (repairs && rng.bernoulli(0.5)) {
      repair = crash + rng.uniform(0.05, 1.0) * anchor;
    }
    scenario.add(ProcId{v}, crash, repair);
  }
  return scenario;
}

/// Bit-exact Summary equality: same flag, same latency double (infinities
/// compare equal to themselves, which is what failed runs produce).
void expect_same(const ScheduleSimulator::Summary& got,
                 const SimulationResult& want) {
  EXPECT_EQ(got.success, want.success);
  if (std::isinf(want.latency)) {
    EXPECT_TRUE(std::isinf(got.latency));
  } else {
    EXPECT_EQ(got.latency, want.latency);
  }
}

/// A reused simulator on one scenario: the summary of the run, then the
/// opt-in per-replica result() of that same run.
void expect_run_same(ScheduleSimulator& sim, const FailureScenario& scenario,
                     const SimulationResult& want) {
  const ScheduleSimulator::Summary summary = sim.run_summary(scenario);
  expect_same(summary, want);
  EXPECT_EQ(summary.moves, 0u);
  const SimulationResult rerun = sim.result();
  EXPECT_EQ(rerun.success, want.success);
  EXPECT_EQ(rerun.latency, want.latency);
  EXPECT_EQ(rerun.completed_replicas, want.completed_replicas);
  EXPECT_EQ(rerun.dead_replicas, want.dead_replicas);
  EXPECT_EQ(rerun.cancelled_replicas, want.cancelled_replicas);
  EXPECT_EQ(rerun.messages_delivered, want.messages_delivered);
  ASSERT_EQ(rerun.outcomes.size(), want.outcomes.size());
  for (std::size_t t = 0; t < want.outcomes.size(); ++t) {
    ASSERT_EQ(rerun.outcomes[t].size(), want.outcomes[t].size());
    for (std::size_t k = 0; k < want.outcomes[t].size(); ++k) {
      EXPECT_EQ(rerun.outcomes[t][k].status, want.outcomes[t][k].status);
      EXPECT_EQ(rerun.outcomes[t][k].start, want.outcomes[t][k].start);
      EXPECT_EQ(rerun.outcomes[t][k].finish, want.outcomes[t][k].finish);
    }
  }
}

TEST(BatchSim, ReusedSimulatorMatchesFreshSimulatePerScenario) {
  proptest::check(
      "run_summary + result() == fresh simulate(), bit for bit",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 4);
        const auto w = random_workload(rng, procs, 12 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{eps, 0});

        std::vector<FailureScenario> scenarios;
        for (std::size_t i = 0; i < 8; ++i) {
          scenarios.push_back(random_scenario(rng, procs, s.lower_bound()));
        }

        // Reference: a brand-new engine per scenario (the one-shot path).
        std::vector<SimulationResult> fresh;
        fresh.reserve(scenarios.size());
        for (const FailureScenario& scenario : scenarios) {
          fresh.push_back(simulate(s, scenario));
        }

        // One reused simulator, in order and then in *reverse* order:
        // results must not depend on what ran before (the reset contract).
        ScheduleSimulator sim(s);
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          expect_run_same(sim, scenarios[i], fresh[i]);
        }
        for (std::size_t i = scenarios.size(); i-- > 0;) {
          expect_run_same(sim, scenarios[i], fresh[i]);
        }
      },
      {.iterations = 10});
}

TEST(BatchSim, SummaryAndResultAgreeUnderRepairs) {
  // With repairs the parked-replica path runs: the Summary of a run and
  // the result() read back from it must still fold the same doubles, and
  // a reused simulator must match a fresh simulate() of the same scenario.
  std::size_t repaired_runs = 0;
  proptest::check(
      "repairs: run_summary == result() == fresh simulate(), bit for bit",
      [&repaired_runs](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 4);
        const auto w = random_workload(rng, procs, 12 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{eps, 0});
        ScheduleSimulator sim(s);
        for (std::size_t i = 0; i < 8; ++i) {
          const FailureScenario scenario =
              random_scenario(rng, procs, s.lower_bound(), /*repairs=*/true);
          const ScheduleSimulator::Summary summary = sim.run_summary(scenario);
          const SimulationResult result = sim.result();
          EXPECT_EQ(summary.success, result.success);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.latency),
                    std::bit_cast<std::uint64_t>(result.latency));
          if (summary.repairs > 0) ++repaired_runs;
          expect_run_same(sim, scenario, simulate(s, scenario));
        }
      },
      {.iterations = 10});
  // Otherwise the property could pass without a single repair applied.
  EXPECT_GT(repaired_runs, 0u);
}

/// Options that keep run_summary on the event loop with the very arrival
/// times of the contention-free model: one send port per channel means no
/// message ever waits for a port, but the model is not contention-free, so
/// the crash-only forward pass stays off.
SimulationOptions event_loop_options(const ReplicatedSchedule& s) {
  SimulationOptions options;
  options.comm = {CommModelKind::kBoundedMultiPort, s.channel_count() + 1};
  return options;
}

/// Crashes of `count` random victims, each at one of `instants`; about
/// half of them share one instant, so equal-time crashes tie too.
FailureScenario scenario_at(Rng& rng, std::size_t procs, std::size_t count,
                            const std::vector<double>& instants) {
  FailureScenario scenario;
  const double shared = instants[below(rng, instants.size())];
  for (const std::size_t v : rng.sample_without_replacement(procs, count)) {
    scenario.add(ProcId{v}, rng.bernoulli(0.5)
                                ? shared
                                : instants[below(rng, instants.size())]);
  }
  return scenario;
}

/// Hand-built input no scheduler emits: a copy of a schedule on a platform
/// where about a third of the links cost nothing, with about a third of
/// the replicas taking no time (finish = start).  A finish then falls on
/// its own start instant and a remote message on its sender's finish,
/// where the event loop's phase order at one instant decides.  The
/// members point at each other, so the struct stays where it is built.
struct Degenerate {
  Platform platform;
  CostModel costs;
  ReplicatedSchedule schedule;

  Degenerate(const Degenerate&) = delete;
  Degenerate& operator=(const Degenerate&) = delete;

  Degenerate(Rng& rng, const ReplicatedSchedule& s)
      : platform(free_links(rng, s.platform())),
        costs(s.graph(), platform, exec_of(s.costs())),
        schedule(costs, s.epsilon(), s.algorithm()) {
    for (TaskId t : s.graph().tasks()) {
      std::vector<Replica> reps = s.replicas(t);
      for (Replica& r : reps) {
        if (rng.bernoulli(0.3)) r.finish = r.start;
      }
      schedule.place_task(t, std::move(reps));
    }
    for (std::size_t e = 0; e < s.graph().edge_count(); ++e) {
      const auto cs = s.channels(e);
      schedule.set_channels(e, {cs.begin(), cs.end()});
    }
  }

  static Platform free_links(Rng& rng, const Platform& p) {
    const std::size_t m = p.proc_count();
    std::vector<std::vector<double>> delay(m, std::vector<double>(m, 0.0));
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t h = 0; h < m; ++h) {
        if (k != h && !rng.bernoulli(0.3)) {
          delay[k][h] = p.delay(ProcId{k}, ProcId{h});
        }
      }
    }
    return Platform(std::move(delay));
  }

  static std::vector<std::vector<double>> exec_of(const CostModel& c) {
    std::vector<std::vector<double>> exec(c.graph().task_count());
    for (TaskId t : c.graph().tasks()) {
      for (std::size_t p = 0; p < c.platform().proc_count(); ++p) {
        exec[t.index()].push_back(c.exec(t, ProcId{p}));
      }
    }
    return exec;
  }
};

/// Runs every scenario on the forward pass and on the event loop and
/// compares the two, Summary and result(); returns the failed-run count.
std::size_t expect_forward_matches_loop(
    const ReplicatedSchedule& s,
    const std::vector<FailureScenario>& scenarios) {
  ScheduleSimulator fast(s);
  ScheduleSimulator loop(s, event_loop_options(s));
  std::size_t failed = 0;
  for (const FailureScenario& scenario : scenarios) {
    (void)loop.run_summary(scenario);
    const SimulationResult want = loop.result();
    if (!want.success) ++failed;
    expect_run_same(fast, scenario, want);
  }
  return failed;
}

TEST(BatchSim, ForwardPassMatchesEventLoop) {
  // The crash-only forward pass against the event loop it replaces, bit
  // for bit on the Summary and on result(), for every registered scheduler
  // under every crash-only law — plus crashes placed exactly on fault-free
  // start and finish instants, where the loop's tie rules decide (a finish
  // at the crash instant counts; a replica started at it dies with that
  // start; a loss at a crash instant cascades before the next crash).
  const std::vector<std::string> algos = SchedulerRegistry::global().names();
  const std::vector<CrashTimeLaw> laws = {
      CrashTimeLaw::parse("t0"), CrashTimeLaw::parse("frac:f=0.5"),
      CrashTimeLaw::parse("uniform:hi=1")};
  std::vector<FailureModel> models = {FailureModel::parse("bernoulli:p=0.3"),
                                      FailureModel::parse("burst:p=0.4")};
  std::size_t failed_runs = 0;
  proptest::check(
      "forward pass == event loop, bit for bit",
      [&](Rng& rng, std::uint64_t seed) {
        const std::size_t procs = 4 + below(rng, 4);
        const auto w = random_workload(rng, procs, 10 + below(rng, 20));
        const std::size_t eps = 1 + below(rng, 2);
        std::vector<FailureModel> cell_models = models;
        cell_models.push_back(FailureModel::parse("eps"));
        cell_models.push_back(
            FailureModel::parse("fixed:k=" + std::to_string(eps + 1)));
        for (const std::string& algo : algos) {
          SCOPED_TRACE(algo);
          const auto s =
              make_scheduler(algo, {{"eps", std::to_string(eps)},
                                    {"npf", std::to_string(eps)},
                                    {"seed", std::to_string(seed)}})
                  ->run(w->costs());
          const SimulationResult fault_free = simulate(s);
          std::vector<double> instants = {0.0};
          for (const auto& outcomes : fault_free.outcomes) {
            for (const ReplicaOutcome& o : outcomes) {
              instants.push_back(o.start);
              instants.push_back(o.finish);
            }
          }

          std::vector<FailureScenario> scenarios = {FailureScenario{}};
          for (const CrashTimeLaw& law : laws) {
            for (const FailureModel& model : cell_models) {
              const CellDraw draw =
                  draw_cell(rng, procs, s.epsilon(), law, model);
              scenarios.push_back(
                  draw.scenario(s.lower_bound(), draw.victims.size()));
            }
          }
          for (std::size_t i = 0; i < 6; ++i) {
            scenarios.push_back(
                scenario_at(rng, procs, 1 + below(rng, procs), instants));
          }
          failed_runs += expect_forward_matches_loop(s, scenarios);

          // The degenerate copy, with crashes on its own fault-free instants.
          const Degenerate degenerate(rng, s);
          const SimulationResult degenerate_free =
              simulate(degenerate.schedule);
          instants.assign(1, 0.0);
          for (const auto& outcomes : degenerate_free.outcomes) {
            for (const ReplicaOutcome& o : outcomes) {
              instants.push_back(o.start);
              instants.push_back(o.finish);
            }
          }
          for (std::size_t i = 0; i < 6; ++i) {
            scenarios.push_back(
                scenario_at(rng, procs, 1 + below(rng, procs), instants));
          }
          failed_runs +=
              expect_forward_matches_loop(degenerate.schedule, scenarios);
        }
      },
      {.iterations = 8});
  // Failed runs exercise the doomed-replica rules; they must occur.
  EXPECT_GT(failed_runs, 0u);
}

TEST(BatchSim, ReusedSimulatorMatchesFreshSimulateUnderPortedComm) {
  // The ported comm model carries per-run heap state; its reset() must make
  // a reused simulator indistinguishable from a fresh one.
  proptest::check(
      "reused simulator == fresh simulate() under the one-port model",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 4 + below(rng, 3);
        const auto w = random_workload(rng, procs, 12 + below(rng, 12));
        const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, 0});
        SimulationOptions options;
        options.comm.kind = CommModelKind::kOnePort;

        std::vector<FailureScenario> scenarios;
        for (std::size_t i = 0; i < 6; ++i) {
          scenarios.push_back(random_scenario(rng, procs, s.lower_bound()));
        }
        ScheduleSimulator sim(s, options);
        for (const FailureScenario& scenario : scenarios) {
          expect_run_same(sim, scenario, simulate(s, scenario, options));
        }
      },
      {.iterations = 8});
}

TEST(BatchSim, DrawnCellWithCacheMatchesUncachedCell) {
  // simulate_drawn_cell must be bit-identical with and without a shared
  // SimulationCache, for default and non-default failure models (the latter
  // drawing past ε into the graceful-degradation series).
  proptest::check(
      "simulate_drawn_cell(cache) == simulate_drawn_cell(no cache), bit for "
      "bit",
      [](Rng& rng, std::uint64_t) {
        const std::size_t procs = 5 + below(rng, 3);
        const auto w = random_workload(rng, procs, 14 + below(rng, 12));
        InstanceOptions options;
        options.epsilon = 1 + below(rng, 2);
        options.seed = rng();
        const InstanceSchedules schedules =
            build_instance_schedules(*w, options);

        const std::vector<CrashTimeLaw> laws = {
            CrashTimeLaw::parse("t0"), CrashTimeLaw::parse("uniform:hi=1")};
        // bernoulli:p=0.7 draws more than ε victims often, exercising the
        // >ε degradation path (success indicator, possibly failed runs).
        // repair:p=0.7 draws the very same victims and instants, then
        // repair delays: a cache key blind to those would serve it the
        // crash-only summaries.
        const std::vector<FailureModel> models = {
            FailureModel::parse("eps"), FailureModel::parse("bernoulli:p=0.7"),
            FailureModel::parse("repair:p=0.7,mttr=0.5"),
            FailureModel::parse("fixed:k=" + std::to_string(options.epsilon))};

        SimulationCache cache;
        for (const CrashTimeLaw& law : laws) {
          for (const FailureModel& model : models) {
            Rng cell_rng = rng;  // each cell re-reads the shared stream
            Rng check_rng = rng;
            const CellDraw draw =
                draw_instance_cell(schedules, cell_rng, law, model);
            const SeriesSample with_cache =
                simulate_drawn_cell(schedules, draw, &cache);
            const SeriesSample reference = simulate_drawn_cell(
                schedules, draw_instance_cell(schedules, check_rng, law, model),
                nullptr);
            EXPECT_EQ(with_cache, reference);
          }
        }
        // eps and fixed:k=ε consume identical draws per law, and the shared
        // k = 0 scenario repeats across all eight cells: the cache must have
        // fanned out at least those.
        EXPECT_GT(cache.stats().hits, 0u);
        EXPECT_GT(cache.stats().simulations, 0u);

        // Replaying any cell against the warm cache is pure fan-out: the
        // hit counter grows, the simulation counter must not.
        Rng replay_rng = rng;
        const CellDraw replay = draw_instance_cell(schedules, replay_rng,
                                                   laws[0], models[0]);
        const std::uint64_t sims_before = cache.stats().simulations;
        const std::uint64_t hits_before = cache.stats().hits;
        const SeriesSample again = simulate_drawn_cell(schedules, replay, &cache);
        Rng ref_rng = rng;
        EXPECT_EQ(again,
                  simulate_drawn_cell(schedules,
                                      draw_instance_cell(schedules, ref_rng,
                                                         laws[0], models[0]),
                                      nullptr));
        EXPECT_EQ(cache.stats().simulations, sims_before);
        EXPECT_GT(cache.stats().hits, hits_before);
      },
      {.iterations = 6});
}

TEST(BatchSim, EvaluateGroupStatsCountDedupedSimulations) {
  // A grid whose failure cells draw identical (victims, instants) tuples —
  // eps vs fixed:k=ε — plus the always-shared k = 0 scenario: the grouped
  // path must report cache hits while staying bit-identical to each member
  // evaluated alone.
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.0};
  config.graphs_per_point = 2;
  config.proc_count = 6;
  config.workload.proc_count = 6;
  config.seed = 23;
  config.threads = 1;
  config.scenarios = {"t0", "uniform:hi=1"};
  config.failure_models = {"eps", "fixed:k=" + std::to_string(config.epsilon),
                           "bernoulli:p=0.5"};
  const SweepPlan plan(config);

  SimulationCache::Stats stats;
  for (const auto& group : plan.group_selection()) {
    const std::vector<SeriesSample> grouped =
        plan.evaluate_group(group, &stats);
    ASSERT_EQ(grouped.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      EXPECT_EQ(grouped[i], reference::evaluate_alone(plan, group[i]))
          << "member " << i << " diverged from the member alone";
    }
  }
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_GT(stats.hits, 0u);

  // The same counters surface through run_plan's options.
  RunPlanStats run_stats;
  OnlineStatsSink grouped_sink(plan);
  RunPlanOptions run_options;
  run_options.stats = &run_stats;
  run_plan(plan, grouped_sink, run_options);
  SweepResult grouped = grouped_sink.take();

  EXPECT_TRUE(sweep_results_identical(
      grouped, reference::per_coordinate_result(plan)));
  EXPECT_EQ(run_stats.simulations_run, stats.simulations);
  EXPECT_EQ(run_stats.dedupe_hits, stats.hits);
}

}  // namespace
}  // namespace ftsched
