// google-benchmark microbenches for the substrates: Hopcroft–Karp
// matching, DAG generation, bottom-level computation, and the execution
// simulator.
#include <benchmark/benchmark.h>

#include "ftsched/core/matching.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace {

using namespace ftsched;

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  BipartiteGraph g(n, n);
  for (std::size_t l = 0; l < n; ++l) {
    g.add_edge(l, l);
    for (int k = 0; k < 4; ++k) {
      g.add_edge(l, static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hopcroft_karp(g).size);
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(1024);

void BM_LayeredDagGeneration(benchmark::State& state) {
  const auto v = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(3);
    LayeredDagParams params;
    params.task_count = v;
    benchmark::DoNotOptimize(make_layered_dag(rng, params).edge_count());
  }
}
BENCHMARK(BM_LayeredDagGeneration)->Arg(125)->Arg(1000);

std::unique_ptr<Workload> bench_workload(std::size_t tasks) {
  Rng rng(4);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  return make_paper_workload(rng, params);
}

void BM_BottomLevels(benchmark::State& state) {
  const auto w = bench_workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bottom_levels(w->costs()).size());
  }
}
BENCHMARK(BM_BottomLevels)->Arg(125)->Arg(1000);

void BM_Simulate(benchmark::State& state) {
  const auto w = bench_workload(125);
  const auto s =
      make_scheduler("ftsa:eps=" + std::to_string(state.range(0)))
          ->run(w->costs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(s).latency);
  }
}
BENCHMARK(BM_Simulate)->Arg(1)->Arg(5);

}  // namespace
