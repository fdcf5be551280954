// google-benchmark microbenches for the three schedulers: Table 1's running
// times as a microbench, per scheduler and task count.
#include <benchmark/benchmark.h>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace {

using namespace ftsched;

std::unique_ptr<Workload> bench_workload(std::size_t tasks,
                                         std::size_t procs) {
  Rng rng(7);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

/// One iteration body shared by every scheduler microbench: resolve the
/// registry spec once, time only the scheduling runs.
void run_scheduler_bench(benchmark::State& state, const char* spec) {
  const auto w = bench_workload(static_cast<std::size_t>(state.range(0)), 20);
  const SchedulerPtr scheduler = make_scheduler(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler->run(w->costs()).lower_bound());
  }
  state.SetComplexityN(state.range(0));
}

void BM_Ftsa(benchmark::State& state) {
  run_scheduler_bench(state, "ftsa:eps=2");
}
BENCHMARK(BM_Ftsa)->Arg(125)->Arg(500)->Arg(2000)->Complexity();

void BM_McFtsaGreedy(benchmark::State& state) {
  run_scheduler_bench(state, "mc-ftsa:eps=2");
}
BENCHMARK(BM_McFtsaGreedy)->Arg(125)->Arg(500)->Arg(2000)->Complexity();

void BM_Ftbar(benchmark::State& state) {
  run_scheduler_bench(state, "ftbar:npf=2");
}
BENCHMARK(BM_Ftbar)->Arg(125)->Arg(250)->Arg(500)->Complexity();

void BM_Heft(benchmark::State& state) { run_scheduler_bench(state, "heft"); }
BENCHMARK(BM_Heft)->Arg(125)->Arg(1000);

}  // namespace
