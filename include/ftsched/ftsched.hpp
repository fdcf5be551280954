// Umbrella header: pulls in the whole public API.
//
// Fine-grained headers remain available under ftsched/<module>/ for
// builds that care about compile times.
#pragma once

// util: deterministic RNG, statistics, ids, CLI, specs, tables, logging,
// timing, parallel execution.
#include "ftsched/util/cli.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/ids.hpp"
#include "ftsched/util/jsonl.hpp"
#include "ftsched/util/log.hpp"
#include "ftsched/util/net.hpp"
#include "ftsched/util/parallel.hpp"
#include "ftsched/util/rng.hpp"
#include "ftsched/util/spec.hpp"
#include "ftsched/util/stats.hpp"
#include "ftsched/util/subprocess.hpp"
#include "ftsched/util/table.hpp"
#include "ftsched/util/timer.hpp"

// dag: task graphs and analyses.
#include "ftsched/dag/analysis.hpp"
#include "ftsched/dag/dot.hpp"
#include "ftsched/dag/graph.hpp"
#include "ftsched/dag/serialize.hpp"

// platform: processors, costs, failures.
#include "ftsched/platform/cost_model.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/platform/generator.hpp"
#include "ftsched/platform/platform.hpp"

// workload: graph generators, the paper's experimental workload, and the
// workload-family registry.
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/granularity.hpp"
#include "ftsched/workload/paper_workload.hpp"
#include "ftsched/workload/random_dag.hpp"
#include "ftsched/workload/workload_registry.hpp"

// core: the schedulers and schedule tooling.
#include "ftsched/core/bicriteria.hpp"
#include "ftsched/core/cpop.hpp"
#include "ftsched/core/ftbar.hpp"
#include "ftsched/core/ftsa.hpp"
#include "ftsched/core/heft.hpp"
#include "ftsched/core/matching.hpp"
#include "ftsched/core/mc_ftsa.hpp"
#include "ftsched/core/placement.hpp"
#include "ftsched/core/priorities.hpp"
#include "ftsched/core/reschedule.hpp"
#include "ftsched/core/robustness.hpp"
#include "ftsched/core/schedule.hpp"
#include "ftsched/core/schedule_io.hpp"
#include "ftsched/core/scheduler.hpp"

// sim: execution, fault injection, validation, traces.
#include "ftsched/sim/comm_model.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/sim/trace.hpp"
#include "ftsched/sim/validator.hpp"

// service: the sweep-coordinator daemon and its socket workers.
#include "ftsched/service/coordinator.hpp"
#include "ftsched/service/protocol.hpp"
#include "ftsched/service/worker.hpp"

// metrics + experiments.
#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/config.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/metrics/metrics.hpp"
#include "ftsched/metrics/reliability.hpp"
