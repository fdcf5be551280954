#include "ftsched/experiments/sweep_plan.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "ftsched/core/reschedule.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/parallel.hpp"
#include "ftsched/util/stats.hpp"

namespace ftsched {

SweepPlan::SweepPlan(const FigureConfig& config)
    : config_(config), root_(config.seed) {
  // Resolve the (workload × scenario) cells.  An empty workload list means
  // the paper §6 family configured by config.workload — the figure
  // reproductions' exact generator, bypassing spec parsing.  The family is
  // shared across the scenario cells of one workload spec (generate is
  // const and thread-safe), so specs are parsed — and trace files loaded —
  // once per workload, not once per cell.
  const std::vector<std::string> workload_specs =
      config.workloads.empty() ? std::vector<std::string>{std::string()}
                               : config.workloads;
  const std::vector<std::string> scenario_specs =
      config.scenarios.empty() ? std::vector<std::string>{"t0"}
                               : config.scenarios;
  const std::vector<std::string> failure_specs =
      config.failure_models.empty() ? std::vector<std::string>{"eps"}
                                    : config.failure_models;
  // Parse the failure models once (shared across every workload/scenario),
  // validating each against the grid's platform width up front — a repair/
  // burst domain wider than the machine would otherwise silently collapse
  // into one whole-platform mega-domain.
  std::vector<FailureModel> models;
  models.reserve(failure_specs.size());
  for (const std::string& fspec : failure_specs) {
    models.push_back(FailureModel::parse(fspec));
    models.back().validate(config.proc_count);
  }
  // The policy dimension: parsed once up front so a bad spec fails at plan
  // construction, not mid-sweep on a worker.  Policies are per-run mutable
  // (prepare/begin_run state), so the plan keeps only the labels and which
  // of them are no-ops; evaluate_group instantiates the live ones.
  const std::vector<std::string> policy_specs =
      config.policies.empty() ? std::vector<std::string>{"none"}
                              : config.policies;
  std::set<std::string> seen_policies;
  for (const std::string& pspec : policy_specs) {
    policy_noop_.push_back(make_reschedule_policy(pspec)->is_noop());
    FTSCHED_REQUIRE(seen_policies.insert(pspec).second,
                    "duplicate sweep policy: " + pspec);
  }
  // Duplicate labels would silently aggregate two cells into one series;
  // reject them up front.
  std::set<std::string> seen_cells;
  for (const std::string& wspec : workload_specs) {
    const std::shared_ptr<const WorkloadFamily> family =
        wspec.empty() ? make_paper_family(config.workload)
                      : make_workload_family(wspec);
    const std::string wlabel = wspec.empty() ? "paper" : wspec;
    for (const std::string& sspec : scenario_specs) {
      const CrashTimeLaw law = CrashTimeLaw::parse(sspec);
      for (std::size_t fi = 0; fi < failure_specs.size(); ++fi) {
        const std::string label =
            wlabel + "|" + sspec + "|" + failure_specs[fi];
        FTSCHED_REQUIRE(
            seen_cells.insert(label).second,
            "duplicate sweep cell (workload|scenario|failure): " + label);
        cells_.push_back(Cell{family, law, models[fi]});
      }
    }
    workload_labels_.push_back(wlabel);
  }
  scenario_labels_ = scenario_specs;
  failure_labels_ = failure_specs;
  policy_labels_ = policy_specs;
  count_ = static_cast<std::size_t>(grid_size());
}

std::uint64_t SweepPlan::grid_size() const noexcept {
  return static_cast<std::uint64_t>(cells_.size()) * policy_labels_.size() *
         config_.granularities.size() * config_.graphs_per_point;
}

InstanceCoord SweepPlan::coord(std::size_t k) const {
  FTSCHED_REQUIRE(k < count_, "instance index out of range");
  return coord_of_id(first_ + k * stride_);
}

InstanceCoord SweepPlan::coord_of_id(std::uint64_t id) const {
  FTSCHED_REQUIRE(id < grid_size(), "instance id out of range");
  const std::uint64_t points = config_.granularities.size();
  const std::uint64_t reps = config_.graphs_per_point;
  const std::uint64_t scenarios = scenario_labels_.size();
  const std::uint64_t failures = failure_labels_.size();
  const std::uint64_t policies = policy_labels_.size();
  const std::uint64_t per_cell = points * reps;
  const std::uint64_t ci = id / per_cell;
  InstanceCoord c;
  c.workload = static_cast<std::size_t>(ci / (scenarios * failures * policies));
  c.scenario =
      static_cast<std::size_t>((ci / (failures * policies)) % scenarios);
  c.failure = static_cast<std::size_t>((ci / policies) % failures);
  c.policy = static_cast<std::size_t>(ci % policies);
  c.gran = static_cast<std::size_t>((id % per_cell) / reps);
  c.rep = static_cast<std::size_t>(id % reps);
  c.id = id;
  return c;
}

SweepPlan SweepPlan::shard(std::size_t index, std::size_t count) const {
  FTSCHED_REQUIRE(count > 0, "shard count must be positive");
  FTSCHED_REQUIRE(index < count, "shard index " + std::to_string(index) +
                                     " out of range for " +
                                     std::to_string(count) + " shards");
  // Selected instances index, index + count, ...: ids first_ + index *
  // stride_ on a stride of stride_ * count.  A selection of at most one id
  // keeps stride 1, so deep chains of wide shards never overflow it.
  SweepPlan out = *this;
  out.count_ = index < count_ ? (count_ - index - 1) / count + 1 : 0;
  out.first_ = out.count_ == 0 ? 0 : first_ + index * stride_;
  out.stride_ = out.count_ <= 1 ? 1 : stride_ * count;
  const std::string step =
      std::to_string(index) + "/" + std::to_string(count);
  out.shard_label_ = shard_label_ == "full" ? step : shard_label_ + "," + step;
  return out;
}

std::string SweepPlan::series_label(const InstanceCoord& coord,
                                    const std::string& series) const {
  return decorate_series_name(
      series, workload_labels_[coord.workload],
      scenario_labels_[coord.scenario],
      workload_labels_.size() * scenario_labels_.size() *
              failure_labels_.size() * policy_labels_.size() >
          1,
      failure_labels_[coord.failure], failure_labels_.size() > 1,
      policy_labels_[coord.policy], policy_labels_.size() > 1);
}

// SweepPlan::fingerprint() is defined in sweep_io.cpp as the fingerprint
// of the plan's shard header, so the grid identity has exactly one
// renderer on both the write and the merge side.

std::uint64_t SweepPlan::base_key(const InstanceCoord& coord) const noexcept {
  const std::uint64_t points = config_.granularities.size();
  const std::uint64_t reps = config_.graphs_per_point;
  return (coord.workload * points + coord.gran) * reps + coord.rep;
}

const SweepPlan::Cell& SweepPlan::cell(const InstanceCoord& coord) const {
  return cells_[(coord.workload * scenario_labels_.size() + coord.scenario) *
                    failure_labels_.size() +
                coord.failure];
}

std::vector<std::vector<std::size_t>> SweepPlan::group_selection() const {
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of_key;
  group_of_key.reserve(count_);
  for (std::size_t k = 0; k < count_; ++k) {
    const std::uint64_t key = base_key(coord(k));
    const auto [it, fresh] = group_of_key.try_emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(k);
  }
  return groups;
}

std::vector<SeriesSample> SweepPlan::evaluate_group(
    const std::vector<std::size_t>& members,
    SimulationCache::Stats* stats) const {
  FTSCHED_REQUIRE(!members.empty(), "evaluate_group needs a non-empty group");
  const InstanceCoord first = coord(members.front());
  const std::uint64_t key = base_key(first);

  // One RNG stream per (workload family, granularity, repetition), keyed
  // off the root seed via Rng::derive: every stream is reproducible in
  // isolation from (seed, coordinates) alone — no serial split chain — so
  // any subset of the grid can be recomputed independently, and results
  // never depend on thread count, grouping or shard layout.  Scenario,
  // failure and policy cells of the same family deliberately share the
  // key: each cell faces the same instance (and, for cells whose count/
  // victim laws draw the same way, the same crash victims — paired
  // comparison).  Derive, generate, draw the scheduler seed — then
  // snapshot.  The schedule phase consumes nothing from `rng`, so each
  // cell's victim/crash-instant draws start from the same state whatever
  // else the group holds.
  Rng rng = root_.derive(key);
  const SweepPoint point{config_.granularities[first.gran],
                         config_.proc_count};
  const auto workload = cell(first).family->generate(rng, point);
  InstanceOptions options;
  options.epsilon = config_.epsilon;
  options.extra_crash_counts = config_.extra_crash_counts;
  options.seed = rng();
  const InstanceSchedules schedules =
      build_instance_schedules(*workload, options);

  // One cache across the group's cells: identical (victims, instants)
  // draws — shared k = 0 scenarios, coinciding model draws — run the event
  // simulation once and fan the cached Summary out to every requester.
  SimulationCache sim_cache;
  // Live policies, built on first use and reused by later members: one call
  // runs on one thread, so the per-run policy state is never shared.
  std::vector<ReschedulePolicyPtr> policies(policy_labels_.size());
  std::vector<SeriesSample> out;
  out.reserve(members.size());
  for (const std::size_t k : members) {
    const InstanceCoord c = coord(k);
    FTSCHED_REQUIRE(base_key(c) == key,
                    "evaluate_group members must share one (workload, "
                    "granularity, repetition) base key");
    Rng cell_rng = rng;  // per-cell snapshot of the shared stream
    const CellDraw draw =
        draw_instance_cell(schedules, cell_rng, cell(c).law, cell(c).model);
    // Policy cells of one (scenario, failure) pair see the *same* draw
    // (the snapshot above plus the policy-independent draw stream), so the
    // static and reactive samples are paired run for run.  `none` is the
    // static replay through the cache; online runs bypass it (their
    // outcome depends on the policy, not just the draw).
    if (policy_noop_[c.policy]) {
      out.push_back(simulate_drawn_cell(schedules, draw, &sim_cache));
      continue;
    }
    ReschedulePolicyPtr& policy = policies[c.policy];
    if (!policy) policy = make_reschedule_policy(policy_labels_[c.policy]);
    out.push_back(simulate_online_cell(schedules, draw, *policy));
  }
  if (stats != nullptr) {
    stats->simulations += sim_cache.stats().simulations;
    stats->hits += sim_cache.stats().hits;
  }
  return out;
}

void run_plan(const SweepPlan& plan, SweepSink& sink,
              const RunPlanOptions& options) {
  const std::size_t n = plan.size();
  if (n == 0) return;

  // One job per base-key group (schedule-once/simulate-many).  Jobs are
  // ordered by their first selected index and delivery is strictly in
  // selected order, so sinks observe exactly the serial coordinate order
  // whatever the thread count — aggregation rounding is pinned.
  const std::vector<std::vector<std::size_t>> jobs = plan.group_selection();
  const std::size_t job_count = jobs.size();

  // slot_of[k] = (job, position within the job) producing selected index k.
  std::vector<std::pair<std::size_t, std::size_t>> slot_of(n);
  for (std::size_t j = 0; j < job_count; ++j) {
    for (std::size_t p = 0; p < jobs[j].size(); ++p) {
      slot_of[jobs[j][p]] = {j, p};
    }
  }

  ParallelExecutor executor(options.threads.value_or(plan.config().threads));
  const std::size_t window = std::max<std::size_t>(
      options.window != 0 ? options.window
                          : std::max<std::size_t>(16, 4 * executor.thread_count()),
      1);

  // Shared state (all under `mutex`).  state: 0 = pending, 1 = done,
  // 2 = failed.  done_prefix counts the leading jobs no longer pending;
  // delivered counts the leading selected indices already handed to the
  // sink.  Completed samples are retained only until their delivery slot
  // comes up (then freed), so a large single-cell shard streams through a
  // bounded window instead of materialising everything; multi-cell grids
  // retain each group's later-cell samples until the id order reaches
  // them, which is still never more than the old all-n materialisation.
  std::mutex mutex;
  std::condition_variable window_cv;
  std::vector<std::vector<SeriesSample>> results(job_count);
  std::vector<char> state(job_count, 0);
  std::size_t done_prefix = 0;
  std::size_t delivered = 0;
  bool delivering = false;
  bool delivery_failed = false;

  executor.for_each(job_count, [&](std::size_t j) {
    {
      // Bounded reordering window: don't run ahead of the slowest
      // outstanding job by more than `window` jobs.  The job at the
      // window's base always satisfies the predicate, so this cannot
      // deadlock for any window >= 1.
      std::unique_lock<std::mutex> lock(mutex);
      window_cv.wait(lock, [&] { return j < done_prefix + window; });
    }
    std::vector<SeriesSample> samples;
    SimulationCache::Stats job_stats;
    try {
      samples = plan.evaluate_group(jobs[j], &job_stats);
    } catch (...) {
      // Record the failure before rethrowing so workers gated on the
      // window can't wait forever on a prefix that will never complete;
      // the executor propagates the exception to run_plan's caller.
      const std::lock_guard<std::mutex> lock(mutex);
      state[j] = 2;
      while (done_prefix < job_count && state[done_prefix] != 0) ++done_prefix;
      window_cv.notify_all();
      throw;
    }
    std::unique_lock<std::mutex> lock(mutex);
    results[j] = std::move(samples);
    state[j] = 1;
    if (options.stats != nullptr) {
      options.stats->simulations_run += job_stats.simulations;
      options.stats->dedupe_hits += job_stats.hits;
    }
    while (done_prefix < job_count && state[done_prefix] != 0) ++done_prefix;
    window_cv.notify_all();
    // Deliver the order-prefix that just became complete.  One deliverer
    // at a time (`delivering` flag) keeps the sink serial in selected
    // order, but the sink itself runs with the mutex *released* so a slow
    // sink (file I/O) never stalls the worker pool; the state re-check
    // after re-locking picks up jobs that completed meanwhile, so nothing
    // is stranded when the deliverer steps down.
    if (delivering || delivery_failed) return;
    delivering = true;
    while (delivered < n && !delivery_failed) {
      const auto [dj, dp] = slot_of[delivered];
      if (state[dj] != 1) break;
      SeriesSample sample = std::move(results[dj][dp]);
      results[dj][dp] = SeriesSample();  // free the delivered sample
      const std::size_t k = delivered;
      lock.unlock();
      try {
        sink.on_sample(plan.coord(k), sample);
      } catch (...) {
        // A sink failure must not be retried by the next deliverer (the
        // sink would observe a duplicate delivery).
        const std::lock_guard<std::mutex> relock(mutex);
        delivering = false;
        delivery_failed = true;
        throw;
      }
      lock.lock();
      ++delivered;
    }
    delivering = false;
  });
  FTSCHED_REQUIRE(delivered == n,
                  "run_plan did not deliver every selected instance");
}

OnlineStatsSink::OnlineStatsSink(const SweepPlan& plan)
    : plan_(&plan),
      label_cache_(plan.workloads().size() * plan.scenarios().size() *
                   plan.failures().size() * plan.policies().size()) {
  result_.granularities = plan.granularities();
  result_.workloads = plan.workloads();
  result_.scenarios = plan.scenarios();
  result_.failures = plan.failures();
  result_.policies = plan.policies();
}

void OnlineStatsSink::on_sample(const InstanceCoord& coord,
                                const SeriesSample& sample) {
  const std::size_t points = result_.granularities.size();
  auto& cache =
      label_cache_[((coord.workload * result_.scenarios.size() + coord.scenario) *
                        result_.failures.size() +
                    coord.failure) *
                       result_.policies.size() +
                   coord.policy];
  for (const auto& [name, value] : sample) {
    auto it = cache.find(name);
    if (it == cache.end()) {
      auto& stats = result_.series[plan_->series_label(coord, name)];
      if (stats.size() != points) {
        stats.resize(points);
      }
      it = cache.emplace(name, &stats).first;
    }
    (*it->second)[coord.gran].add(value);
  }
}

SweepResult OnlineStatsSink::take() {
  label_cache_.clear();  // the cached pointers die with the moved-out result
  return std::move(result_);
}

}  // namespace ftsched
