#include "ftsched/metrics/reliability.hpp"

#include <algorithm>

#include "ftsched/platform/failure.hpp"
#include "ftsched/util/error.hpp"

namespace ftsched {

namespace {
void check_probs(std::size_t m, const std::vector<double>& fail_prob) {
  FTSCHED_REQUIRE(fail_prob.size() == m,
                  "need one failure probability per processor");
  for (double p : fail_prob) {
    FTSCHED_REQUIRE(p >= 0.0 && p <= 1.0, "probabilities must be in [0,1]");
  }
}
}  // namespace

double exact_reliability(const ReplicatedSchedule& schedule,
                         const std::vector<double>& fail_prob) {
  const std::size_t m = schedule.platform().proc_count();
  check_probs(m, fail_prob);
  FTSCHED_REQUIRE(m <= 20, "exact_reliability limited to 20 processors");
  ScheduleSimulator simulator(schedule);
  double reliability = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double prob = 1.0;
    FailureScenario scenario;
    for (std::size_t p = 0; p < m; ++p) {
      if (mask & (std::size_t{1} << p)) {
        prob *= fail_prob[p];
        scenario.add(ProcId{p}, 0.0);
      } else {
        prob *= 1.0 - fail_prob[p];
      }
    }
    if (prob == 0.0) continue;
    if (simulator.run_summary(scenario).success) reliability += prob;
  }
  return reliability;
}

ReliabilityEstimate monte_carlo_reliability(
    const ReplicatedSchedule& schedule, const std::vector<double>& fail_prob,
    Rng& rng, std::size_t samples) {
  const std::size_t m = schedule.platform().proc_count();
  check_probs(m, fail_prob);
  FTSCHED_REQUIRE(samples > 0, "need at least one sample");
  ScheduleSimulator simulator(schedule);
  ReliabilityEstimate estimate;
  estimate.samples = samples;
  double latency_sum = 0.0;
  std::size_t successes = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    FailureScenario scenario;
    for (std::size_t p = 0; p < m; ++p) {
      if (rng.bernoulli(fail_prob[p])) scenario.add(ProcId{p}, 0.0);
    }
    const ScheduleSimulator::Summary result = simulator.run_summary(scenario);
    if (result.success) {
      ++successes;
      latency_sum += result.latency;
    } else {
      ++estimate.failures;
    }
  }
  estimate.reliability =
      static_cast<double>(successes) / static_cast<double>(samples);
  estimate.mean_latency =
      successes > 0 ? latency_sum / static_cast<double>(successes) : 0.0;
  return estimate;
}

double theorem_reliability_bound(std::size_t proc_count, std::size_t epsilon,
                                 const std::vector<double>& fail_prob) {
  check_probs(proc_count, fail_prob);
  // dp[k] = probability of exactly k failures among processors seen so far.
  std::vector<double> dp(proc_count + 1, 0.0);
  dp[0] = 1.0;
  for (std::size_t p = 0; p < proc_count; ++p) {
    for (std::size_t k = p + 1; k-- > 0;) {
      dp[k + 1] += dp[k] * fail_prob[p];
      dp[k] *= 1.0 - fail_prob[p];
    }
  }
  double bound = 0.0;
  for (std::size_t k = 0; k <= epsilon && k <= proc_count; ++k) bound += dp[k];
  return bound;
}

std::vector<double> heterogeneous_fail_probs(std::size_t proc_count,
                                             double base, double spread) {
  FTSCHED_REQUIRE(base >= 0.0 && base <= 1.0,
                  "base failure probability must be in [0, 1]");
  FTSCHED_REQUIRE(spread >= 0.0, "spread must be non-negative");
  std::vector<double> probs(proc_count, base);
  if (proc_count <= 1) return probs;
  const double denom = static_cast<double>(proc_count - 1);
  for (std::size_t k = 0; k < proc_count; ++k) {
    const double gradient =
        static_cast<double>(proc_count - 1 - k) / denom;
    probs[k] = std::min(1.0, base * (1.0 + spread * gradient));
  }
  return probs;
}

}  // namespace ftsched
