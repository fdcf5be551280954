#include "ftsched/platform/failure.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "ftsched/metrics/reliability.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

void FailureScenario::add(ProcId proc, double time, double repair) {
  FTSCHED_REQUIRE(proc.valid(), "invalid processor id");
  FTSCHED_REQUIRE(time >= 0.0, "crash time must be non-negative");
  FTSCHED_REQUIRE(repair == std::numeric_limits<double>::infinity() ||
                      repair > time,
                  "repair must come strictly after the crash");
  FTSCHED_REQUIRE(find(proc) == nullptr,
                  "processor already crashes in scenario");
  crashes_.push_back(Crash{proc, time, repair});
}

const Crash* FailureScenario::find(ProcId proc) const noexcept {
  for (const Crash& c : crashes_) {
    if (c.proc == proc) return &c;
  }
  return nullptr;
}

bool FailureScenario::has_repairs() const noexcept {
  for (const Crash& c : crashes_) {
    if (c.repair < std::numeric_limits<double>::infinity()) return true;
  }
  return false;
}

double FailureScenario::crash_time(ProcId proc) const noexcept {
  const Crash* c = find(proc);
  return c == nullptr ? std::numeric_limits<double>::infinity() : c->time;
}

bool FailureScenario::alive_at(ProcId proc, double time) const noexcept {
  const Crash* c = find(proc);
  return c == nullptr || time < c->time || time >= c->repair;
}

FailureScenario random_crashes(Rng& rng, std::size_t proc_count,
                               std::size_t count, double crash_time) {
  FTSCHED_REQUIRE(count <= proc_count,
                  "cannot crash more processors than exist");
  FailureScenario scenario;
  for (std::size_t idx : rng.sample_without_replacement(proc_count, count)) {
    scenario.add(ProcId{idx}, crash_time);
  }
  return scenario;
}

FailureScenario random_timed_crashes(Rng& rng, std::size_t proc_count,
                                     std::size_t count, double horizon) {
  FTSCHED_REQUIRE(count <= proc_count,
                  "cannot crash more processors than exist");
  FTSCHED_REQUIRE(horizon >= 0.0, "horizon must be non-negative");
  FailureScenario scenario;
  for (std::size_t idx : rng.sample_without_replacement(proc_count, count)) {
    scenario.add(ProcId{idx}, rng.uniform(0.0, horizon));
  }
  return scenario;
}

namespace {
void enumerate_subsets(std::size_t proc_count, std::size_t count,
                       std::size_t start, std::vector<std::size_t>& current,
                       std::vector<FailureScenario>& out) {
  if (current.size() == count) {
    FailureScenario scenario;
    for (std::size_t p : current) scenario.add(ProcId{p}, 0.0);
    out.push_back(std::move(scenario));
    return;
  }
  for (std::size_t p = start; p < proc_count; ++p) {
    current.push_back(p);
    enumerate_subsets(proc_count, count, p + 1, current, out);
    current.pop_back();
  }
}
}  // namespace

std::vector<FailureScenario> all_crash_subsets(std::size_t proc_count,
                                               std::size_t count) {
  FTSCHED_REQUIRE(count <= proc_count,
                  "cannot crash more processors than exist");
  std::vector<FailureScenario> result;
  std::vector<std::size_t> current;
  enumerate_subsets(proc_count, count, 0, current, result);
  return result;
}

// -------------------------------------------------------------- CrashTimeLaw

namespace {

/// Rejects option keys the law does not take (same loud contract as the
/// registries).
void require_keys(const SpecOptions& options, const char* kind,
                  const std::string& law,
                  const std::vector<std::string>& allowed) {
  for (const std::string& key : options.keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw InvalidArgument(
          std::string(kind) + " '" + law + "' does not accept option '" + key +
          "'" +
          (allowed.empty() ? std::string(" (no options)")
                           : " (supported: " + spec_detail::join(allowed, "|") +
                                 ")"));
    }
  }
}

void require_only(const SpecOptions& options, const std::string& law,
                  const std::string& allowed) {
  require_keys(options, "crash law", law,
               allowed.empty() ? std::vector<std::string>{}
                               : std::vector<std::string>{allowed});
}

/// Spec-style rejection of meaningless law parameters: NaN and infinities
/// never pass (every comparison with NaN is false), and the bound itself is
/// spelled out in the message — the same loud contract as unknown keys,
/// instead of degenerate draws (NaN crash times) downstream.
void require_param(bool ok, const char* kind, const std::string& law,
                   const char* key, const char* constraint, double value) {
  if (ok && std::isfinite(value)) return;
  throw InvalidArgument(std::string(kind) + " '" + law + "': option '" + key +
                        "' must be " + constraint + ", got '" +
                        spec_detail::render_double(value) + "'");
}

}  // namespace

CrashTimeLaw CrashTimeLaw::parse(const std::string& spec) {
  std::string name;
  std::string option_text;
  split_spec_string(spec, name, option_text);
  const SpecOptions options = SpecOptions::parse(option_text);

  CrashTimeLaw law;
  if (name == "t0") {
    require_only(options, name, "");
    law.kind_ = Kind::kAtZero;
    law.param_ = 0.0;
  } else if (name == "frac") {
    require_only(options, name, "f");
    law.kind_ = Kind::kFraction;
    law.param_ = options.get_double("f", 0.5);
    require_param(law.param_ >= 0.0, "crash law", name, "f", "a finite value >= 0",
                  law.param_);
  } else if (name == "uniform") {
    require_only(options, name, "hi");
    law.kind_ = Kind::kUniform;
    law.param_ = options.get_double("hi", 1.0);
    require_param(law.param_ >= 0.0, "crash law", name, "hi",
                  "a finite value >= 0", law.param_);
  } else if (name == "exp") {
    require_only(options, name, "mean");
    law.kind_ = Kind::kExponential;
    law.param_ = options.get_double("mean", 0.5);
    require_param(law.param_ > 0.0, "crash law", name, "mean",
                  "a finite value > 0", law.param_);
  } else {
    throw InvalidArgument("unknown crash law '" + name + "' (known: " +
                          spec_detail::join(known(), "|") + ")");
  }
  return law;
}

std::string CrashTimeLaw::to_string() const {
  switch (kind_) {
    case Kind::kAtZero:
      return "t0";
    case Kind::kFraction:
      return "frac:f=" + spec_detail::render_double(param_);
    case Kind::kUniform:
      return "uniform:hi=" + spec_detail::render_double(param_);
    case Kind::kExponential:
      return "exp:mean=" + spec_detail::render_double(param_);
  }
  return "t0";
}

std::string CrashTimeLaw::describe() const {
  switch (kind_) {
    case Kind::kAtZero:
      return "crashes at t = 0 (paper's worst case)";
    case Kind::kFraction:
      return "all victims crash at " + spec_detail::render_double(param_) +
             " x the failure-free latency";
    case Kind::kUniform:
      return "victim crash times ~ U[0, " + spec_detail::render_double(param_) +
             " x the failure-free latency)";
    case Kind::kExponential:
      return "victim crash times ~ Exp(mean " + spec_detail::render_double(param_) +
             " x the failure-free latency)";
  }
  return "crashes at t = 0";
}

std::vector<double> CrashTimeLaw::sample(Rng& rng, std::size_t count) const {
  std::vector<double> times(count, 0.0);
  switch (kind_) {
    case Kind::kAtZero:
      break;  // no randomness consumed: legacy streams stay bit-identical
    case Kind::kFraction:
      for (double& t : times) t = param_;
      break;
    case Kind::kUniform:
      for (double& t : times) t = rng.uniform(0.0, param_);
      break;
    case Kind::kExponential:
      for (double& t : times) t = rng.exponential(1.0 / param_);
      break;
  }
  return times;
}

std::vector<std::string> CrashTimeLaw::known() {
  return {"t0", "frac", "uniform", "exp"};
}

// -------------------------------------------------------------- FailureModel

namespace {

/// Parses the shared `domain=S` victim-law option (S >= 1; absent keeps the
/// uniform default).
void apply_domain_option(FailureModel::VictimKind& victims,
                         std::size_t& domain_size, const SpecOptions& options,
                         const std::string& name) {
  if (!options.has("domain")) return;
  const std::size_t size = options.get_size("domain", 0);
  if (size == 0) {
    throw InvalidArgument("failure model '" + name +
                          "': option 'domain' must be a domain size >= 1, "
                          "got '" +
                          options.get("domain") + "'");
  }
  victims = FailureModel::VictimKind::kDomain;
  domain_size = size;
}

}  // namespace

FailureModel FailureModel::parse(const std::string& spec) {
  std::string name;
  std::string option_text;
  split_spec_string(spec, name, option_text);
  const SpecOptions options = SpecOptions::parse(option_text);

  FailureModel model;
  if (name == "eps") {
    require_keys(options, "failure model", name, {"domain"});
    model.count_ = CountKind::kEpsilon;
    // "eps:domain=S" canonicalizes to the "domain:size=S" shorthand.
    apply_domain_option(model.victims_, model.domain_size_, options, name);
  } else if (name == "fixed") {
    require_keys(options, "failure model", name, {"k", "domain"});
    model.count_ = CountKind::kFixed;
    model.fixed_k_ = options.get_size("k", 1);
    apply_domain_option(model.victims_, model.domain_size_, options, name);
  } else if (name == "bernoulli") {
    require_keys(options, "failure model", name, {"p", "domain"});
    model.count_ = CountKind::kBernoulli;
    model.prob_ = options.get_double("p", 0.1);
    require_param(model.prob_ >= 0.0 && model.prob_ <= 1.0, "failure model",
                  name, "p", "a probability in [0, 1]", model.prob_);
    apply_domain_option(model.victims_, model.domain_size_, options, name);
  } else if (name == "repair") {
    // Transient bernoulli crashes: victims restart after Exp(mttr) delays.
    require_keys(options, "failure model", name, {"mttr", "p", "domain"});
    model.count_ = CountKind::kBernoulli;
    model.prob_ = options.get_double("p", 0.1);
    require_param(model.prob_ >= 0.0 && model.prob_ <= 1.0, "failure model",
                  name, "p", "a probability in [0, 1]", model.prob_);
    model.repair_mttr_ = options.get_double("mttr", 0.5);
    require_param(model.repair_mttr_ > 0.0, "failure model", name, "mttr",
                  "a finite value > 0", model.repair_mttr_);
    apply_domain_option(model.victims_, model.domain_size_, options, name);
  } else if (name == "burst") {
    // Time-correlated bernoulli burst: all victims crash within `width` of
    // a common onset; optional mttr adds repairs.
    require_keys(options, "failure model", name,
                 {"p", "width", "mttr", "domain"});
    model.count_ = CountKind::kBernoulli;
    model.prob_ = options.get_double("p", 0.1);
    require_param(model.prob_ >= 0.0 && model.prob_ <= 1.0, "failure model",
                  name, "p", "a probability in [0, 1]", model.prob_);
    model.burst_width_ = options.get_double("width", 0.25);
    require_param(model.burst_width_ > 0.0, "failure model", name, "width",
                  "a finite value > 0", model.burst_width_);
    if (options.has("mttr")) {
      model.repair_mttr_ = options.get_double("mttr", 0.5);
      require_param(model.repair_mttr_ > 0.0, "failure model", name, "mttr",
                    "a finite value > 0", model.repair_mttr_);
    }
    apply_domain_option(model.victims_, model.domain_size_, options, name);
  } else if (name == "hetero") {
    // Per-processor heterogeneous rates (metrics/reliability.hpp gradient).
    require_keys(options, "failure model", name, {"base", "spread", "mttr"});
    model.count_ = CountKind::kHetero;
    model.hetero_base_ = options.get_double("base", 0.1);
    require_param(model.hetero_base_ >= 0.0 && model.hetero_base_ <= 1.0,
                  "failure model", name, "base", "a probability in [0, 1]",
                  model.hetero_base_);
    model.hetero_spread_ = options.get_double("spread", 1.0);
    require_param(model.hetero_spread_ >= 0.0, "failure model", name,
                  "spread", "a finite value >= 0", model.hetero_spread_);
    if (options.has("mttr")) {
      model.repair_mttr_ = options.get_double("mttr", 0.5);
      require_param(model.repair_mttr_ > 0.0, "failure model", name, "mttr",
                    "a finite value > 0", model.repair_mttr_);
    }
  } else if (name == "domain") {
    // Canonical shorthand for eps-count whole-domain victims.
    require_keys(options, "failure model", name, {"size"});
    model.count_ = CountKind::kEpsilon;
    model.victims_ = VictimKind::kDomain;
    model.domain_size_ = options.get_size("size", 4);
    if (model.domain_size_ == 0) {
      throw InvalidArgument(
          "failure model 'domain': option 'size' must be >= 1, got '" +
          options.get("size") + "'");
    }
  } else {
    throw InvalidArgument("unknown failure model '" + name + "' (known: " +
                          spec_detail::join(known(), "|") + ")");
  }
  return model;
}

std::string FailureModel::to_string() const {
  std::string out;
  switch (count_) {
    case CountKind::kEpsilon:
      if (victims_ == VictimKind::kDomain) {
        return "domain:size=" + std::to_string(domain_size_);
      }
      return "eps";
    case CountKind::kFixed:
      out = "fixed:k=" + std::to_string(fixed_k_);
      break;
    case CountKind::kBernoulli:
      if (is_burst()) {
        out = "burst:p=" + spec_detail::render_double(prob_) +
              ",width=" + spec_detail::render_double(burst_width_);
        if (has_repair()) {
          out += ",mttr=" + spec_detail::render_double(repair_mttr_);
        }
      } else if (has_repair()) {
        out = "repair:mttr=" + spec_detail::render_double(repair_mttr_) +
              ",p=" + spec_detail::render_double(prob_);
      } else {
        out = "bernoulli:p=" + spec_detail::render_double(prob_);
      }
      break;
    case CountKind::kHetero:
      out = "hetero:base=" + spec_detail::render_double(hetero_base_) +
            ",spread=" + spec_detail::render_double(hetero_spread_);
      if (has_repair()) {
        out += ",mttr=" + spec_detail::render_double(repair_mttr_);
      }
      return out;  // hetero takes no domain option
  }
  if (victims_ == VictimKind::kDomain) {
    out += ",domain=" + std::to_string(domain_size_);
  }
  return out;
}

std::string FailureModel::describe() const {
  std::string count;
  switch (count_) {
    case CountKind::kEpsilon:
      count = "exactly epsilon victims (the paper's setup)";
      break;
    case CountKind::kFixed:
      count = "exactly " + std::to_string(fixed_k_) +
              " victims (may exceed epsilon: graceful degradation)";
      break;
    case CountKind::kBernoulli:
      count = "each processor crashes with probability " +
              spec_detail::render_double(prob_) +
              " (Binomial count, may exceed epsilon)";
      if (is_burst()) {
        count += ", time-correlated within a " +
                 spec_detail::render_double(burst_width_) +
                 " x latency burst window";
      }
      break;
    case CountKind::kHetero:
      count = "heterogeneous per-processor rates: base " +
              spec_detail::render_double(hetero_base_) + ", spread " +
              spec_detail::render_double(hetero_spread_) +
              " (metrics/reliability gradient; first processors flakiest)";
      break;
  }
  if (victims_ == VictimKind::kDomain) {
    count += ", drawn as whole fault domains of " +
             std::to_string(domain_size_) + " processors (correlated)";
  } else if (count_ != CountKind::kHetero) {
    count += ", drawn uniformly";
  }
  if (has_repair()) {
    count += "; victims restart after Exp(mean " +
             spec_detail::render_double(repair_mttr_) +
             " x latency) repair delays";
  }
  return count;
}

std::vector<std::size_t> FailureModel::draw(Rng& rng, std::size_t proc_count,
                                            std::size_t epsilon) const {
  if (count_ == CountKind::kHetero) {
    // Heterogeneous rates decide count and victims at once: one flip per
    // processor against its own probability (always all m flips, so the
    // stream position never depends on the outcomes), victims in processor
    // order — the gradient makes low indices the likely prefix.
    const std::vector<double> probs =
        heterogeneous_fail_probs(proc_count, hetero_base_, hetero_spread_);
    std::vector<std::size_t> victims;
    for (std::size_t p = 0; p < proc_count; ++p) {
      if (rng.bernoulli(probs[p])) victims.push_back(p);
    }
    return victims;
  }

  // Count law first.  The count is clamped to the population: "crash 50 of
  // 20 processors" degrades to "crash everything", which the simulator then
  // reports as a failed (success-fraction 0) run rather than an error.
  std::size_t count = 0;
  switch (count_) {
    case CountKind::kEpsilon:
      count = std::min(epsilon, proc_count);
      break;
    case CountKind::kFixed:
      count = std::min(fixed_k_, proc_count);
      break;
    case CountKind::kBernoulli:
      // One flip per processor, always all m of them, so the RNG stream
      // position never depends on the outcome sequence.
      for (std::size_t p = 0; p < proc_count; ++p) {
        if (rng.bernoulli(prob_)) ++count;
      }
      break;
    case CountKind::kHetero:
      break;  // handled above
  }

  if (victims_ == VictimKind::kUniform) {
    // The default model's draw is the paper's ε-victim draw: one
    // sample_without_replacement.
    return rng.sample_without_replacement(proc_count, count);
  }

  // Domain victims: processors [d*S, (d+1)*S) form fault domain d.  Whole
  // domains crash in a random order; the last one is truncated so the count
  // law stays exact (counts <= epsilon therefore keep the Theorem-4.1
  // success guarantee even though the victims are correlated).
  const std::size_t domains =
      (proc_count + domain_size_ - 1) / domain_size_;
  const std::vector<std::size_t> order =
      rng.sample_without_replacement(domains, domains);
  std::vector<std::size_t> victims;
  victims.reserve(count);
  for (std::size_t d : order) {
    for (std::size_t p = d * domain_size_;
         p < std::min((d + 1) * domain_size_, proc_count); ++p) {
      if (victims.size() == count) return victims;
      victims.push_back(p);
    }
    if (victims.size() == count) break;
  }
  return victims;
}

std::vector<double> FailureModel::sample_repair_delays(
    Rng& rng, std::size_t count) const {
  FTSCHED_REQUIRE(has_repair(), "model has no repair law");
  std::vector<double> delays(count, 0.0);
  for (double& d : delays) d = rng.exponential(1.0 / repair_mttr_);
  return delays;
}

std::vector<double> FailureModel::sample_burst_offsets(
    Rng& rng, std::size_t count) const {
  FTSCHED_REQUIRE(is_burst(), "model has no burst law");
  std::vector<double> offsets(count, 0.0);
  for (double& o : offsets) o = rng.uniform(0.0, burst_width_);
  return offsets;
}

void FailureModel::validate(std::size_t proc_count) const {
  if (!(has_repair() || is_burst())) return;
  if (victims_ != VictimKind::kDomain) return;
  if (domain_size_ <= proc_count) return;
  const std::string law = is_burst() ? "burst" : "repair";
  throw InvalidArgument(
      "failure model '" + law + "': option 'domain' (=" +
      std::to_string(domain_size_) + ") exceeds the " +
      std::to_string(proc_count) +
      " available processors — a single whole-platform mega-domain; use "
      "domain<=m");
}

std::vector<std::string> FailureModel::known() {
  return {"eps", "fixed", "bernoulli", "repair", "burst", "hetero", "domain"};
}

}  // namespace ftsched
