// Fail-silent (fail-stop) processor failure scenarios (paper §1, §6).
//
// A scenario is a set of processor outages.  A crashed processor executes
// nothing whose finish time exceeds its crash time and sends no messages
// after it.  Crash time 0 models a processor dead from the start — the
// worst case used for the paper's "crash" curves.  An outage may end in a
// repair: the processor restarts empty (all local state lost) and resumes
// the replicas still queued on it.  Without repairs a scenario is the
// paper's one-shot victim set.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "ftsched/util/ids.hpp"
#include "ftsched/util/rng.hpp"

namespace ftsched {

/// One processor's outage: down from `time` until `repair`, where +infinity
/// means the crash is permanent.
struct Crash {
  ProcId proc;
  double time = 0.0;
  double repair = std::numeric_limits<double>::infinity();
};

class FailureScenario {
 public:
  /// Adds an outage.  A processor may appear at most once, and a finite
  /// repair must come strictly after the crash.
  void add(ProcId proc, double time = 0.0,
           double repair = std::numeric_limits<double>::infinity());

  [[nodiscard]] std::size_t crash_count() const noexcept {
    return crashes_.size();
  }
  [[nodiscard]] const std::vector<Crash>& crashes() const noexcept {
    return crashes_;
  }

  /// True iff any outage ends in a finite repair.
  [[nodiscard]] bool has_repairs() const noexcept;

  /// Crash time of `proc`, or +infinity if it never fails.
  [[nodiscard]] double crash_time(ProcId proc) const noexcept;

  [[nodiscard]] bool is_failed(ProcId proc) const noexcept {
    return crash_time(proc) < std::numeric_limits<double>::infinity();
  }

  /// True iff `proc` is up at `time`: outside its [crash, repair) window.
  [[nodiscard]] bool alive_at(ProcId proc, double time) const noexcept;

 private:
  [[nodiscard]] const Crash* find(ProcId proc) const noexcept;

  std::vector<Crash> crashes_;
};

/// `count` distinct victims drawn uniformly from the m processors, all
/// crashing at time `crash_time` (paper §6 crash experiments).
[[nodiscard]] FailureScenario random_crashes(Rng& rng, std::size_t proc_count,
                                             std::size_t count,
                                             double crash_time = 0.0);

/// Like random_crashes but each victim gets an independent crash time drawn
/// uniformly from [0, horizon).
[[nodiscard]] FailureScenario random_timed_crashes(Rng& rng,
                                                   std::size_t proc_count,
                                                   std::size_t count,
                                                   double horizon);

/// Every subset of exactly `count` processors out of `proc_count`, crashing
/// at time 0. Used by the exhaustive Theorem-4.1 validator; the number of
/// scenarios is C(proc_count, count), so keep the inputs small.
[[nodiscard]] std::vector<FailureScenario> all_crash_subsets(
    std::size_t proc_count, std::size_t count);

/// Crash-instant law: the scenario dimension of the sweep engine.
///
/// A law draws *unit-less* crash times — fractions of a reference latency
/// (the schedule's failure-free lower bound M*) — so one draw per instance
/// is comparable across algorithms whose absolute latencies differ.
/// Selected by spec strings (the shared util/spec.hpp syntax):
///
///   t0             crashes at time 0, the paper's worst case (default)
///   frac:f=0.5     all victims crash at f · M*
///   uniform:hi=1   victim times ~ U[0, hi · M*)   (failure.hpp's
///                  random_timed_crashes law as a sweep dimension)
///   exp:mean=0.5   victim times ~ Exponential with mean `mean` · M*
///                  (constant-rate fail-stop law)
class CrashTimeLaw {
 public:
  enum class Kind { kAtZero, kFraction, kUniform, kExponential };

  /// The default law is the paper's t=0 worst case.
  CrashTimeLaw() = default;

  /// Parses a law spec; throws InvalidArgument on unknown names/options.
  [[nodiscard]] static CrashTimeLaw parse(const std::string& spec);

  /// Canonical spec string (round-trips through parse).
  [[nodiscard]] std::string to_string() const;
  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// Draws `count` unit crash times.  kAtZero consumes no randomness and
  /// returns zeros, so the default preserves legacy RNG streams exactly.
  [[nodiscard]] std::vector<double> sample(Rng& rng, std::size_t count) const;

  /// Known law names (for diagnostics and the CLI).
  [[nodiscard]] static std::vector<std::string> known();

 private:
  Kind kind_ = Kind::kAtZero;
  double param_ = 0.0;
};

/// Failure-model law: how many processors crash and which ones — the third
/// scenario axis of the sweep engine, layered under CrashTimeLaw (when the
/// victims crash).
///
/// A model composes a *count law* with a *victim law*.  Count laws:
///
///   eps              exactly ε victims, the paper's §6 setup (default)
///   fixed:k=K        exactly K victims; K may exceed ε to measure graceful
///                    degradation (clamped to the m available processors)
///   bernoulli:p=P    every processor crashes independently with
///                    probability P: the count is Binomial(m, P) and can
///                    exceed ε, so schedules are pushed past their
///                    guarantee (the ROADMAP's probabilistic-failure item)
///   repair:mttr=M    bernoulli victims (p=P, default 0.1) whose crashes
///                    are *transient*: each victim restarts after an
///                    Exponential(mean M) unit delay, producing a
///                    scenario with repairs instead of a one-shot victim set
///   burst:p=P        time-correlated bernoulli burst: all victims crash
///                    within a window of `width` (unit, default 0.25) after
///                    a common onset drawn from the crash-time law; an
///                    optional mttr=M adds repairs as for `repair:`
///   hetero:base=B    per-processor heterogeneous rates fed from
///                    metrics/reliability.hpp: processor k crashes with
///                    probability heterogeneous_fail_probs(m, B, spread)[k]
///                    (a linear gradient, spread default 1 — the first
///                    processors are the flakiest); mttr=M adds repairs
///
/// Victim laws:
///
///   uniform          victims drawn uniformly at random (default)
///   domain (size=S)  the m processors are partitioned into fault domains
///                    (racks/switches) of S consecutive processors; whole
///                    domains crash together in random order, the last one
///                    truncated so the count law stays exact — correlated
///                    failures over a structured interconnect topology
///
/// Spec syntax: the count-law name picks the model; every count law takes
/// an optional `domain=S` key to switch the victim law, and `domain:size=S`
/// is the canonical shorthand for ε whole-domain victims:
///
///   eps | fixed:k=6 | bernoulli:p=0.1 | domain:size=4
///   fixed:k=6,domain=2 | bernoulli:p=0.1,domain=4
///
/// The default model consumes exactly the legacy RNG draws (one
/// sample_without_replacement(m, ε)), so empty specs keep every legacy
/// stream and golden byte-identical.
class FailureModel {
 public:
  enum class CountKind { kEpsilon, kFixed, kBernoulli, kHetero };
  enum class VictimKind { kUniform, kDomain };

  /// The default model is the paper's setup: ε uniform victims.
  FailureModel() = default;

  /// Parses a model spec; throws InvalidArgument on unknown names/options
  /// and on meaningless parameters (p outside [0,1], domain size 0, ...).
  [[nodiscard]] static FailureModel parse(const std::string& spec);

  /// Canonical spec string (round-trips through parse).
  [[nodiscard]] std::string to_string() const;
  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] CountKind count_kind() const noexcept { return count_; }
  [[nodiscard]] VictimKind victim_kind() const noexcept { return victims_; }

  /// True for the paper default (ε uniform victims): draw_cell and
  /// simulate_drawn_cell keep the paper's RNG stream and series layout
  /// exactly.
  [[nodiscard]] bool is_default() const noexcept {
    return count_ == CountKind::kEpsilon && victims_ == VictimKind::kUniform;
  }

  /// Draws one instance's victim set: the count law decides how many (may
  /// exceed `epsilon`; never more than `proc_count`), the victim law which
  /// ones.  The order matters downstream — the runner pairs its fixed
  /// crash-count series on prefixes of this vector.
  [[nodiscard]] std::vector<std::size_t> draw(Rng& rng,
                                              std::size_t proc_count,
                                              std::size_t epsilon) const;

  /// True when crashes are transient (mttr set): victims restart, so cells
  /// under this model carry repairs as well as crashes.
  [[nodiscard]] bool has_repair() const noexcept { return repair_mttr_ > 0; }
  /// Mean unit time to repair (Exponential mean); 0 when has_repair() is
  /// false.
  [[nodiscard]] double mttr() const noexcept { return repair_mttr_; }
  /// True for the time-correlated `burst:` law.
  [[nodiscard]] bool is_burst() const noexcept {
    return count_ == CountKind::kBernoulli && burst_width_ > 0;
  }

  /// Draws one unit repair delay per victim (Exponential, mean mttr()).
  /// Requires has_repair().
  [[nodiscard]] std::vector<double> sample_repair_delays(
      Rng& rng, std::size_t count) const;

  /// Draws one unit in-burst offset per victim, ~ U[0, width) of the
  /// `burst:` spec.
  /// Requires is_burst().
  [[nodiscard]] std::vector<double> sample_burst_offsets(
      Rng& rng, std::size_t count) const;

  /// Platform-dependent validation the parser cannot do: a repair/burst law
  /// with `domain=` wider than the platform would silently collapse into a
  /// single mega-domain, so reject it loudly instead.  (The legacy one-shot
  /// laws keep the historical truncating behaviour for back-compat.)
  void validate(std::size_t proc_count) const;

  /// Known model names (for diagnostics and the CLI).
  [[nodiscard]] static std::vector<std::string> known();

 private:
  CountKind count_ = CountKind::kEpsilon;
  VictimKind victims_ = VictimKind::kUniform;
  std::size_t fixed_k_ = 1;      ///< kFixed count
  double prob_ = 0.1;            ///< kBernoulli per-processor probability
  std::size_t domain_size_ = 4;  ///< kDomain rack width
  double repair_mttr_ = 0.0;     ///< mean unit repair delay; 0 = permanent
  double burst_width_ = 0.0;     ///< unit burst window; 0 = uncorrelated
  double hetero_base_ = 0.1;     ///< kHetero base probability
  double hetero_spread_ = 1.0;   ///< kHetero gradient strength
};

}  // namespace ftsched
