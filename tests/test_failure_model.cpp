// Tests for the FailureModel subsystem (platform/failure.hpp): spec
// parsing/round-trips, draw contracts (legacy-stream preservation, domain
// correlation, Bernoulli counts), the failure-model sweep dimension
// (threads=N ≡ threads=1 bit-identity, paired cells, decorated series,
// graceful-degradation success fractions), and shard/merge bit-identity
// when failure_models is part of the plan fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/util/error.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

// ------------------------------------------------------------------ parsing

TEST(FailureModel, ParsesAndRoundTrips) {
  for (const char* spec :
       {"eps", "fixed:k=3", "fixed:k=0", "bernoulli:p=0.25", "domain:size=4",
        "fixed:k=6,domain=2", "bernoulli:p=0.1,domain=4"}) {
    const FailureModel model = FailureModel::parse(spec);
    EXPECT_EQ(FailureModel::parse(model.to_string()).to_string(),
              model.to_string())
        << spec;
    EXPECT_FALSE(model.describe().empty());
  }
  EXPECT_EQ(FailureModel().to_string(), "eps");
  EXPECT_TRUE(FailureModel().is_default());
  EXPECT_FALSE(FailureModel::parse("fixed:k=1").is_default());
  EXPECT_FALSE(FailureModel::parse("domain:size=4").is_default());
  // The shorthand and the explicit composition agree.
  EXPECT_EQ(FailureModel::parse("domain:size=3").count_kind(),
            FailureModel::CountKind::kEpsilon);
  EXPECT_EQ(FailureModel::parse("domain:size=3").victim_kind(),
            FailureModel::VictimKind::kDomain);
  EXPECT_EQ(FailureModel::parse("bernoulli").to_string(), "bernoulli:p=0.1");
  // Every count law takes the domain key; on eps it canonicalizes to the
  // shorthand.
  EXPECT_EQ(FailureModel::parse("eps:domain=3").to_string(), "domain:size=3");
}

TEST(FailureModel, RejectsUnknownLawsOptionsAndParameters) {
  EXPECT_THROW((void)FailureModel::parse("meteor"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse(""), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("eps:k=1"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("fixed:p=0.5"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("bernoulli:p=1.5"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("bernoulli:p=-0.1"),
               InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("bernoulli:p=nan"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("domain:size=0"), InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("fixed:k=2,domain=0"),
               InvalidArgument);
  EXPECT_THROW((void)FailureModel::parse("fixed:k=two"), InvalidArgument);
}

// -------------------------------------------------------------------- draws

TEST(FailureModel, DefaultDrawPreservesTheLegacyStream) {
  proptest::check(
      "eps/uniform draw == legacy sample_without_replacement, bit for bit",
      [&](Rng& rng, std::uint64_t) {
        const std::size_t m = 4 + rng() % 12;
        const std::size_t eps = rng() % 4;
        Rng a = rng;  // identical state for both draws
        Rng b = rng;
        const auto legacy = a.sample_without_replacement(m, eps);
        const auto model = FailureModel().draw(b, m, eps);
        EXPECT_EQ(legacy, model);
        EXPECT_EQ(a(), b());  // same stream position afterwards
      });
}

TEST(FailureModel, FixedAndBernoulliCountContracts) {
  proptest::check("count laws draw the promised counts", [&](Rng& rng,
                                                             std::uint64_t) {
    const std::size_t m = 4 + rng() % 12;
    // fixed:k draws exactly k distinct victims, clamped to m.
    const std::size_t k = rng() % (m + 4);
    const auto fixed = FailureModel::parse("fixed:k=" + std::to_string(k))
                           .draw(rng, m, 1);
    EXPECT_EQ(fixed.size(), std::min(k, m));
    const std::set<std::size_t> distinct(fixed.begin(), fixed.end());
    EXPECT_EQ(distinct.size(), fixed.size());
    for (std::size_t v : fixed) EXPECT_LT(v, m);
    // bernoulli:p=0 never crashes anything, p=1 crashes everything.
    EXPECT_TRUE(FailureModel::parse("bernoulli:p=0").draw(rng, m, 1).empty());
    EXPECT_EQ(FailureModel::parse("bernoulli:p=1").draw(rng, m, 1).size(), m);
    const auto some = FailureModel::parse("bernoulli:p=0.5").draw(rng, m, 1);
    EXPECT_LE(some.size(), m);
  });
}

TEST(FailureModel, DomainVictimsAreCorrelatedByRack) {
  proptest::check(
      "domain draws touch at most ceil(k/S) + boundary racks, whole racks "
      "first",
      [&](Rng& rng, std::uint64_t) {
        const std::size_t m = 6 + rng() % 10;
        const std::size_t size = 1 + rng() % 4;
        const std::size_t eps = 1 + rng() % std::min<std::size_t>(m - 1, 5);
        const auto victims =
            FailureModel::parse("domain:size=" + std::to_string(size))
                .draw(rng, m, eps);
        ASSERT_EQ(victims.size(), eps);  // the count law stays exact
        // Count the distinct domains hit; all but at most one of them must
        // be fully crashed (only the last drawn domain may be truncated).
        std::set<std::size_t> domains;
        for (std::size_t v : victims) domains.insert(v / size);
        std::size_t partial = 0;
        for (std::size_t d : domains) {
          const std::size_t members =
              std::min((d + 1) * size, m) - d * size;
          const std::size_t hit = static_cast<std::size_t>(std::count_if(
              victims.begin(), victims.end(),
              [&](std::size_t v) { return v / size == d; }));
          if (hit < members) ++partial;
        }
        EXPECT_LE(partial, 1u) << "more than one truncated domain";
      });
}

// --------------------------------------------------- the sweep dimension

FigureConfig failure_sweep_config(std::size_t threads) {
  FigureConfig config;
  config.epsilon = 1;
  config.proc_count = 6;
  config.workload.proc_count = 6;
  config.graphs_per_point = 3;
  config.seed = 29;
  config.granularities = {0.8, 1.6};
  config.threads = threads;
  config.workloads = {"paper:tmin=15,tmax=18"};
  config.scenarios = {"t0"};
  config.failure_models = {"eps", "bernoulli:p=0.3", "domain:size=2"};
  return config;
}

TEST(FailureSweep, ThreadCountsAreBitIdenticalWithFailureCells) {
  const SweepResult serial = run_sweep(failure_sweep_config(1));
  const SweepResult parallel4 = run_sweep(failure_sweep_config(4));
  const SweepResult parallel7 = run_sweep(failure_sweep_config(7));
  EXPECT_TRUE(sweep_results_identical(serial, parallel4));
  EXPECT_TRUE(sweep_results_identical(serial, parallel7));
  ASSERT_EQ(serial.failures.size(), 3u);
}

TEST(FailureSweep, SeriesCarryTheFailureLabelAndSuccessFractions) {
  const SweepResult sweep = run_sweep(failure_sweep_config(0));
  const std::string w = "paper:tmin=15,tmax=18";
  // Every failure cell decorates with its own label...
  for (const std::string& failure : sweep.failures) {
    ASSERT_TRUE(sweep.series.count(
        sweep_series_name(sweep, "FTSA-LowerBound", w, "t0", failure)))
        << failure;
  }
  // ...the eps cell keeps the legacy layout (no Success/DrawnCrash)...
  EXPECT_FALSE(sweep.series.count(
      sweep_series_name(sweep, "FTSA-Success", w, "t0", "eps")));
  EXPECT_FALSE(sweep.series.count(
      sweep_series_name(sweep, "DrawnCrashes", w, "t0", "eps")));
  // ...and non-default cells report success fractions in [0, 1] plus the
  // mean drawn crash count.
  for (const char* failure : {"bernoulli:p=0.3", "domain:size=2"}) {
    const auto& success = sweep.series.at(
        sweep_series_name(sweep, "FTSA-Success", w, "t0", failure));
    for (const OnlineStats& s : success) {
      EXPECT_EQ(s.count(), sweep.series
                               .at(sweep_series_name(sweep, "FaultFree-FTSA",
                                                     w, "t0", failure))[0]
                               .count());
      EXPECT_GE(s.mean(), 0.0);
      EXPECT_LE(s.mean(), 1.0);
    }
    EXPECT_TRUE(sweep.series.count(
        sweep_series_name(sweep, "DrawnCrashes", w, "t0", failure)))
        << failure;
  }
  // domain:size=2 draws exactly epsilon victims, so Theorem 4.1 still
  // guarantees success even though they are correlated.
  const auto& domain_success = sweep.series.at(
      sweep_series_name(sweep, "FTSA-Success", w, "t0", "domain:size=2"));
  for (const OnlineStats& s : domain_success) EXPECT_EQ(s.mean(), 1.0);
}

TEST(FailureSweep, FailureCellsArePairedOnIdenticalInstances) {
  // All failure cells of one (workload, scenario) share RNG streams, so the
  // crash-independent series (schedule bounds) agree exactly; eps and
  // domain:size=1 additionally draw the *same number* of victims.
  const SweepResult sweep = run_sweep(failure_sweep_config(0));
  const std::string w = "paper:tmin=15,tmax=18";
  const auto& eps = sweep.series.at(
      sweep_series_name(sweep, "FTSA-LowerBound", w, "t0", "eps"));
  for (const char* failure : {"bernoulli:p=0.3", "domain:size=2"}) {
    const auto& other = sweep.series.at(
        sweep_series_name(sweep, "FTSA-LowerBound", w, "t0", failure));
    for (std::size_t gi = 0; gi < eps.size(); ++gi) {
      EXPECT_EQ(eps[gi].mean(), other[gi].mean()) << failure << " gi=" << gi;
    }
  }
}

TEST(FailureSweep, ExceedingEpsilonDegradesInsteadOfThrowing) {
  // fixed:k=4 against epsilon=1 pushes every instance past its guarantee:
  // the sweep must complete and report a success fraction strictly below 1
  // somewhere instead of tripping the Theorem-4.1 assertion.
  FigureConfig config = failure_sweep_config(1);
  config.failure_models = {"fixed:k=4"};
  const SweepResult sweep = run_sweep(config);
  const auto& success = sweep.series.at("FTSA-Success");
  const auto& drawn = sweep.series.at("DrawnCrashes");
  double worst = 1.0;
  for (const OnlineStats& s : success) worst = std::min(worst, s.mean());
  EXPECT_LT(worst, 1.0) << "4 crashes on 6 processors never failed eps=1?";
  for (const OnlineStats& s : drawn) EXPECT_EQ(s.mean(), 4.0);
  // The DrawnCrash latency series only aggregates surviving runs.
  const auto it = sweep.series.find("FTSA-DrawnCrash");
  if (it != sweep.series.end()) {
    for (std::size_t gi = 0; gi < success.size(); ++gi) {
      EXPECT_LE(it->second[gi].count(),
                static_cast<std::size_t>(success[gi].count()));
    }
  }
}

// ------------------------------------------------------------ shard/merge

TEST(FailureSweep, ShardMergeIsBitIdenticalWithFailureCells) {
  const FigureConfig config = failure_sweep_config(2);
  const SweepResult reference = run_sweep(config);
  const SweepPlan plan(config);
  for (std::size_t n : {1u, 3u, 5u}) {
    std::vector<ShardFile> shards;
    for (std::size_t i = 0; i < n; ++i) {
      std::stringstream file;
      const SweepPlan shard = plan.shard(i, n);
      ShardWriterSink sink(file, shard);
      run_plan(shard, sink);
      shards.push_back(read_shard(file, "shard" + std::to_string(i)));
      EXPECT_EQ(shards.back().header.failures, config.failure_models);
    }
    EXPECT_TRUE(sweep_results_identical(reference, merge_shards(shards)))
        << n << "-way partition diverged";
  }
}

TEST(FailureSweep, MergeRejectsFailureModelDrift) {
  // Two workers configured with different failure grids must not merge:
  // failure_models is part of the plan fingerprint.
  const FigureConfig base = failure_sweep_config(1);
  FigureConfig drifted = base;
  drifted.failure_models = {"eps", "bernoulli:p=0.5", "domain:size=2"};
  auto shard_of = [](const FigureConfig& config, std::size_t i) {
    const SweepPlan plan(config);
    std::stringstream file;
    const SweepPlan shard = plan.shard(i, 2);
    ShardWriterSink sink(file, shard);
    run_plan(shard, sink);
    return read_shard(file, "s" + std::to_string(i));
  };
  const std::vector<ShardFile> shards{shard_of(base, 0), shard_of(drifted, 1)};
  EXPECT_NE(shards[0].header.fingerprint(), shards[1].header.fingerprint());
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
}

TEST(FailureSweep, CoordIdsCoverTheFailureAxis) {
  const SweepPlan plan(failure_sweep_config(1));
  // 1 workload x 1 scenario x 3 failures x 2 granularities x 3 reps.
  EXPECT_EQ(plan.grid_size(), 3u * 2u * 3u);
  EXPECT_EQ(plan.failures(),
            (std::vector<std::string>{"eps", "bernoulli:p=0.3",
                                      "domain:size=2"}));
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    EXPECT_EQ(c.id, ((c.workload * 1 + c.scenario) * 3 + c.failure) * 2 * 3 +
                        c.gran * 3 + c.rep);
    const InstanceCoord back = plan.coord_of_id(c.id);
    EXPECT_EQ(back.failure, c.failure);
    EXPECT_EQ(back.gran, c.gran);
    EXPECT_EQ(back.rep, c.rep);
  }
}

TEST(FailureSweep, RejectsDuplicateFailureCells) {
  FigureConfig config = failure_sweep_config(1);
  config.failure_models = {"bernoulli:p=0.3", "bernoulli:p=0.3"};
  EXPECT_THROW((void)SweepPlan(config), InvalidArgument);
}

}  // namespace
}  // namespace ftsched
