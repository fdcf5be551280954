// The plan/execute/merge pipeline (experiments/sweep_plan.hpp +
// sweep_io.hpp): grid enumeration and stable ids, shard selection,
// sink-based execution, the shard file format, and the pipeline's
// acceptance contract — merge_shards over ANY partition of the grid is
// bit-identical (sweep_results_identical) to the unsharded run_sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/error.hpp"
#include "per_coordinate.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

/// Small multi-cell grid: 2 workloads x 2 scenarios x 2 granularities x
/// 3 reps = 24 instances, decorated series names.
FigureConfig cross_config() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5, 1.0};
  config.graphs_per_point = 3;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 11;
  config.threads = 2;
  config.workloads = {"paper", "chain:size=10"};
  config.scenarios = {"t0", "frac:f=0.5"};
  return config;
}

/// Single-cell grid (undecorated series, the legacy sweep shape).
FigureConfig single_cell_config() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.8, 1.6};
  config.graphs_per_point = 4;
  config.proc_count = 6;
  config.workload.proc_count = 6;
  config.seed = 23;
  config.threads = 2;
  return config;
}

/// Runs `plan` through a ShardWriterSink and parses the shard back.
ShardFile roundtrip_shard(const SweepPlan& plan, const std::string& name) {
  std::stringstream file;
  ShardWriterSink sink(file, plan);
  run_plan(plan, sink);
  return read_shard(file, name);
}

// ------------------------------------------------------------------- plan

TEST(SweepPlan, EnumeratesTheFullGrid) {
  const SweepPlan plan(cross_config());
  EXPECT_EQ(plan.grid_size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(plan.size(), plan.grid_size());
  EXPECT_TRUE(plan.complete());
  EXPECT_EQ(plan.shard_label(), "full");
  EXPECT_EQ(plan.workloads(),
            (std::vector<std::string>{"paper", "chain:size=10"}));
  EXPECT_EQ(plan.scenarios(), (std::vector<std::string>{"t0", "frac:f=0.5"}));
}

TEST(SweepPlan, EmptyWorkloadListMeansPaperCell) {
  const SweepPlan plan(single_cell_config());
  EXPECT_EQ(plan.workloads(), (std::vector<std::string>{"paper"}));
  EXPECT_EQ(plan.scenarios(), (std::vector<std::string>{"t0"}));
  EXPECT_EQ(plan.grid_size(), 2u * 4u);
}

TEST(SweepPlan, CoordIdsAreStableAndDecomposable) {
  const SweepPlan plan(cross_config());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const InstanceCoord c = plan.coord(k);
    EXPECT_EQ(c.id, k);  // full plan: k-th selected == id k
    // id = ((w * S + s) * P + g) * R + r
    EXPECT_EQ(c.id, ((c.workload * 2 + c.scenario) * 2 + c.gran) * 3 + c.rep);
    const InstanceCoord back = plan.coord_of_id(c.id);
    EXPECT_EQ(back.workload, c.workload);
    EXPECT_EQ(back.scenario, c.scenario);
    EXPECT_EQ(back.gran, c.gran);
    EXPECT_EQ(back.rep, c.rep);
  }
  EXPECT_THROW((void)plan.coord(plan.size()), InvalidArgument);
  EXPECT_THROW((void)plan.coord_of_id(plan.grid_size()), InvalidArgument);
}

TEST(SweepPlan, ShardsPartitionTheSelection) {
  const SweepPlan plan(cross_config());
  for (std::size_t n : {2u, 3u, 5u, 24u, 30u}) {
    std::set<std::uint64_t> seen;
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SweepPlan shard = plan.shard(i, n);
      EXPECT_FALSE(shard.complete() && n > 1);
      EXPECT_EQ(shard.shard_label(),
                std::to_string(i) + "/" + std::to_string(n));
      for (std::size_t k = 0; k < shard.size(); ++k) {
        EXPECT_TRUE(seen.insert(shard.coord(k).id).second)
            << "instance assigned to two shards";
      }
      total += shard.size();
    }
    EXPECT_EQ(total, plan.size()) << n << " shards";
    EXPECT_EQ(seen.size(), plan.size());
  }
  EXPECT_THROW((void)plan.shard(3, 3), InvalidArgument);
  EXPECT_THROW((void)plan.shard(0, 0), InvalidArgument);
}

TEST(SweepPlan, NestedShardChainsMatchBruteForceIdLists) {
  // The selection is kept as a stride; the reference here is the explicit
  // id list, narrowed by "every count-th entry from index" per step.
  proptest::check(
      "shard chains of depth <= 3: size, complete and every id",
      [](Rng& rng, std::uint64_t) {
        FigureConfig config = cross_config();
        config.graphs_per_point =
            static_cast<std::size_t>(rng.uniform_int(1, 3));
        SweepPlan plan(config);
        std::vector<std::uint64_t> ids(plan.grid_size());
        for (std::uint64_t id = 0; id < ids.size(); ++id) ids[id] = id;
        const auto depth = rng.uniform_int(1, 3);
        for (std::int64_t d = 0; d < depth; ++d) {
          // Counts up to 7 overshoot a deep shard's size.
          const auto count = static_cast<std::size_t>(rng.uniform_int(1, 7));
          const auto index =
              static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(count) - 1));
          plan = plan.shard(index, count);
          std::vector<std::uint64_t> narrowed;
          for (std::size_t k = index; k < ids.size(); k += count) {
            narrowed.push_back(ids[k]);
          }
          ids = std::move(narrowed);
          ASSERT_EQ(plan.size(), ids.size()) << plan.shard_label();
          EXPECT_EQ(plan.complete(), ids.size() == plan.grid_size());
          for (std::size_t k = 0; k < ids.size(); ++k) {
            EXPECT_EQ(plan.coord(k).id, ids[k])
                << plan.shard_label() << " k=" << k;
          }
          EXPECT_THROW((void)plan.coord(ids.size()), InvalidArgument);
        }
      },
      {.iterations = 40});
}

TEST(SweepPlan, EvaluateDependsOnlyOnCoordinates) {
  const SweepPlan plan(cross_config());
  const SweepPlan shard = plan.shard(1, 3);
  // The same instance evaluated through the full plan and through a shard
  // yields the same sample map, double for double.
  // (Full-plan selected indices are ids.)
  const InstanceCoord c = shard.coord(0);
  const SeriesSample a = reference::evaluate_alone(plan, c.id);
  const SeriesSample b = reference::evaluate_alone(shard, 0);
  EXPECT_EQ(a, b);
}

TEST(SweepPlan, RejectsDuplicateCells) {
  FigureConfig config = cross_config();
  config.workloads = {"paper", "paper"};
  EXPECT_THROW((void)SweepPlan(config), InvalidArgument);
}

// ------------------------------------------------------------------- sinks

TEST(SweepPlan, StatsSinkReproducesRunSweep) {
  const FigureConfig config = cross_config();
  const SweepPlan plan(config);
  OnlineStatsSink sink(plan);
  run_plan(plan, sink);
  const SweepResult via_sink = sink.take();
  EXPECT_TRUE(sweep_results_identical(via_sink, run_sweep(config)));
  // Series decoration matches the multi-cell rule.
  EXPECT_TRUE(via_sink.series.count("FTSA-LowerBound[paper|t0]"));
  EXPECT_TRUE(
      via_sink.series.count("FTSA-LowerBound[chain:size=10|frac:f=0.5]"));
}

TEST(SweepPlan, ShardWriterEmitsOneLinePerCoordinate) {
  const SweepPlan plan(single_cell_config());
  const SweepPlan half = plan.shard(0, 2);
  std::stringstream file;
  ShardWriterSink sink(file, half);
  run_plan(half, sink);
  const std::string text = file.str();
  const ShardFile shard = read_shard(file, "s0");
  EXPECT_EQ(shard.header.shard, "0/2");
  EXPECT_EQ(shard.header.grid, plan.grid_size());
  EXPECT_EQ(shard.header.selected, half.size());
  // Header, one declaration per series, one record per coordinate.
  ASSERT_EQ(shard.samples.size(), half.size());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            1 + shard.series.size() + half.size());
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_EQ(shard.samples[k].id, half.coord(k).id);
    EXPECT_EQ(shard.samples[k].values.size(), shard.series.size());
  }
  // Undecorated names: the single-cell grid has no suffix to strip, and
  // the names are the runner's own.
  EXPECT_NE(std::find(shard.series.begin(), shard.series.end(),
                      "FTSA-LowerBound"),
            shard.series.end());
}

TEST(SweepPlan, HeaderFingerprintMatchesPlan) {
  const SweepPlan plan(cross_config());
  // Sharding must not change the grid identity, and a disk round trip
  // must preserve it exactly (hex-float granularities).
  const ShardFile shard = roundtrip_shard(plan.shard(2, 4), "s2");
  EXPECT_EQ(shard.header.fingerprint(), plan.fingerprint());
  EXPECT_EQ(shard_header(plan).fingerprint(), plan.fingerprint());
  EXPECT_EQ(shard.header.granularities, plan.granularities());
  EXPECT_EQ(shard.header.numerics, numerics_fingerprint());
  EXPECT_EQ(numerics_fingerprint().size(), 16u);
}

// ------------------------------------------------------------------- merge

/// The PR-3 acceptance criterion, for one config and several partitions.
void expect_merge_bit_identical(const FigureConfig& config) {
  const SweepResult reference = run_sweep(config);
  const SweepPlan plan(config);

  for (std::size_t n : {1u, 2u, 3u, 7u}) {
    std::vector<ShardFile> shards;
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(roundtrip_shard(plan.shard(i, n),
                                       "shard" + std::to_string(i)));
    }
    EXPECT_TRUE(sweep_results_identical(reference, merge_shards(shards)))
        << n << "-way partition diverged";
  }

  // An uneven, nested partition: {0/2 then 0/2, 0/2 then 1/2, 1/2} —
  // three shards of different sizes produced by sharding a shard.
  const std::vector<ShardFile> nested{
      roundtrip_shard(plan.shard(0, 2).shard(0, 2), "n0"),
      roundtrip_shard(plan.shard(0, 2).shard(1, 2), "n1"),
      roundtrip_shard(plan.shard(1, 2), "n2"),
  };
  EXPECT_TRUE(sweep_results_identical(reference, merge_shards(nested)))
      << "nested uneven partition diverged";
}

TEST(MergeShards, BitIdenticalToUnshardedRun_MultiCell) {
  expect_merge_bit_identical(cross_config());
}

TEST(MergeShards, BitIdenticalToUnshardedRun_SingleCell) {
  expect_merge_bit_identical(single_cell_config());
}

/// Records every delivered sample, in delivery order.
class RecordSink final : public SweepSink {
 public:
  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override {
    coords.push_back(coord);
    samples.push_back(sample);
  }
  std::vector<InstanceCoord> coords;
  std::vector<SeriesSample> samples;
};

TEST(MergeShards, RandomPartitionsInAnyLineOrderMergeBitIdentically) {
  // Strided shards are one partition family; the format promises more:
  // any assignment of coordinates to files, in any line order, merges to
  // the unsharded result.
  FigureConfig config = cross_config();
  config.failure_models = {"eps", "bernoulli:p=0.3"};
  const SweepPlan plan(config);
  const SweepResult reference = run_sweep(config);
  RecordSink all;
  run_plan(plan, all);
  proptest::check(
      "random shard partitions merge to the unsharded result",
      [&](Rng& rng, std::uint64_t) {
        const auto files = static_cast<std::size_t>(rng.uniform_int(1, 5));
        std::vector<std::vector<std::size_t>> members(files);
        for (std::size_t k = 0; k < plan.size(); ++k) {
          members[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(files) - 1))]
              .push_back(k);
        }
        std::vector<ShardFile> shards;
        for (std::size_t f = 0; f < files; ++f) {
          std::vector<std::size_t>& ks = members[f];
          for (std::size_t i = ks.size(); i > 1; --i) {
            std::swap(ks[i - 1],
                      ks[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(i) - 1))]);
          }
          std::stringstream text;
          ShardWriterSink sink(text, plan);
          for (const std::size_t k : ks) {
            sink.on_sample(all.coords[k], all.samples[k]);
          }
          shards.push_back(read_shard(text, "part" + std::to_string(f)));
        }
        EXPECT_TRUE(sweep_results_identical(reference, merge_shards(shards)))
            << files << " files";
      },
      {.iterations = 12});
}

TEST(MergeShards, ShardsRunWithDifferentThreadCountsStillMergeIdentically) {
  FigureConfig config = single_cell_config();
  const SweepResult reference = run_sweep(config);
  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    config.threads = i + 1;  // every "machine" uses a different pool size
    const SweepPlan plan(config);
    shards.push_back(roundtrip_shard(plan.shard(i, 3),
                                     "t" + std::to_string(i)));
  }
  EXPECT_TRUE(sweep_results_identical(reference, merge_shards(shards)));
}

TEST(MergeShards, RejectsIncompletePartition) {
  const SweepPlan plan(cross_config());
  std::vector<ShardFile> shards;
  shards.push_back(roundtrip_shard(plan.shard(0, 3), "s0"));
  shards.push_back(roundtrip_shard(plan.shard(1, 3), "s1"));
  // shard 2/3 missing
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
}

TEST(MergeShards, RejectsOverlappingShards) {
  const SweepPlan plan(cross_config());
  std::vector<ShardFile> shards;
  shards.push_back(roundtrip_shard(plan.shard(0, 2), "s0"));
  shards.push_back(roundtrip_shard(plan.shard(1, 2), "s1"));
  shards.push_back(roundtrip_shard(plan.shard(0, 2), "dup"));
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
}

TEST(MergeShards, RejectsPlanMismatch) {
  const SweepPlan plan(cross_config());
  FigureConfig other_config = cross_config();
  other_config.seed = 999;  // different grid identity
  const SweepPlan other(other_config);
  std::vector<ShardFile> shards;
  shards.push_back(roundtrip_shard(plan.shard(0, 2), "s0"));
  shards.push_back(roundtrip_shard(other.shard(1, 2), "alien"));
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
}

TEST(MergeShards, RejectsPaperParamsDrift) {
  // Programmatic PaperWorkloadParams tweaks change the numbers without
  // showing in the "paper" cell label; the header must still catch them.
  const FigureConfig base = single_cell_config();
  FigureConfig tweaked = base;
  tweaked.workload.task_min = 40;  // config drift between two "workers"
  std::vector<ShardFile> shards;
  shards.push_back(roundtrip_shard(SweepPlan(base).shard(0, 2), "s0"));
  shards.push_back(roundtrip_shard(SweepPlan(tweaked).shard(1, 2), "s1"));
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
  // Registry-spec cells carry their parameters in the label already; the
  // paper component is empty and ignored there.
  EXPECT_EQ(shard_header(SweepPlan(cross_config())).paper_params, "");
}

TEST(MergeShards, RejectsAnInstanceRecordedTwiceInOneFile) {
  const SweepPlan plan(cross_config());
  std::vector<ShardFile> shards{roundtrip_shard(plan, "full")};
  ASSERT_GE(shards[0].samples.size(), 2u);
  shards[0].samples[1].id = shards[0].samples[0].id;  // id 1 now missing
  try {
    (void)merge_shards(shards);
    ADD_FAILURE() << "a repeated instance must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("appears twice (full, full)"),
              std::string::npos)
        << e.what();
  }
}

TEST(MergeShards, RejectsInconsistentHeaderGridCount) {
  const SweepPlan plan(cross_config());
  std::vector<ShardFile> shards{roundtrip_shard(plan, "full")};
  shards[0].header.grid = 999999;  // mangled count, dimensions unchanged
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
}

TEST(MergeShards, RejectsGarbageStreams) {
  std::stringstream not_a_shard("{\"hello\":\"world\"}\n");
  EXPECT_THROW((void)read_shard(not_a_shard, "garbage"), InvalidArgument);
  std::stringstream empty;
  EXPECT_THROW((void)read_shard(empty, "empty"), InvalidArgument);
  std::stringstream truncated("{\"ftsched_sweep_shard\":2,\"seed\":\"1\"");
  EXPECT_THROW((void)read_shard(truncated, "truncated"), InvalidArgument);
  EXPECT_THROW((void)merge_shards({}), InvalidArgument);
  EXPECT_THROW((void)read_shard_file("/nonexistent/shard.jsonl"),
               InvalidArgument);
}

TEST(MergeShards, MalformedHeaderFloatNamesFileAndField) {
  std::stringstream file;
  const SweepPlan plan(single_cell_config());
  ShardWriterSink sink(file, plan);
  std::string text = file.str();
  const std::string field = "\"granularities\":\"";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + field.size(), "zz");  // "0x1.8p+3" -> "zz0x1.8p+3"
  std::stringstream corrupt(text);
  try {
    (void)read_shard(corrupt, "bad.jsonl");
    ADD_FAILURE() << "a malformed hex-float must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.jsonl:1"), std::string::npos) << what;
    EXPECT_NE(what.find("'granularities'"), std::string::npos) << what;
  }
}

TEST(MergeShards, VersionOneShardIsRejectedNamingTheFile) {
  // A shard written by an earlier build: one JSON record per series.
  const std::string path =
      std::string(FTSCHED_SOURCE_DIR) + "/tests/data/shard_v1.jsonl";
  try {
    (void)read_shard_file(path);
    ADD_FAILURE() << "a version-1 shard must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":1:"), std::string::npos) << what;
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ftsched
