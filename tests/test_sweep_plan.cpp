// The plan/execute/merge pipeline (experiments/sweep_plan.hpp +
// sweep_io.hpp): grid enumeration and stable ids, shard selection,
// sink-based execution, the JSONL shard protocol, and the acceptance
// contract of PR 3 — merge_shards over ANY shard partition of the grid is
// bit-identical (sweep_results_identical) to the unsharded run_sweep.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/error.hpp"

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

/// Runs `plan` through a ShardWriterSink and parses the JSONL back.
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

TEST(SweepPlan, EvaluateDependsOnlyOnCoordinates) {
  const SweepPlan plan(cross_config());
  const SweepPlan shard = plan.shard(1, 3);
  // The same instance evaluated through the full plan and through a shard
  // yields the same sample map, double for double.
  const InstanceCoord c = shard.coord(0);
  const SeriesSample a = plan.evaluate(plan.coord_of_id(c.id));
  const SeriesSample b = shard.evaluate(c);
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

TEST(SweepPlan, ShardWriterEmitsSingletonRecords) {
  const SweepPlan plan(single_cell_config());
  const ShardFile shard = roundtrip_shard(plan.shard(0, 2), "s0");
  EXPECT_EQ(shard.header.shard, "0/2");
  EXPECT_EQ(shard.header.grid, plan.grid_size());
  EXPECT_EQ(shard.header.selected, plan.shard(0, 2).size());
  ASSERT_FALSE(shard.records.empty());
  for (const ShardRecord& r : shard.records) {
    EXPECT_EQ(r.stats.count(), 1u);
    EXPECT_EQ(r.stats.m2(), 0.0);
    EXPECT_EQ(r.stats.min(), r.stats.mean());
    EXPECT_EQ(r.stats.max(), r.stats.mean());
    EXPECT_LT(r.coord.id, plan.grid_size());
  }
}

TEST(SweepPlan, HeaderFingerprintMatchesPlan) {
  const SweepPlan plan(cross_config());
  // Sharding must not change the grid identity, and a disk round trip
  // must preserve it exactly (hex-float granularities).
  const ShardFile shard = roundtrip_shard(plan.shard(2, 4), "s2");
  EXPECT_EQ(shard.header.fingerprint(), plan.fingerprint());
  EXPECT_EQ(shard_header(plan).fingerprint(), plan.fingerprint());
  EXPECT_EQ(shard.header.granularities, plan.granularities());
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

TEST(MergeShards, RejectsCorruptedRecordCoordinates) {
  const SweepPlan plan(cross_config());
  std::vector<ShardFile> shards{roundtrip_shard(plan, "full")};
  // A record whose granularity index disagrees with its id must fail
  // loudly — silently aggregating it onto the wrong point is exactly the
  // drift the protocol promises to prevent.
  ASSERT_FALSE(shards[0].records.empty());
  shards[0].records[0].coord.gran ^= 1;
  EXPECT_THROW((void)merge_shards(shards), InvalidArgument);
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
  std::stringstream truncated("{\"ftsched_sweep_shard\":1,\"seed\":\"1\"");
  EXPECT_THROW((void)read_shard(truncated, "truncated"), InvalidArgument);
  EXPECT_THROW((void)merge_shards({}), InvalidArgument);
  EXPECT_THROW((void)read_shard_file("/nonexistent/shard.jsonl"),
               InvalidArgument);
}

TEST(MergeShards, MalformedFloatNamesFileAndField) {
  std::stringstream file;
  const SweepPlan plan(single_cell_config());
  ShardWriterSink sink(file, plan);
  run_plan(plan, sink);
  std::string text = file.str();
  const std::string mean = "\"mean\":\"";
  const std::size_t at = text.find(mean);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + mean.size(), "zz");  // "0x1.8p+3" -> "zz0x1.8p+3"
  std::stringstream corrupt(text);
  try {
    (void)read_shard(corrupt, "bad.jsonl");
    ADD_FAILURE() << "a malformed hex-float must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("'mean'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ftsched
