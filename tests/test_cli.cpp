// End-to-end tests of the ftsched_cli subcommands (driven in-process via
// run_cli so output and exit codes are directly observable).
#include <gtest/gtest.h>

#include <unistd.h>

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>

#include "cli_commands.hpp"
#include "ftsched/core/scheduler.hpp"
#include "ftsched/experiments/runner.hpp"
#include "ftsched/workload/workload_registry.hpp"
#include "golden_test.hpp"

namespace ftsched::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ftsched_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    graph_file_ = (dir_ / "graph.txt").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string graph_file_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  const CliResult help = run({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("generate"), std::string::npos);

  const CliResult nothing = run({});
  EXPECT_EQ(nothing.code, 1);

  const CliResult bogus = run({"frobnicate"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateInfoRoundTrip) {
  const CliResult gen = run({"generate", "--family", "layered", "--tasks",
                             "40", "--seed", "3", "--out", graph_file_});
  ASSERT_EQ(gen.code, 0) << gen.err;
  ASSERT_TRUE(std::filesystem::exists(graph_file_));

  const CliResult info = run({"info", "--graph", graph_file_});
  ASSERT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("tasks:           40"), std::string::npos);
  EXPECT_NE(info.out.find("layer width"), std::string::npos);
}

TEST_F(CliTest, GenerateAllFamilies) {
  for (const char* family :
       {"layered", "gnp", "chain", "forkjoin", "intree", "outtree", "fft",
        "gauss", "wavefront", "sp", "cholesky", "lu"}) {
    // Tree/FFT families need power-of-two sizes; 8 works everywhere.
    const CliResult r = run({"generate", "--family", family, "--tasks", "8"});
    EXPECT_EQ(r.code, 0) << family << ": " << r.err;
    EXPECT_NE(r.out.find("taskgraph"), std::string::npos) << family;
  }
}

TEST_F(CliTest, GenerateDotOutput) {
  const CliResult r =
      run({"generate", "--family", "chain", "--tasks", "4", "--dot"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("digraph"), std::string::npos);
}

TEST_F(CliTest, ScheduleAllAlgorithms) {
  ASSERT_EQ(run({"generate", "--family", "layered", "--tasks", "30",
                 "--out", graph_file_})
                .code,
            0);
  for (const char* algo :
       {"ftsa", "mc-ftsa", "mc-ftsa-paper", "ftbar", "heft", "cpop",
        "random"}) {
    const bool replicated = std::string(algo) != "heft" &&
                            std::string(algo) != "cpop";
    std::vector<std::string> args{"schedule", "--graph", graph_file_,
                                  "--algo", algo, "--procs", "6"};
    if (!replicated) {
      args.push_back("--epsilon");
      args.push_back("0");
    }
    const CliResult r = run(args);
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    EXPECT_NE(r.out.find("lower bound"), std::string::npos) << algo;
  }
}

TEST_F(CliTest, ScheduleWithGanttJsonAndFile) {
  ASSERT_EQ(run({"generate", "--family", "fft", "--tasks", "8", "--out",
                 graph_file_})
                .code,
            0);
  const std::string sched_file = (dir_ / "sched.txt").string();
  const CliResult r =
      run({"schedule", "--graph", graph_file_, "--algo", "ftsa", "--epsilon",
           "1", "--procs", "4", "--gantt", "--json", "--out", sched_file});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("P0"), std::string::npos);          // gantt row
  EXPECT_NE(r.out.find("\"algorithm\""), std::string::npos);  // json
  std::ifstream sched(sched_file);
  std::string first_line;
  std::getline(sched, first_line);
  EXPECT_EQ(first_line.rfind("schedule FTSA", 0), 0u);
}

TEST_F(CliTest, SimulateSurvivesCrashSpec) {
  ASSERT_EQ(run({"generate", "--family", "layered", "--tasks", "25",
                 "--out", graph_file_})
                .code,
            0);
  const CliResult r =
      run({"simulate", "--graph", graph_file_, "--algo", "ftsa", "--epsilon",
           "2", "--procs", "6", "--crashes", "0@0,3@50.5", "--gantt"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("success:              yes"), std::string::npos);
}

TEST_F(CliTest, SimulateRejectsMalformedCrashSpecs) {
  ASSERT_EQ(run({"generate", "--family", "chain", "--tasks", "5", "--out",
                 graph_file_})
                .code,
            0);
  // "3x@1" used to stoul-parse as processor 3 with the "x" silently
  // dropped, and "-1" wrapped to a huge processor id; both must be loud
  // errors now, as must junk times and out-of-range ids.
  for (const char* crashes :
       {"3x@1", "-1", "0@-5", "0@1x", "one@0", "0@", "99999999999"}) {
    const CliResult r =
        run({"simulate", "--graph", graph_file_, "--algo", "heft", "--procs",
             "2", "--epsilon", "0", "--crashes", crashes});
    EXPECT_EQ(r.code, 1) << crashes;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << crashes;
  }
}

TEST_F(CliTest, SimulateDrawsScenarioFromFailureModel) {
  ASSERT_EQ(run({"generate", "--family", "layered", "--tasks", "25",
                 "--out", graph_file_})
                .code,
            0);
  // domain draws exactly epsilon victims: Thm 4.1 guarantees success.
  const CliResult ok =
      run({"simulate", "--graph", graph_file_, "--algo", "ftsa", "--epsilon",
           "2", "--procs", "6", "--failures", "domain:size=2"});
  ASSERT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("failure model:"), std::string::npos);
  EXPECT_NE(ok.out.find("drawn crashes:        2 of 6"), std::string::npos);
  EXPECT_NE(ok.out.find("success:              yes"), std::string::npos);

  // Crashing every processor exceeds any epsilon: graceful degradation is
  // a reported failure (exit 2), not an exception.
  const CliResult dead =
      run({"simulate", "--graph", graph_file_, "--algo", "ftsa", "--epsilon",
           "1", "--procs", "4", "--failures", "bernoulli:p=1"});
  EXPECT_EQ(dead.code, 2);
  EXPECT_NE(dead.out.find("success:              NO"), std::string::npos);

  const CliResult both =
      run({"simulate", "--graph", graph_file_, "--failures", "eps",
           "--crashes", "0@0"});
  EXPECT_EQ(both.code, 1);
  EXPECT_NE(both.err.find("mutually exclusive"), std::string::npos);

  const CliResult bogus =
      run({"simulate", "--graph", graph_file_, "--failures", "meteor"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("unknown failure model"), std::string::npos);
}

/// The lines `simulate` prints after the scenario header, from "success:".
std::string simulate_report(const std::string& out) {
  const auto pos = out.find("success:");
  return pos == std::string::npos ? std::string() : out.substr(pos);
}

TEST_F(CliTest, SimulateFailuresHonourRepairs) {
  // --failures draws like a t0 sweep cell: a repair law's victims restart,
  // so a short mttr must not print the permanent-crash report of the
  // bernoulli law that draws the very same victims.
  const std::vector<std::string> base = {
      "simulate", "--workload", "paper", "--procs", "10", "--epsilon", "1",
      "--seed",   "3"};
  auto simulate_with = [&base](const std::string& law) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--failures", law});
    return run(args);
  };
  const CliResult permanent = simulate_with("bernoulli:p=0.3");
  const CliResult repaired = simulate_with("repair:p=0.3,mttr=0.01");
  ASSERT_NE(permanent.code, 1) << permanent.err;
  ASSERT_NE(repaired.code, 1) << repaired.err;
  EXPECT_NE(simulate_report(repaired.out), simulate_report(permanent.out));

  // The report is a library run of the same draw: the workload and the
  // schedule from --seed, the draw from its derived stream, anchored on
  // the schedule's lower bound.
  Rng workload_rng(3);
  const auto workload = make_workload_family("paper")->generate(
      workload_rng, SweepPoint{1.0, 10});
  const ReplicatedSchedule schedule =
      make_scheduler("ftsa", {{"eps", "1"}, {"seed", "3"}})
          ->run(workload->costs());
  Rng draw_rng = Rng(3).derive(1);
  const CellDraw draw =
      draw_cell(draw_rng, 10, 1, CrashTimeLaw{},
                FailureModel::parse("repair:p=0.3,mttr=0.01"));
  const FailureScenario scenario =
      draw.scenario(schedule.lower_bound(), draw.victims.size());
  ASSERT_TRUE(scenario.has_repairs());
  const SimulationResult r = simulate(schedule, scenario);
  std::ostringstream want;
  want << "success:              " << (r.success ? "yes" : "NO") << '\n';
  if (r.success) {
    want << "achieved latency:     " << r.latency << '\n';
    want << "guaranteed bound M:   " << schedule.upper_bound() << '\n';
  }
  want << "completed replicas:   " << r.completed_replicas << '\n';
  want << "dead replicas:        " << r.dead_replicas << '\n';
  want << "cancelled replicas:   " << r.cancelled_replicas << '\n';
  want << "messages delivered:   " << r.messages_delivered << '\n';
  EXPECT_EQ(simulate_report(repaired.out), want.str());
  EXPECT_EQ(repaired.code, r.success ? 0 : 2);
}

TEST_F(CliTest, ListFailureLawsShowsModelsAndCrashLaws) {
  const CliResult r = run({"list-failure-laws"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name : {"eps", "fixed", "bernoulli", "domain"}) {
    EXPECT_NE(r.out.find("\n  " + std::string(name) + "\n"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(r.out.find("success fraction"), std::string::npos);
  EXPECT_NE(r.out.find("crash-time laws"), std::string::npos);
  EXPECT_NE(r.out.find("frac:f=F"), std::string::npos);
}

TEST_F(CliTest, SimulateReportsFailureExitCode) {
  ASSERT_EQ(run({"generate", "--family", "chain", "--tasks", "5", "--out",
                 graph_file_})
                .code,
            0);
  // epsilon=0 and crash every processor: the run must fail with code 2.
  const CliResult r =
      run({"simulate", "--graph", graph_file_, "--algo", "heft", "--procs",
           "2", "--crashes", "0@0,1@0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("success:              NO"), std::string::npos);
}

TEST_F(CliTest, SimulateCommModels) {
  ASSERT_EQ(run({"generate", "--family", "layered", "--tasks", "20",
                 "--out", graph_file_})
                .code,
            0);
  for (const char* comm : {"free", "oneport", "multiport"}) {
    const CliResult r = run({"simulate", "--graph", graph_file_, "--algo",
                             "ftsa", "--procs", "5", "--comm", comm});
    EXPECT_EQ(r.code, 0) << comm << ": " << r.err;
  }
}

TEST_F(CliTest, ValidateCertifiesFtsaAndFlagsPaperMc) {
  ASSERT_EQ(run({"generate", "--family", "layered", "--tasks", "20",
                 "--out", graph_file_})
                .code,
            0);
  const CliResult good = run({"validate", "--graph", graph_file_, "--algo",
                              "ftsa", "--epsilon", "2", "--procs", "5"});
  EXPECT_EQ(good.code, 0) << good.err;
  EXPECT_NE(good.out.find("certified robust"), std::string::npos);
  EXPECT_NE(good.out.find("valid"), std::string::npos);

  // Paper-mode MC-FTSA usually fails validation on these workloads; accept
  // either outcome, but a fatal kill-set analysis must imply an exhaustive
  // failure (exit code 2).
  const CliResult paper =
      run({"validate", "--graph", graph_file_, "--algo", "mc-ftsa-paper",
           "--epsilon", "2", "--procs", "5"});
  const bool analysis_fatal =
      paper.out.find("NOT fault tolerant") != std::string::npos;
  if (analysis_fatal) {
    EXPECT_EQ(paper.code, 2) << paper.out;
  }
}

TEST_F(CliTest, ListWorkloadsShowsAtLeastFourFamilies) {
  const CliResult r = run({"list-workloads"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::size_t families = 0;
  for (const char* name : {"paper", "layered", "gnp", "trace", "fft",
                           "cholesky", "wavefront"}) {
    if (r.out.find("\n" + std::string(name) + "\n") != std::string::npos ||
        r.out.rfind(std::string(name) + "\n", 0) == 0) {
      ++families;
    }
  }
  EXPECT_GE(families, 4u) << r.out;
  EXPECT_NE(r.out.find("spec syntax"), std::string::npos);
  EXPECT_NE(r.out.find("crash laws"), std::string::npos);
}

TEST_F(CliTest, ScheduleAcceptsWorkloadSpecInsteadOfGraph) {
  const CliResult r = run({"schedule", "--workload", "fft:size=8", "--algo",
                           "ftsa", "--epsilon", "1", "--procs", "4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("lower bound"), std::string::npos);

  const CliResult both =
      run({"schedule", "--workload", "fft:size=8", "--graph", "x.txt"});
  EXPECT_EQ(both.code, 1);
  EXPECT_NE(both.err.find("mutually exclusive"), std::string::npos);

  const CliResult bogus = run({"schedule", "--workload", "nonsense"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("unknown workload family"), std::string::npos);
}

TEST_F(CliTest, SweepRangesOverWorkloadAndScenarioCells) {
  const CliResult r = run(
      {"sweep", "--granularities", "0.6;1.4", "--graphs", "1", "--procs", "5",
       "--workload", "paper:tmin=15,tmax=18;fft:size=8", "--scenario",
       "t0;frac:f=0.5", "--threads", "2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cells=2x2x1x1"), std::string::npos);
  EXPECT_NE(r.out.find("FTSA-1Crash[fft:size=8|t0]"), std::string::npos);
  EXPECT_NE(r.out.find("FTSA-1Crash[fft:size=8|frac:f=0.5]"),
            std::string::npos);
  EXPECT_NE(r.out.find("0.60"), std::string::npos);

  const CliResult bad = run({"sweep", "--scenario", "lightning"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("unknown crash law"), std::string::npos);
}

TEST_F(CliTest, SimulateWithWorkloadSpecAndCrashes) {
  const CliResult r =
      run({"simulate", "--workload", "layered:tasks=25", "--algo", "ftsa",
           "--epsilon", "2", "--procs", "6", "--crashes", "0@0,3@50.5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("success:              yes"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReportedNotThrown) {
  const CliResult r = run({"info", "--graph", "/nonexistent/file"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

// ------------------------------------------------- plan / shard / merge

/// The shared grid options of the sharding tests (small but multi-cell).
std::vector<std::string> shard_grid_args() {
  return {"--granularities", "0.6;1.4",  "--graphs",   "3",
          "--procs",         "5",        "--workload", "paper;chain:size=10",
          "--scenario",      "t0;frac:f=0.5", "--seed", "13"};
}

std::vector<std::string> with_grid(std::vector<std::string> args,
                                   std::vector<std::string> extra) {
  for (auto& a : shard_grid_args()) args.push_back(a);
  for (auto& a : extra) args.push_back(std::move(a));
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(CliTest, PlanEnumeratesGridAndShards) {
  const CliResult full = run(with_grid({"plan"}, {"--limit", "0"}));
  ASSERT_EQ(full.code, 0) << full.err;
  EXPECT_NE(full.out.find("grid:         24 instances"), std::string::npos);
  EXPECT_NE(full.out.find("[shard full]"), std::string::npos);
  EXPECT_NE(full.out.find("fingerprint:  v1 seed=13"), std::string::npos);
  EXPECT_NE(full.out.find("chain:size=10"), std::string::npos);
  EXPECT_NE(full.out.find("frac:f=0.5"), std::string::npos);

  const CliResult shard = run(with_grid({"plan"}, {"--shard", "1/3"}));
  ASSERT_EQ(shard.code, 0) << shard.err;
  EXPECT_NE(shard.out.find("selected:     8 [shard 1/3]"), std::string::npos);

  const CliResult bad = run(with_grid({"plan"}, {"--shard", "3/3"}));
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("shard index"), std::string::npos);

  const CliResult malformed = run(with_grid({"plan"}, {"--shard", "nope"}));
  EXPECT_EQ(malformed.code, 1);
}

TEST_F(CliTest, ShardedSweepMergesByteIdenticalToUnshardedCsv) {
  const std::string full_csv = (dir_ / "full.csv").string();
  ASSERT_EQ(run(with_grid({"sweep"}, {"--out", full_csv})).code, 0);

  std::string shard_list;
  for (int i = 0; i < 3; ++i) {
    const std::string part =
        (dir_ / ("part" + std::to_string(i) + ".jsonl")).string();
    const CliResult r = run(with_grid(
        {"sweep"}, {"--shard", std::to_string(i) + "/3", "--out", part}));
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("sweep shard " + std::to_string(i) + "/3"),
              std::string::npos);
    if (i) shard_list += ";";
    shard_list += part;
  }

  const std::string merged_csv = (dir_ / "merged.csv").string();
  const CliResult merged =
      run({"merge", "--in", shard_list, "--out", merged_csv});
  ASSERT_EQ(merged.code, 0) << merged.err;
  EXPECT_NE(merged.out.find("3 shards, 24 of 24 instances"),
            std::string::npos);

  const std::string full = read_file(full_csv);
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(full, read_file(merged_csv))
      << "merged CSV is not byte-identical to the unsharded sweep";
}

TEST_F(CliTest, SweepRangesOverFailureModelCellsAndMergesByteIdentical) {
  // The ISSUE-4 acceptance criterion: a failure-model grid runs end to
  // end, and a 3-shard merge of it is byte-identical to the unsharded CSV.
  const std::vector<std::string> grid{
      "--granularities", "0.8",  "--graphs", "3",        "--procs", "6",
      "--epsilon",       "1",    "--seed",   "17",       "--workload",
      "paper:tmin=15,tmax=18",   "--failures",
      "eps;bernoulli:p=0.1;domain:size=4"};
  auto with = [&](std::vector<std::string> args,
                  std::vector<std::string> extra) {
    for (const auto& a : grid) args.push_back(a);
    for (auto& a : extra) args.push_back(std::move(a));
    return args;
  };

  const std::string full_csv = (dir_ / "failures_full.csv").string();
  const CliResult full = run(with({"sweep"}, {"--out", full_csv}));
  ASSERT_EQ(full.code, 0) << full.err;
  EXPECT_NE(full.out.find("cells=1x1x3x1"), std::string::npos);
  const std::string csv = read_file(full_csv);
  // Decorated with the failure label, including the degradation series.
  EXPECT_NE(csv.find("FTSA-1Crash[paper:tmin=15,tmax=18|t0|eps]"),
            std::string::npos);
  EXPECT_NE(
      csv.find("FTSA-Success[paper:tmin=15,tmax=18|t0|bernoulli:p=0.1]"),
      std::string::npos);
  EXPECT_NE(
      csv.find("DrawnCrashes[paper:tmin=15,tmax=18|t0|domain:size=4]"),
      std::string::npos);

  std::string shard_list;
  for (int i = 0; i < 3; ++i) {
    const std::string part =
        (dir_ / ("fpart" + std::to_string(i) + ".jsonl")).string();
    ASSERT_EQ(run(with({"sweep"}, {"--shard", std::to_string(i) + "/3",
                                   "--out", part}))
                  .code,
              0);
    if (i) shard_list += ";";
    shard_list += part;
  }
  const std::string merged_csv = (dir_ / "failures_merged.csv").string();
  ASSERT_EQ(run({"merge", "--in", shard_list, "--out", merged_csv}).code, 0);
  EXPECT_EQ(csv, read_file(merged_csv))
      << "merged failure-model CSV is not byte-identical";

  const CliResult bad = run({"sweep", "--failures", "meteor"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("unknown failure model"), std::string::npos);
}

TEST_F(CliTest, PlanShowsTheFailureDimension) {
  const CliResult r = run(
      {"plan", "--granularities", "0.8", "--graphs", "2", "--failures",
       "eps;bernoulli:p=0.2", "--limit", "0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1 workload(s) x 1 scenario(s) x 2 failure model(s)"),
            std::string::npos);
  EXPECT_NE(r.out.find("failures=eps;bernoulli:p=0.2"), std::string::npos);
  EXPECT_NE(r.out.find("bernoulli:p=0.2"), std::string::npos);
}

TEST_F(CliTest, ShardedSweepWritesTheShardToStdout) {
  const CliResult r = run(with_grid({"sweep"}, {"--shard", "0/4"}));
  ASSERT_EQ(r.code, 0) << r.err;
  // The shard alone: first line is the format header, no banner.
  EXPECT_EQ(r.out.rfind("{\"ftsched_sweep_shard\":2", 0), 0u);
  EXPECT_NE(r.out.find("\"shard\":\"0/4\""), std::string::npos);
}

TEST_F(CliTest, MergeRejectsAVersionOneShardNamingIt) {
  const std::string v1 =
      std::string(FTSCHED_SOURCE_DIR) + "/tests/data/shard_v1.jsonl";
  const CliResult r = run({"merge", "--in", v1});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find(v1 + ":1: shard format version 1"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, CountAndPortOptionsMustBeWholeUnsignedNumbers) {
  // "8x" used to run as 8, and "-3" wrapped to 2^64 - 3 (an abort).
  struct Case {
    std::vector<std::string> args;
    std::string error;
  };
  for (const Case& c : std::vector<Case>{
           {{"schedule", "--workload", "paper:tmin=10,tmax=10", "--procs",
             "-3"},
            "option --procs expects a non-negative integer, got '-3'"},
           {{"schedule", "--workload", "paper:tmin=10,tmax=10", "--procs",
             "8x"},
            "option --procs expects a non-negative integer, got '8x'"},
           {{"sweep", "--graphs", "1", "--procs", "-3"},
            "option --procs expects a non-negative integer"},
           {{"serve", "--graphs", "1", "--port", "70000"},
            "option --port is out of range: 70000 (at most 65535)"},
           {{"worker", "--connect", "127.0.0.1:70000"},
            "--connect port out of range: 70000"},
           {{"schedule", "--workload", "paper:tmin=10,tmax=10", "--seed",
             "42x"},
            "option --seed is not an integer: 42x"}}) {
    const CliResult r = run(c.args);
    EXPECT_EQ(r.code, 1) << c.args.front();
    EXPECT_NE(r.err.find(c.error), std::string::npos) << r.err;
  }
}

TEST_F(CliTest, DoubleOptionsMustBeWholeNumbers) {
  // "1.0x" used to run as 1.0, and the radix followed the C locale.
  for (const auto& [args, option] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"schedule", "--workload", "paper:tmin=10,tmax=10",
             "--granularity", "1.0x"},
            "'--granularity'"},
           {{"serve", "--graphs", "1", "--timeout", "2s"}, "'--timeout'"}}) {
    const CliResult r = run(args);
    EXPECT_EQ(r.code, 1) << args.front();
    EXPECT_NE(r.err.find("option " + option + ": expected a number, got '" +
                         args.back() + "'"),
              std::string::npos)
        << r.err;
  }

  const std::vector<std::string> schedule{"schedule", "--workload",
                                          "paper:tmin=10,tmax=10",
                                          "--granularity"};
  auto with_granularity = [&](const std::string& value) {
    std::vector<std::string> args = schedule;
    args.push_back(value);
    return run(args);
  };
  const CliResult whole = with_granularity("1.0");
  const CliResult fraction = with_granularity("1.5");
  ASSERT_EQ(fraction.code, 0) << fraction.err;
  EXPECT_NE(fraction.out, whole.out) << "--granularity 1.5 ran as 1.0";
  // The same under a comma-radix C and C++ locale, where std::stod would
  // have stopped at the '.'.
  const std::string old_c = std::setlocale(LC_ALL, nullptr);
  const std::locale old_cpp;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8"}) {
    try {
      std::locale::global(std::locale(name));
    } catch (const std::runtime_error&) {
      continue;
    }
    EXPECT_NE(with_granularity("1.5").out, with_granularity("1.0").out)
        << "--granularity 1.5 ran as 1.0 under " << name;
    break;
  }
  std::locale::global(old_cpp);
  std::setlocale(LC_ALL, old_c.c_str());
}

TEST_F(CliTest, MergeRejectsIncompleteShardSet) {
  const std::string part = (dir_ / "part0.jsonl").string();
  ASSERT_EQ(run(with_grid({"sweep"}, {"--shard", "0/3", "--out", part})).code,
            0);
  const CliResult r = run({"merge", "--in", part});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("incomplete partition"), std::string::npos);

  const CliResult none = run({"merge"});
  EXPECT_EQ(none.code, 1);
}

// ----------------------------------------------------- execution backends

TEST_F(CliTest, ListBackendsShowsRegistryEntries) {
  const CliResult r = run({"list-backends"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Exactly two entries: each backend name starts a line of its own.
  std::vector<std::string> names;
  std::istringstream lines(r.out);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) break;  // the spec-syntax epilogue follows
    if (line[0] != ' ') names.push_back(line);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"inproc", "socket"}));
  EXPECT_NE(r.out.find("lease="), std::string::npos);
  EXPECT_EQ(r.out.find("subprocess"), std::string::npos);
}

TEST_F(CliTest, SweepSocketBackendMatchesDefaultCsv) {
  // run_cli executes in-process here, so /proc/self/exe is the *test*
  // binary — the spec must name the real CLI explicitly, exactly like a
  // library embedder would.
  const std::string base_csv = (dir_ / "backend_base.csv").string();
  const std::string socket_csv = (dir_ / "backend_socket.csv").string();
  ASSERT_EQ(run(with_grid({"sweep"}, {"--out", base_csv})).code, 0);
  const CliResult r = run(with_grid(
      {"sweep"},
      {"--backend",
       "socket:workers=3,bin=" FTSCHED_CLI_PATH ",dir=" + dir_.string(),
       "--out", socket_csv}));
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(read_file(base_csv), read_file(socket_csv))
      << "socket-backend CSV is not byte-identical to the default";
}

TEST_F(CliTest, UngroupedSweepIsUnknownOption) {
  // Every sweep schedules once per (workload, granularity, rep) group; the
  // per-coordinate reference lives in the tests, not behind a flag.
  const CliResult r = run(with_grid({"sweep"}, {"--ungrouped"}));
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown option: --ungrouped"), std::string::npos)
      << r.err;
}

TEST_F(CliTest, SweepRejectsBogusBackendSpecs) {
  const CliResult unknown = run(with_grid({"sweep"}, {"--backend", "warp"}));
  EXPECT_EQ(unknown.code, 1);
  EXPECT_NE(unknown.err.find("unknown sweep backend"), std::string::npos);

  // Never run a bare in-process "socket" here: bin would default to
  // /proc/self/exe — the *test* binary — and the spawned workers would
  // recurse into this very suite.  A bad option rejects before any spawn.
  const CliResult socket =
      run(with_grid({"sweep"}, {"--backend", "socket:retries=1"}));
  EXPECT_EQ(socket.code, 1);
  EXPECT_NE(socket.err.find("does not accept option"), std::string::npos);

  const CliResult badopt =
      run(with_grid({"sweep"}, {"--backend", "inproc:retries=1"}));
  EXPECT_EQ(badopt.code, 1);
  EXPECT_NE(badopt.err.find("does not accept option"), std::string::npos);
}

TEST_F(CliTest, PlanPrintsTheBackendLine) {
  const CliResult r = run(with_grid(
      {"plan"}, {"--backend", "socket:workers=2,bin=" FTSCHED_CLI_PATH}));
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("backend:      sweep-coordinator service with local "
                       "socket workers (workers=2"),
            std::string::npos)
      << r.out;
}

TEST_F(CliTest, ShardChainsNestLikeTheBackendDoes) {
  // 0/3,1/2 must equal shard(0,3).shard(1,2): the odd positions of the
  // stride-3 selection 0,3,...,21 — ids 3,9,15,21 on the 24-instance grid.
  const CliResult r = run(
      with_grid({"plan"}, {"--shard", "0/3,1/2", "--limit", "0"}));
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("[shard 0/3,1/2]"), std::string::npos);
  EXPECT_NE(r.out.find("selected:     4 "), std::string::npos);

  const CliResult bad = run(with_grid({"plan"}, {"--shard", "0/3,,1/2"}));
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("--shard expects i/N"), std::string::npos);
}

// ------------------------------------------------------ hardened file I/O

TEST_F(CliTest, MergeTrimsListItemsAndRejectsAllEmptyLists) {
  std::string shard_list;
  for (int i = 0; i < 2; ++i) {
    const std::string part =
        (dir_ / ("trim" + std::to_string(i) + ".jsonl")).string();
    ASSERT_EQ(
        run(with_grid({"sweep"}, {"--shard", std::to_string(i) + "/2",
                                  "--out", part}))
            .code,
        0);
    if (i) shard_list += " ; ";  // spaces + a trailing ';' below
    shard_list += part;
  }
  const CliResult ok = run({"merge", "--in", shard_list + ";"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("2 shards"), std::string::npos);

  const CliResult empty = run({"merge", "--in", " ; ;"});
  EXPECT_EQ(empty.code, 1);
  EXPECT_NE(empty.err.find("at least one non-empty path"), std::string::npos);
}

TEST_F(CliTest, WriteFailureAfterOpenExitsNonzeroNamingThePath) {
  // /dev/full opens fine and fails on flush with ENOSPC — exactly the
  // failure mode a file.good() check at open time misses.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const CliResult gen = run({"generate", "--family", "chain", "--tasks",
                             "200", "--out", "/dev/full"});
  EXPECT_EQ(gen.code, 1);
  EXPECT_NE(gen.err.find("disk full"), std::string::npos);
  EXPECT_NE(gen.err.find("/dev/full"), std::string::npos);

  const CliResult sweep = run(with_grid({"sweep"}, {"--out", "/dev/full"}));
  EXPECT_EQ(sweep.code, 1);
  EXPECT_NE(sweep.err.find("/dev/full"), std::string::npos);

  const CliResult shard =
      run(with_grid({"sweep"}, {"--shard", "0/3", "--out", "/dev/full"}));
  EXPECT_EQ(shard.code, 1);
  EXPECT_NE(shard.err.find("/dev/full"), std::string::npos);
}

// ------------------------------------------------------------ CSV golden

const char* kSweepCsvGoldenPath =
    FTSCHED_SOURCE_DIR "/tests/golden/sweep_cli.csv";

/// Pins the `sweep` CLI end to end (grid config parsing through CSV
/// rendition).  Every option is passed explicitly so environment
/// overrides cannot leak in.  Regenerate after an intentional change:
///   FTSCHED_UPDATE_GOLDEN=1 ./test_cli --gtest_filter='*SweepCsvGolden*'
TEST_F(CliTest, SweepCsvMatchesCommittedGolden) {
  const std::string csv_file = (dir_ / "golden_run.csv").string();
  const CliResult r = run({"sweep", "--figure", "1", "--granularities",
                           "0.8;1.6", "--graphs", "2", "--procs", "6",
                           "--scenario", "t0;uniform:hi=1", "--seed", "42",
                           "--threads", "2", "--out", csv_file});
  ASSERT_EQ(r.code, 0) << r.err;
  goldentest::expect_matches_golden(kSweepCsvGoldenPath, read_file(csv_file),
                                    "sweep CLI CSV");
}

}  // namespace
}  // namespace ftsched::cli
