// Tests of the pluggable sweep execution backends (experiments/backend.hpp)
// and the POSIX child-process helper the socket backend spawns workers
// through.
//
// The load-bearing property is backend equivalence: the sink sees the same
// samples in the same order, bit-identical, so CSV and JSONL output never
// depend on the backend choice.  The socket backend's worker processes
// (equivalence, worker deaths, fingerprint rejects) are tested in
// test_service; the real CLI binary's path comes from CMake as
// FTSCHED_CLI_PATH.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/util/subprocess.hpp"

namespace ftsched {
namespace {

/// Small but fully multi-cell grid: 2 workloads x 2 scenarios x 2
/// granularities x 2 reps = 16 instances.
FigureConfig small_config() {
  FigureConfig config = figure_config(1);
  config.graphs_per_point = 2;
  config.granularities = {0.6, 1.4};
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 13;
  config.threads = 1;
  config.workloads = {"paper", "chain:size=10"};
  config.scenarios = {"t0", "frac:f=0.5"};
  return config;
}

/// Records every delivered sample for exact (bitwise) comparison.
class RecordSink final : public SweepSink {
 public:
  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override {
    ids.push_back(coord.id);
    samples.push_back(sample);
  }

  std::vector<std::uint64_t> ids;
  std::vector<SeriesSample> samples;
};

RecordSink record(const SweepBackend& backend, const SweepPlan& plan) {
  RecordSink sink;
  backend.run(plan, sink);
  return sink;
}

std::string jsonl_via(const SweepBackend& backend, const SweepPlan& plan) {
  std::ostringstream os;
  ShardWriterSink sink(os, plan);
  backend.run(plan, sink);
  return os.str();
}

std::string cli_path() { return FTSCHED_CLI_PATH; }

/// Temp dir per test, removed afterwards.
class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ftsched_backend_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// ------------------------------------------------------------- registry

TEST_F(BackendTest, RegistryListsAllBackends) {
  const std::vector<std::string> names = SweepBackendRegistry::global().names();
  EXPECT_EQ(names, (std::vector<std::string>{"inproc", "socket"}));
  // The retired fork/exec shard backend is an unknown spec now, and the
  // error lists what is available instead.
  try {
    (void)make_sweep_backend("subprocess", {{"bin", cli_path()}});
    FAIL() << "subprocess is no longer a backend";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("inproc"), std::string::npos) << what;
    EXPECT_NE(what.find("socket"), std::string::npos) << what;
  }
}

TEST_F(BackendTest, UnknownBackendAndOptionFailLoudly) {
  EXPECT_THROW((void)make_sweep_backend("teleport"), InvalidArgument);
  try {
    (void)make_sweep_backend("teleport");
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("inproc"), std::string::npos);
  }
  EXPECT_THROW((void)make_sweep_backend("inproc:workers=2"), InvalidArgument);
}

TEST_F(BackendTest, SocketBackendNeedsABinary) {
  ::unsetenv("FTSCHED_CLI");
  try {
    (void)make_sweep_backend("socket");
    FAIL() << "socket without bin should not construct";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bin="), std::string::npos);
  }
  // The FTSCHED_CLI environment fallback and the defaults seam both work.
  ::setenv("FTSCHED_CLI", cli_path().c_str(), 1);
  EXPECT_NE(make_sweep_backend("socket"), nullptr);
  ::unsetenv("FTSCHED_CLI");
  // With a binary it constructs and describes itself.
  const SweepBackendPtr backend =
      make_sweep_backend("socket:workers=2,lease=3", {{"bin", cli_path()}});
  EXPECT_NE(backend->describe().find("workers=2"), std::string::npos);
}

// ------------------------------------------------ child-process primitives

TEST_F(BackendTest, ChildProcessReportsExitsSignalsAndExecFailures) {
  ChildProcess ok = ChildProcess::spawn({"/bin/sh", "-c", "exit 5"}, "", "");
  const ChildOutcome exit5 = ok.wait();
  EXPECT_TRUE(exit5.exited);
  EXPECT_EQ(exit5.exit_code, 5);
  EXPECT_NE(exit5.describe().find("status 5"), std::string::npos);

  ChildProcess killed =
      ChildProcess::spawn({"/bin/sh", "-c", "kill -9 $$"}, "", "");
  const ChildOutcome sig = killed.wait();
  EXPECT_FALSE(sig.exited);
  EXPECT_EQ(sig.signal_number, 9);
  EXPECT_NE(sig.describe().find("signal 9"), std::string::npos);

  const std::string err_file = (dir_ / "exec.err").string();
  ChildProcess missing =
      ChildProcess::spawn({(dir_ / "no_such_binary").string()}, "", err_file);
  const ChildOutcome exec_fail = missing.wait();
  EXPECT_TRUE(exec_fail.exited);
  EXPECT_EQ(exec_fail.exit_code, 127);
  EXPECT_NE(exec_fail.describe().find("could not execute"), std::string::npos);
  std::ifstream err(err_file);
  std::stringstream ss;
  ss << err.rdbuf();
  EXPECT_NE(ss.str().find("exec failed"), std::string::npos);
}

TEST_F(BackendTest, SelfExecutablePathPointsAtTheTestBinary) {
  const std::string self = self_executable_path();
  ASSERT_FALSE(self.empty());
  EXPECT_NE(self.find("test_backend"), std::string::npos);
}

// --------------------------------------------------------- equivalence

TEST_F(BackendTest, InprocBackendMatchesRunPlanExactly) {
  const SweepPlan plan(small_config());
  RecordSink direct;
  run_plan(plan, direct);

  for (const char* spec : {"inproc", "inproc:threads=2"}) {
    const SweepBackendPtr backend = make_sweep_backend(spec);
    const RecordSink via = record(*backend, plan);
    EXPECT_EQ(via.ids, direct.ids) << spec;
    EXPECT_EQ(via.samples, direct.samples) << spec;
  }
}

// ------------------------------------------------------------ shard I/O

TEST_F(BackendTest, ReadShardAcceptsCrlfLineEndings) {
  const SweepPlan plan(small_config());
  const std::string jsonl = jsonl_via(*make_sweep_backend("inproc"), plan);
  ASSERT_FALSE(jsonl.empty());

  std::string crlf;
  crlf.reserve(jsonl.size() + 64);
  for (const char c : jsonl) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream unix_in(jsonl);
  std::istringstream dos_in(crlf);
  const ShardFile a = read_shard(unix_in, "unix");
  const ShardFile b = read_shard(dos_in, "dos");
  EXPECT_EQ(a.header.fingerprint(), b.header.fingerprint());
  EXPECT_EQ(a.series, b.series);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].id, b.samples[i].id);
    EXPECT_EQ(a.samples[i].values, b.samples[i].values);
  }
}

}  // namespace
}  // namespace ftsched
