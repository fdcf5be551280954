// Tests of the sweep coordinator service (service/coordinator.hpp,
// service/worker.hpp, service/protocol.hpp) and the socket backend on top
// of it.
//
// The load-bearing property is the bit-identity oracle: however the grid
// is leased out — one worker or three, workers dying mid-lease, straggler
// leases stolen, runs resumed from a manifest — the sink sees exactly the
// samples an in-process run_plan delivers, in the same order, bit for bit.
// Fault injection uses the worker options' hooks (max_leases,
// kill_after_leases, sample_delay_ms) for in-process workers and wrapper
// shell scripts around the real CLI binary (FTSCHED_CLI_PATH) for worker
// processes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/figures.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/service/coordinator.hpp"
#include "ftsched/service/protocol.hpp"
#include "ftsched/service/worker.hpp"
#include "ftsched/util/net.hpp"
#include "ftsched/util/subprocess.hpp"

namespace ftsched {
namespace {

std::string cli_path() { return FTSCHED_CLI_PATH; }

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

/// Records every delivered sample for exact comparison.
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

RecordSink inproc_reference(const SweepPlan& plan) {
  RecordSink sink;
  run_plan(plan, sink);
  return sink;
}

/// Runs a coordinator over `plan` with the given in-process worker threads
/// until every sample is delivered and all workers exited.
CoordinatorStats run_service(const SweepPlan& plan, SweepSink& sink,
                             CoordinatorOptions copts,
                             std::vector<WorkerOptions> workers) {
  Coordinator coordinator(plan, sink, copts);
  std::atomic<std::size_t> running{workers.size()};
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (const WorkerOptions& base : workers) {
    threads.emplace_back([&, base] {
      WorkerOptions w = base;
      w.port = coordinator.port();
      try {
        (void)run_worker(w);
      } catch (...) {
        // A worker death is the coordinator's problem, not the test's.
      }
      running.fetch_sub(1);
    });
  }
  coordinator.run(50);
  while (running.load() != 0) coordinator.poll(20);
  for (std::thread& t : threads) t.join();
  return coordinator.stats();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ftsched_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Writes an executable wrapper script and returns its path.
  [[nodiscard]] std::string write_script(const std::string& name,
                                         const std::string& body) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << "#!/bin/sh\n" << body;
    out.close();
    ::chmod(path.c_str(), 0755);
    return path;
  }

  std::filesystem::path dir_;
};

// ------------------------------------------------------- loopback identity

TEST_F(ServiceTest, LoopbackEquivalentToInprocForAnyWorkerCount) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}}) {
    RecordSink sink;
    std::vector<WorkerOptions> workers(count);
    for (std::size_t i = 0; i < count; ++i) {
      workers[i].name = "w" + std::to_string(i);
    }
    const CoordinatorStats stats = run_service(plan, sink, {}, workers);
    EXPECT_EQ(stats.workers_joined, count);
    EXPECT_EQ(sink.ids, expect.ids) << count << " workers";
    EXPECT_EQ(sink.samples, expect.samples) << count << " workers";
  }
}

TEST_F(ServiceTest, LoopbackCsvIsByteIdenticalToInproc) {
  const SweepPlan plan(small_config());
  OnlineStatsSink inproc(plan);
  run_plan(plan, inproc);
  const std::string want = sweep_to_csv(inproc.take());

  OnlineStatsSink sink(plan);
  (void)run_service(plan, sink, {}, {WorkerOptions{}, WorkerOptions{}});
  EXPECT_EQ(sweep_to_csv(sink.take()), want);
}

TEST_F(ServiceTest, ShardedPlanServesOnlyItsSlice) {
  // shard(1, 3) keeps partial groups of uneven sizes, and lease=3 closes
  // its group-aligned leases mid-way through the 2-member groups.
  const SweepPlan full(small_config());
  for (const auto& [shard, lease] :
       {std::pair{full.shard(1, 2), std::size_t{0}},
        std::pair{full.shard(1, 3), std::size_t{3}}}) {
    const RecordSink expect = inproc_reference(shard);
    CoordinatorOptions copts;
    copts.lease = lease;
    RecordSink sink;
    (void)run_service(shard, sink, copts, {WorkerOptions{}, WorkerOptions{}});
    EXPECT_EQ(sink.ids, expect.ids) << shard.shard_label();
    EXPECT_EQ(sink.samples, expect.samples) << shard.shard_label();
  }
}

// --------------------------------------------------- faults and stealing

/// Drives one raw protocol exchange: polls the coordinator until the next
/// frame for `sock` arrives (both live in this thread).
bool pump_recv(Coordinator& coordinator, Socket& sock, std::string& payload,
               int rounds = 2000) {
  for (int i = 0; i < rounds; ++i) {
    coordinator.poll(0);
    if (sock.recv_message(payload, 5)) return true;
    if (sock.eof()) return false;
  }
  return false;
}

/// Joins as a raw client and acquires one lease, leaving the connection in
/// the given state afterwards.  Returns the socket (still holding the
/// lease); the leased selected indices go to `ks` when it is non-null.
Socket acquire_lease(Coordinator& coordinator, const SweepPlan& plan,
                     std::uint16_t port,
                     std::vector<std::size_t>* ks = nullptr) {
  Socket sock = connect_to("127.0.0.1", port);
  sock.send_message(msg_hello("raw"));
  std::string payload;
  EXPECT_TRUE(pump_recv(coordinator, sock, payload));
  EXPECT_EQ(parse_service_message(payload, "raw").type, "plan");
  sock.send_message(msg_ready(plan.fingerprint(), numerics_fingerprint()));
  sock.send_message(msg_lease_request());
  EXPECT_TRUE(pump_recv(coordinator, sock, payload));
  const ServiceMessage lease = parse_service_message(payload, "raw");
  EXPECT_EQ(lease.type, "lease");
  if (ks != nullptr) *ks = parse_index_list(lease.field("ks"), "raw");
  return sock;
}

TEST_F(ServiceTest, LeasesAreWholeGroups) {
  // A lease must hold whole schedule-reuse groups so the worker runs each
  // group's schedule phase once; lease=3 is not a multiple of the 2-member
  // groups, so the lease closes at the next group boundary.
  const SweepPlan plan(small_config());
  RecordSink sink;
  CoordinatorOptions copts;
  copts.lease = 3;
  Coordinator coordinator(plan, sink, copts);
  std::vector<std::size_t> ks;
  const Socket sock = acquire_lease(coordinator, plan, coordinator.port(), &ks);
  EXPECT_GE(ks.size(), 3u);
  std::size_t covered = 0;
  for (const std::vector<std::size_t>& group : plan.group_selection()) {
    std::size_t in_lease = 0;
    for (const std::size_t k : group) {
      in_lease += std::count(ks.begin(), ks.end(), k);
    }
    EXPECT_TRUE(in_lease == 0 || in_lease == group.size())
        << "group of " << group.front() << " split by the lease";
    covered += in_lease;
  }
  EXPECT_EQ(covered, ks.size());
}

TEST_F(ServiceTest, StealTakesTrailingWholeGroups) {
  // Two raw clients hold the only two leases (4 groups each) without
  // computing; a third steals from the first.  It must get the first
  // lease's trailing whole groups — half its work — so neither side
  // repeats the other's schedule phase.
  const SweepPlan plan(small_config());
  RecordSink sink;
  CoordinatorOptions copts;
  copts.lease = 8;
  Coordinator coordinator(plan, sink, copts);
  std::vector<std::size_t> first;
  std::vector<std::size_t> stolen;
  const Socket a = acquire_lease(coordinator, plan, coordinator.port(), &first);
  const Socket b = acquire_lease(coordinator, plan, coordinator.port());
  const Socket c =
      acquire_lease(coordinator, plan, coordinator.port(), &stolen);
  EXPECT_EQ(coordinator.stats().leases_stolen, 1u);
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(stolen.size(), 4u);
  EXPECT_TRUE(std::equal(stolen.begin(), stolen.end(), first.end() - 4));
  for (const std::vector<std::size_t>& group : plan.group_selection()) {
    std::size_t in_steal = 0;
    for (const std::size_t k : group) {
      in_steal += std::count(stolen.begin(), stolen.end(), k);
    }
    EXPECT_TRUE(in_steal == 0 || in_steal == group.size())
        << "group of " << group.front() << " split by the steal";
  }
}

TEST_F(ServiceTest, DisconnectedWorkersLeaseIsRequeued) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  RecordSink sink;
  CoordinatorOptions copts;
  copts.lease = 4;
  Coordinator coordinator(plan, sink, copts);
  {
    Socket sock = acquire_lease(coordinator, plan, coordinator.port());
    // Scope exit closes the socket: 4 leased coordinates die with it.
  }
  std::atomic<bool> done{false};
  std::thread worker([&] {
    WorkerOptions w;
    w.port = coordinator.port();
    (void)run_worker(w);
    done.store(true);
  });
  coordinator.run(50);
  while (!done.load()) coordinator.poll(20);
  worker.join();
  EXPECT_GE(coordinator.stats().leases_requeued, 1u);
  EXPECT_FALSE(coordinator.last_disconnect_cause().empty());
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, SilentWorkersLeaseExpiresAndIsRequeued) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  RecordSink sink;
  CoordinatorOptions copts;
  copts.lease = 4;
  copts.timeout = 0.3;
  Coordinator coordinator(plan, sink, copts);
  // Holds a lease and goes silent — never computes, never heartbeats.
  Socket silent = acquire_lease(coordinator, plan, coordinator.port());
  std::atomic<bool> done{false};
  std::thread worker([&] {
    WorkerOptions w;
    w.heartbeat_ms = 50;
    w.port = coordinator.port();
    (void)run_worker(w);
    done.store(true);
  });
  coordinator.run(50);
  while (!done.load()) coordinator.poll(20);
  worker.join();
  EXPECT_GE(coordinator.stats().leases_expired, 1u);
  EXPECT_GE(coordinator.stats().leases_requeued, 1u);
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, IdleWorkerStealsFromStraggler) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  RecordSink sink;
  CoordinatorOptions copts;
  copts.lease = 8;  // two big leases, so the straggler's can be split
  WorkerOptions slow;
  slow.name = "slow";
  slow.sample_delay_ms = 100;
  WorkerOptions fast;
  fast.name = "fast";
  const CoordinatorStats stats =
      run_service(plan, sink, copts, {slow, fast});
  EXPECT_GE(stats.leases_stolen, 1u);
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, StragglerDelayBeyondLeaseTimeoutNeverExpires) {
  // Regression: heartbeats used to flow only while a worker was parked
  // between leases, so a straggler whose per-sample delay exceeded the
  // coordinator's timeout always read as dead mid-lease and had its work
  // stolen and recomputed.  The worker now heartbeats through throttled
  // samples (and after each completed evaluation group), so a slow-but-
  // alive worker completes its lease with zero expiries — and the stream
  // stays bit-identical to the in-process run.
  FigureConfig config = small_config();
  config.workloads = {"paper"};
  config.scenarios = {"t0"};
  config.granularities = {1.0};  // 2 instances total
  const SweepPlan plan(config);
  const RecordSink expect = inproc_reference(plan);
  CoordinatorOptions copts;
  copts.timeout = 0.4;
  WorkerOptions slow;
  slow.name = "throttled";
  slow.sample_delay_ms = 1200;  // 3x the lease timeout, per sample
  slow.heartbeat_ms = 50;
  RecordSink sink;
  const CoordinatorStats stats = run_service(plan, sink, copts, {slow});
  EXPECT_EQ(stats.leases_expired, 0u);
  EXPECT_EQ(stats.leases_requeued, 0u);
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, DriftedFingerprintIsRejected) {
  const SweepPlan plan(small_config());
  RecordSink sink;
  Coordinator coordinator(plan, sink, {});
  Socket sock = connect_to("127.0.0.1", coordinator.port());
  sock.send_message(msg_hello("drifted"));
  std::string payload;
  ASSERT_TRUE(pump_recv(coordinator, sock, payload));
  ASSERT_EQ(parse_service_message(payload, "raw").type, "plan");
  sock.send_message(
      msg_ready("v1 something-else-entirely", numerics_fingerprint()));
  ASSERT_TRUE(pump_recv(coordinator, sock, payload));
  const ServiceMessage reject = parse_service_message(payload, "raw");
  EXPECT_EQ(reject.type, "reject");
  EXPECT_NE(reject.field("cause").find("fingerprint"), std::string::npos);
  EXPECT_EQ(coordinator.stats().workers_rejected, 1u);
  // The rejected worker never leases anything.
  EXPECT_EQ(coordinator.stats().leases_granted, 0u);
}

TEST_F(ServiceTest, NumericsFingerprintMismatchIsRejectedNamingTheWorker) {
  // Same grid, different bits: a worker built with FMA contraction (or
  // another libm) reports another numerics digest and must not lease.
  const SweepPlan plan(small_config());
  RecordSink sink;
  Coordinator coordinator(plan, sink, {});
  Socket sock = connect_to("127.0.0.1", coordinator.port());
  sock.send_message(msg_hello("fma-build"));
  std::string payload;
  ASSERT_TRUE(pump_recv(coordinator, sock, payload));
  ASSERT_EQ(parse_service_message(payload, "raw").type, "plan");
  sock.send_message(msg_ready(plan.fingerprint(), "0123456789abcdef"));
  ASSERT_TRUE(pump_recv(coordinator, sock, payload));
  const ServiceMessage reject = parse_service_message(payload, "raw");
  EXPECT_EQ(reject.type, "reject");
  const std::string cause = reject.field("cause");
  EXPECT_NE(cause.find("numerics fingerprint mismatch"), std::string::npos)
      << cause;
  EXPECT_NE(cause.find("fma-build"), std::string::npos) << cause;
  EXPECT_NE(cause.find("0123456789abcdef"), std::string::npos) << cause;
  EXPECT_EQ(coordinator.stats().workers_rejected, 1u);
  EXPECT_EQ(coordinator.stats().leases_granted, 0u);
  for (int i = 0; i < 50 && coordinator.connections() != 0; ++i) {
    coordinator.poll(5);
  }
  EXPECT_NE(coordinator.last_disconnect_cause().find("fma-build"),
            std::string::npos)
      << coordinator.last_disconnect_cause();
}

TEST_F(ServiceTest, SampleFramesAreCheckedAgainstTheirDictionary) {
  // A sample frame must declare its series before use, carry one record
  // and name the frame's instance; anything else drops the worker.
  const SweepPlan plan(small_config());
  struct Case {
    const char* what;
    std::string lines;  ///< after the head line
    std::string cause;
  };
  const std::string id = std::to_string(plan.coord(0).id);
  const std::string other = std::to_string(plan.coord(1).id);
  for (const Case& c : std::vector<Case>{
           {"undeclared sid", id + " 0:1p+0", "undeclared series id 0"},
           {"sid declared twice", "s 0 A\ns 0 B\n" + id + " 0:1p+0",
            "declared twice"},
           {"duplicate sid", "s 0 A\n" + id + " 0:1p+0 0:1p+1",
            "repeated in one record"},
           {"wrong instance", "s 0 A\n" + other + " 0:1p+0",
            "must carry one record of instance " + id},
           {"two records", "s 0 A\n" + id + " 0:1p+0\n" + id + " 0:1p+0",
            "must carry one record"}}) {
    SCOPED_TRACE(c.what);
    RecordSink sink;
    Coordinator coordinator(plan, sink, {});
    std::vector<std::size_t> ks;
    Socket sock = acquire_lease(coordinator, plan, coordinator.port(), &ks);
    ASSERT_FALSE(ks.empty());
    sock.send_message(msg_sample_head(1, 0) + "\n" + c.lines);
    std::string payload;
    ASSERT_TRUE(pump_recv(coordinator, sock, payload));
    const ServiceMessage reject = parse_service_message(payload, "raw");
    EXPECT_EQ(reject.type, "reject");
    EXPECT_NE(reject.field("cause").find(c.cause), std::string::npos)
        << reject.field("cause");
  }
}

// ------------------------------------------------------------------ resume

TEST_F(ServiceTest, ResumeFromManifestRunsOnlyMissingShards) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  const std::string manifest = (dir_ / "manifest").string();
  CoordinatorOptions copts;
  copts.lease = 4;
  copts.manifest_dir = manifest;

  std::size_t units_written = 0;
  {
    // Partial run: the only worker quits after one lease (4 coordinates),
    // so exactly one manifest unit can be journaled; the coordinator is
    // then destroyed mid-sweep.
    RecordSink partial;
    Coordinator coordinator(plan, partial, copts);
    std::atomic<bool> done{false};
    std::thread worker([&] {
      WorkerOptions w;
      w.port = coordinator.port();
      w.max_leases = 1;
      (void)run_worker(w);
      done.store(true);
    });
    while (!done.load()) coordinator.poll(20);
    worker.join();
    // The worker thread finishing does not mean its last frames were read;
    // its EOF follows them, so wait for the connection to drop.
    while (coordinator.connections() != 0) coordinator.poll(20);
    units_written = coordinator.stats().manifest_units_written;
    EXPECT_GE(units_written, 1u);
    EXPECT_FALSE(coordinator.finished());
  }

  // The restarted coordinator resumes the journaled units and leases only
  // the rest; the delivered stream is still the full plan, bit-identical.
  RecordSink sink;
  Coordinator coordinator(plan, sink, copts);
  EXPECT_EQ(coordinator.stats().coords_resumed, units_written * 4);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    WorkerOptions w;
    w.port = coordinator.port();
    (void)run_worker(w);
    done.store(true);
  });
  coordinator.run(50);
  while (!done.load()) coordinator.poll(20);
  worker.join();
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
  // The resumed coordinates were never re-leased.
  EXPECT_EQ(coordinator.stats().coords_leased,
            plan.size() - coordinator.stats().coords_resumed);
}

/// Distinct coordinates journaled across every unit file of a manifest.
std::size_t journaled_coords(const std::string& subdir) {
  std::set<std::uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(subdir)) {
    if (entry.path().extension() != ".jsonl") continue;
    const ShardFile file = read_shard_file(entry.path().string());
    for (const ShardSample& sample : file.samples) ids.insert(sample.id);
  }
  return ids.size();
}

TEST_F(ServiceTest, ManifestResumesUnderADifferentLeaseSize) {
  // Loading is partition-agnostic: units journaled with lease=4 resume
  // under lease=6, whose units straddle the old ones.
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  CoordinatorOptions copts;
  copts.lease = 4;
  copts.manifest_dir = (dir_ / "manifest").string();
  {
    // The only worker quits after two leases: two lease=4 units.
    RecordSink partial;
    Coordinator coordinator(plan, partial, copts);
    std::atomic<bool> done{false};
    std::thread worker([&] {
      WorkerOptions w;
      w.port = coordinator.port();
      w.max_leases = 2;
      (void)run_worker(w);
      done.store(true);
    });
    while (!done.load()) coordinator.poll(20);
    worker.join();
    while (coordinator.connections() != 0) coordinator.poll(20);
    EXPECT_EQ(coordinator.stats().manifest_units_written, 2u);
    EXPECT_FALSE(coordinator.finished());
  }
  const std::size_t journaled =
      journaled_coords(manifest_subdir(copts.manifest_dir, plan));
  EXPECT_EQ(journaled, 8u);

  copts.lease = 6;
  RecordSink sink;
  Coordinator coordinator(plan, sink, copts);
  EXPECT_EQ(coordinator.stats().coords_resumed, journaled);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    WorkerOptions w;
    w.port = coordinator.port();
    (void)run_worker(w);
    done.store(true);
  });
  coordinator.run(50);
  while (!done.load()) coordinator.poll(20);
  worker.join();
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
  EXPECT_EQ(coordinator.stats().coords_leased, plan.size() - journaled);
}

TEST_F(ServiceTest, FullyJournaledManifestFinishesWithoutWorkers) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  CoordinatorOptions copts;
  copts.manifest_dir = (dir_ / "manifest").string();
  {
    RecordSink first;
    (void)run_service(plan, first, copts, {WorkerOptions{}});
  }
  RecordSink sink;
  Coordinator coordinator(plan, sink, copts);
  EXPECT_TRUE(coordinator.finished());
  EXPECT_EQ(coordinator.stats().coords_resumed, plan.size());
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, ManifestSubdirIsKeyedByShardAndFingerprint) {
  const SweepPlan plan(small_config());
  const std::string root = (dir_ / "manifest").string();
  const std::string full = manifest_subdir(root, plan);
  const std::string shard = manifest_subdir(root, plan.shard(0, 2));
  EXPECT_NE(full, shard);
  FigureConfig other = small_config();
  other.seed = 14;
  EXPECT_NE(manifest_subdir(root, SweepPlan(other)), full);
}

// -------------------------------------------------------- worker processes

TEST_F(ServiceTest, SocketBackendMatchesInprocWithRealWorkers) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  const SweepBackendPtr backend = make_sweep_backend(
      "socket:workers=2",
      {{"bin", cli_path()}, {"dir", dir_.string()}});
  RecordSink sink;
  backend->run(plan, sink);
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);

  // The JSONL shard protocol (what `sweep --shard` writes) is byte-identical
  // too, so a socket run can stand in for any shard of a merge.
  const auto jsonl_via = [&](const SweepBackend& b) {
    std::ostringstream os;
    ShardWriterSink writer(os, plan);
    b.run(plan, writer);
    return os.str();
  };
  const std::string want = jsonl_via(*make_sweep_backend("inproc"));
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(jsonl_via(*backend), want);
}

TEST_F(ServiceTest, SigkilledWorkerProcessIsToleratedBitIdentically) {
  const SweepPlan plan(small_config());
  const RecordSink expect = inproc_reference(plan);
  // Exactly one of the two spawned workers (noclobber marker) SIGKILLs
  // itself upon its first lease; the survivor re-runs the lost coords.
  const std::string script = write_script(
      "kill_first.sh",
      "if ( set -C; : > \"" + (dir_ / "marker").string() +
          "\" ) 2>/dev/null; then\n"
          "  exec \"" + cli_path() + "\" \"$@\" --kill-after-leases 1\n"
          "fi\n"
          "exec \"" + cli_path() + "\" \"$@\"\n");
  const SweepBackendPtr backend = make_sweep_backend(
      "socket:workers=2,lease=4",
      {{"bin", script}, {"dir", dir_.string()}});
  RecordSink sink;
  backend->run(plan, sink);
  EXPECT_EQ(sink.ids, expect.ids);
  EXPECT_EQ(sink.samples, expect.samples);
}

TEST_F(ServiceTest, AllWorkersDeadSurfacesTheCause) {
  const std::string script = write_script(
      "always_fail.sh", "echo 'worker exploded' >&2\nexit 3\n");
  const SweepBackendPtr backend = make_sweep_backend(
      "socket:workers=2", {{"bin", script}, {"dir", dir_.string()}});
  const SweepPlan plan(small_config());
  RecordSink sink;
  try {
    backend->run(plan, sink);
    FAIL() << "a dead fleet must not complete the sweep";
  } catch (const SweepBackendError& e) {
    EXPECT_EQ(e.backend(), "socket");
    EXPECT_NE(e.cause().find("all socket workers died"), std::string::npos);
    // The error carries the dead worker's stderr.
    EXPECT_NE(e.cause().find("child stderr: worker exploded"),
              std::string::npos)
        << e.cause();
  }
}

TEST_F(ServiceTest, MissingWorkerBinarySurfacesExecFailure) {
  const SweepBackendPtr backend = make_sweep_backend(
      "socket:workers=1",
      {{"bin", (dir_ / "no_such_cli").string()}, {"dir", dir_.string()}});
  const SweepPlan plan(small_config());
  RecordSink sink;
  try {
    backend->run(plan, sink);
    FAIL() << "a missing binary must not produce a result";
  } catch (const SweepBackendError& e) {
    EXPECT_NE(e.cause().find("could not execute"), std::string::npos)
        << e.cause();
  }
}

TEST_F(ServiceTest, UnrepresentableConfigFailsFastOnFingerprint) {
  // A programmatic tweak the CLI flag grammar cannot express: every worker
  // rebuilds the default paper workload, its fingerprint disagrees, and the
  // coordinator rejects it before leasing anything.  The run must fail at
  // once, not wait out a lease timeout, and the cause must name the
  // mismatch — the worker's stderr tail alone is too short to carry it.
  FigureConfig config = small_config();
  config.workloads.clear();  // paper-configured cell => params are identity
  config.scenarios.clear();
  config.workload.task_min = 17;
  const SweepPlan plan(config);
  const SweepBackendPtr backend = make_sweep_backend(
      "socket:workers=2", {{"bin", cli_path()}, {"dir", dir_.string()}});
  RecordSink sink;
  const auto start = std::chrono::steady_clock::now();
  try {
    backend->run(plan, sink);
    FAIL() << "a fingerprint mismatch must not produce a result";
  } catch (const SweepBackendError& e) {
    EXPECT_EQ(e.backend(), "socket");
    EXPECT_NE(e.cause().find("fingerprint mismatch"), std::string::npos)
        << e.cause();
  }
  // Well inside the 30 s default lease timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_TRUE(sink.ids.empty());
}

}  // namespace
}  // namespace ftsched
