#include "ftsched/service/worker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <map>
#include <thread>
#include <vector>

#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/service/protocol.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/net.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

namespace {

/// Blocking receive that keeps the connection alive: every `heartbeat_ms`
/// of silence sends a heartbeat so a parked worker never trips the
/// coordinator's lease timeout.  Returns false when the coordinator went
/// away (clean EOF).
bool recv_with_heartbeat(Socket& sock, std::string& payload,
                         int heartbeat_ms) {
  while (!sock.recv_message(payload, heartbeat_ms)) {
    if (sock.eof()) return false;
    sock.send_message(msg_heartbeat());
  }
  return true;
}

}  // namespace

WorkerReport run_worker(const WorkerOptions& options) {
  WorkerReport report;
  Socket sock = connect_to(options.host, options.port);
  sock.send_message(msg_hello(options.name));

  const std::string where = "coordinator reply to " + options.name;
  std::string payload;
  FTSCHED_REQUIRE(sock.recv_message(payload),
                  where + ": connection closed before the plan arrived");
  ServiceMessage msg = parse_service_message(payload, where);
  if (msg.type == "reject") {
    throw Error("coordinator rejected worker '" + options.name +
                "': " + msg.field("cause"));
  }
  FTSCHED_REQUIRE(msg.type == "plan",
                  where + ": expected plan, got '" + msg.type + "'");

  // Rebuild the plan exactly like the sweep command would from these
  // flags; the ready answer carries *our* grid and numerics fingerprints so
  // a drifted binary or a build that rounds differently is rejected before
  // it can lease anything.
  const FigureConfig config =
      sweep_config_from_args(split_plan_args(msg.field("args")));
  const SweepPlan plan =
      apply_shard_chain(SweepPlan(config), msg.field("shard"));
  sock.send_message(msg_ready(plan.fingerprint(), numerics_fingerprint()));

  // Selected index -> schedule-reuse group, so a lease's coordinates can
  // be bucketed into evaluate_group calls (any ascending subset of one
  // group is valid and bit-identical to per-coordinate evaluation, so any
  // lease shape — group-aligned or not — buckets correctly).
  std::vector<std::size_t> group_of(plan.size(), 0);
  const std::vector<std::vector<std::size_t>> groups = plan.group_selection();
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (const std::size_t k : groups[gi]) group_of[k] = gi;
  }

  // Keep leases alive *while computing*, not just while parked: the
  // coordinator refreshes a worker's leases on any inbound message, but a
  // worker deep in evaluate_group (or throttled by --delay-ms) used to go
  // silent for the whole stretch and trip the lease timeout, so its work
  // was stolen and recomputed even though the worker was healthy.
  const auto heartbeat = [&] { sock.send_message(msg_heartbeat()); };

  const auto throttle = [&] {
    if (options.sample_delay_ms == 0) return;
    // Sleep in heartbeat-period slices with a heartbeat between them, so a
    // straggler delay larger than the coordinator's lease timeout still
    // reads as alive.
    const std::size_t slice =
        static_cast<std::size_t>(std::max(options.heartbeat_ms, 1));
    std::size_t remaining = options.sample_delay_ms;
    while (remaining > 0) {
      const std::size_t step = std::min(remaining, slice);
      std::this_thread::sleep_for(std::chrono::milliseconds(step));
      remaining -= step;
      if (remaining > 0) heartbeat();
    }
  };

  // The connection is one shard stream: each series is declared in the
  // first sample frame that uses it.
  ShardLineWriter lines;
  std::string frame;
  const auto send_sample = [&](std::uint64_t lease, std::size_t k,
                               const SeriesSample& sample) {
    throttle();
    frame = msg_sample_head(lease, k);
    frame += '\n';
    lines.append(frame, plan.coord(k).id, sample);
    sock.send_message(frame);
    ++report.samples_sent;
  };

  std::size_t leases_received = 0;
  std::string buf;
  while (true) {
    sock.send_message(msg_lease_request());
    if (!recv_with_heartbeat(sock, buf, options.heartbeat_ms)) return report;
    msg = parse_service_message(buf, where);
    if (msg.type == "bye") {
      report.orderly = true;
      return report;
    }
    if (msg.type == "reject") {
      throw Error("coordinator rejected worker '" + options.name +
                  "': " + msg.field("cause"));
    }
    FTSCHED_REQUIRE(msg.type == "lease",
                    where + ": expected lease/bye, got '" + msg.type + "'");

    const std::uint64_t lease =
        spec_detail::parse_u64("lease", msg.field("lease"));
    std::vector<std::size_t> ks = parse_index_list(msg.field("ks"), where);
    std::sort(ks.begin(), ks.end());
    ++leases_received;
    if (options.kill_after_leases != 0 &&
        leases_received >= options.kill_after_leases) {
      std::raise(SIGKILL);
    }

    // Bucket the lease by schedule-reuse group; buckets keep ascending
    // member order, so each one is a valid evaluate_group subset.
    std::map<std::size_t, std::vector<std::size_t>> buckets;
    for (const std::size_t k : ks) buckets[group_of[k]].push_back(k);
    for (const auto& [gi, members] : buckets) {
      (void)gi;
      const std::vector<SeriesSample> samples = plan.evaluate_group(members);
      // One heartbeat per completed group bounds the silent stretch to a
      // single evaluate_group call even when samples are throttled.
      heartbeat();
      for (std::size_t i = 0; i < members.size(); ++i) {
        send_sample(lease, members[i], samples[i]);
      }
    }
    sock.send_message(msg_done(lease));
    ++report.leases_completed;
    if (options.max_leases != 0 &&
        report.leases_completed >= options.max_leases) {
      return report;  // abrupt: no goodbye, the coordinator requeues
    }
  }
}

}  // namespace ftsched
