// The sweep coordinator: owns a SweepPlan, leases slices of its selection
// to socket workers (service/protocol.hpp), and delivers the merged
// samples to a SweepSink exactly like run_plan would — serially, in
// increasing full-grid-id order, bit-identical doubles — regardless of
// worker count, worker deaths, steal order, or resume history.
//
// Fault tolerance (dogfooding the paper's philosophy on our own infra):
//   * a worker that disconnects or goes silent past the timeout loses its
//     leases; their unfinished coordinates are re-queued for other workers;
//   * an idle worker with nothing queued *steals* work from the most-laden
//     active lease: its trailing whole groups, up to half its unfinished
//     coordinates, so one straggler cannot stall the sweep's tail;
//   * duplicate results (the victim of a steal finishing anyway, or an
//     expired worker resurfacing) are resolved first-arrival — safe, since
//     every correct worker produces bit-identical samples;
//   * a worker whose rebuilt plan fingerprint or numerics fingerprint
//     differs is rejected before it can lease anything, so neither a
//     drifted binary nor a build that rounds differently contributes.
//
// Leases are group-aligned: a lease is a run of whole schedule-reuse
// groups (SweepPlan::group_selection), so a worker runs each (workload,
// granularity, rep) group's schedule phase once, not once per cell.
//
// Resumability: with a manifest directory configured, the coordinator
// journals each completed fixed group-aligned chunk of the selection (the
// chunks a fresh run leases) as an ordinary shard file
// (experiments/sweep_io.hpp) under a (fingerprint, shard)-keyed
// subdirectory, written atomically (tmp + rename).  A restarted
// coordinator loads the manifest, delivers the resumed prefix, and leases
// only the missing coordinates — a killed sweep loses at most the
// unjournaled units.
//
// Threading: none.  The coordinator is a single-threaded poll loop; call
// poll() (one event-loop turn) or run() from one thread.  Workers live in
// other processes (or test threads) and talk through sockets only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/service/protocol.hpp"
#include "ftsched/util/net.hpp"

namespace ftsched {

struct CoordinatorOptions {
  /// Listening port on 127.0.0.1 (0 = kernel-chosen; see port()).
  std::uint16_t port = 0;
  /// Minimum coordinates per lease (0 = auto: selection/32, clamped to
  /// [1, 64]).  A lease takes whole groups and closes at the first group
  /// boundary once it holds this many, so it can be up to one group
  /// larger.  The same group-aligned chunks are the manifest journaling
  /// units.
  std::size_t lease = 0;
  /// Seconds of silence (no sample/done/heartbeat) before an active lease
  /// expires and its unfinished coordinates are re-queued.
  double timeout = 30.0;
  /// Manifest root for resumable sweeps ("" = no journaling, no resume).
  std::string manifest_dir;
};

/// Observable counters, primarily for tests and the serve command's
/// summary line.
struct CoordinatorStats {
  std::size_t workers_joined = 0;      ///< hello frames accepted
  std::size_t workers_rejected = 0;    ///< fingerprint/protocol rejects
  std::size_t leases_granted = 0;      ///< includes stolen re-grants
  std::size_t coords_leased = 0;       ///< coordinates over all grants
  std::size_t leases_requeued = 0;     ///< expiry + disconnect requeues
  std::size_t leases_stolen = 0;       ///< grants carved from a straggler
  std::size_t leases_expired = 0;      ///< silent past the timeout
  std::size_t duplicate_samples = 0;   ///< re-computed coords, dropped
  std::size_t coords_resumed = 0;      ///< restored from the manifest
  std::size_t manifest_units_written = 0;
};

class Coordinator {
 public:
  /// Binds the listener, loads the manifest (when configured) and delivers
  /// any resumed order-prefix to `sink` immediately.  `plan` and `sink`
  /// must outlive the coordinator.  Throws Error/InvalidArgument on bind
  /// or manifest failures.
  Coordinator(const SweepPlan& plan, SweepSink& sink,
              CoordinatorOptions options = {});
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound listening port.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// True once every selected coordinate has been delivered to the sink.
  /// poll() remains callable — it answers residual lease requests with
  /// bye so workers wind down cleanly.
  [[nodiscard]] bool finished() const noexcept;

  /// One event-loop turn: accept joiners, pump connections, expire silent
  /// leases, grant/steal/park lease requests, deliver the completed
  /// order-prefix, journal completed manifest units.  Waits up to
  /// `timeout_ms` for activity (0 = non-blocking).  Per-connection
  /// protocol violations drop that worker (its leases re-queue); they do
  /// not throw.
  void poll(int timeout_ms);

  /// poll(tick_ms) until finished().
  void run(int tick_ms = 200);

  /// Live worker connections.  After finished(), keep polling until this
  /// drains so every worker receives its bye instead of a reset socket.
  [[nodiscard]] std::size_t connections() const noexcept;

  [[nodiscard]] const CoordinatorStats& stats() const noexcept;

  /// Human-readable cause of the most recent worker disconnect or reject
  /// ("worker-2 (conn 3): rejected: grid fingerprint mismatch ..."); empty
  /// when none.  The socket backend folds this into SweepBackendError next
  /// to the dead worker's stderr tail.
  [[nodiscard]] const std::string& last_disconnect_cause() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The manifest subdirectory a coordinator over `plan` journals into:
/// `<manifest_dir>/<fnv1a64(fingerprint | shard)>` — keyed by the grid
/// identity *and* the shard chain, since two shards of one grid share the
/// fingerprint but select different coordinates.  Exposed for tests and
/// tooling (e.g. cleaning a sweep's cache).
[[nodiscard]] std::string manifest_subdir(const std::string& manifest_dir,
                                          const SweepPlan& plan);

}  // namespace ftsched
