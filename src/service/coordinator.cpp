#include "ftsched/service/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <unordered_map>

#include "ftsched/experiments/backend.hpp"
#include "ftsched/experiments/sweep_io.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/log.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Atomic small-file write: tmp + rename, so a killed coordinator never
/// leaves a torn unit for the next resume to trip over.
void write_file_atomic(const std::filesystem::path& path,
                       const std::string& text) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FTSCHED_REQUIRE(out.good(), "cannot create manifest file: " + tmp.string());
    out << text;
    out.flush();
    FTSCHED_REQUIRE(out.good(), "cannot write manifest file: " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  FTSCHED_REQUIRE(!ec, "cannot finalise manifest file " + path.string() +
                           ": " + ec.message());
}

}  // namespace

std::string manifest_subdir(const std::string& manifest_dir,
                            const SweepPlan& plan) {
  // Two shards of one grid share the fingerprint but select different
  // coordinates, so the shard chain is part of the key.
  const std::string key = plan.fingerprint() + "|" + plan.shard_label();
  return (std::filesystem::path(manifest_dir) / hex64(fnv1a64(key))).string();
}

struct Coordinator::Impl {
  struct Connection {
    std::uint64_t id = 0;
    Socket sock;
    FrameDecoder dec;
    std::string name;  ///< from hello; "<unnamed>" until then
    enum class State { AwaitHello, PlanSent, Ready, Waiting, Rejected };
    State state = State::AwaitHello;
    std::string reject_cause;  ///< why the state became Rejected
    /// The connection's shard stream: its series dictionary, and each of
    /// its series ids mapped to the coordinator's interned id.
    ShardLineReader lines;
    std::vector<std::uint32_t> interned;
  };

  struct Lease {
    std::uint64_t conn = 0;       ///< owning connection id
    std::vector<std::size_t> ks;  ///< selected indices in group order
                                  ///< (shrinks on steal)
    Clock::time_point last_activity;
  };

  /// A completed sample waiting for delivery and/or journaling, packed as
  /// (interned series id, value) pairs in the SeriesSample's key order.
  /// Grouped leases finish coordinates far ahead of the id order, so most
  /// samples wait; a map per sample would cost several times the memory.
  using PackedSample = std::vector<std::pair<std::uint32_t, double>>;

  const SweepPlan& plan;
  SweepSink& sink;
  CoordinatorOptions opts;

  std::size_t n = 0;
  std::size_t lease_size = 1;
  std::vector<std::uint64_t> ids;  ///< full-grid id of each selected index
  std::string fingerprint;
  std::vector<std::string> sweep_args;

  Listener listener;

  std::map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn = 1;
  std::map<std::uint64_t, Lease> leases;
  std::uint64_t next_lease = 1;
  std::vector<std::uint64_t> waiting;  ///< parked lease requests, in order

  // Schedule-reuse groups (plan.group_selection()) laid end to end:
  // `order` lists every selected index group by group, and group_of[k] is
  // k's group number.
  std::vector<std::size_t> order;
  std::vector<std::size_t> group_of;

  std::vector<char> complete;
  std::vector<PackedSample> samples;
  std::vector<std::string> series_names;  ///< interned series, by id
  std::unordered_map<std::string, std::uint32_t> series_ids;
  std::size_t completed_count = 0;
  std::deque<std::size_t> pending;  ///< group order; requeues at the back
  std::size_t next_deliver = 0;

  // Fixed journaling partition, the same chunks a fresh run leases: unit u
  // covers order[unit_start[u], unit_start[u+1]) — whole groups, closed at
  // the first group boundary once it holds at least lease_size indices.
  std::string manifest;  ///< resolved subdir; empty = journaling off
  std::vector<std::size_t> unit_start;
  std::vector<std::size_t> unit_of;
  std::vector<std::size_t> unit_left;
  std::vector<char> unit_written;

  CoordinatorStats counters;
  std::string last_cause;

  // Per-poll scratch (capacity reused across frames).
  std::string payload_scratch;
  ShardValues values_scratch;

  Impl(const SweepPlan& p, SweepSink& s, CoordinatorOptions o)
      : plan(p), sink(s), opts(std::move(o)), listener(opts.port) {
    n = plan.size();
    lease_size = opts.lease != 0
                     ? opts.lease
                     : std::clamp<std::size_t>(n / 32, 1, 64);
    ids.reserve(n);
    for (std::size_t k = 0; k < n; ++k) ids.push_back(plan.coord(k).id);
    fingerprint = plan.fingerprint();
    sweep_args = sweep_cli_args(plan.config());

    const std::vector<std::vector<std::size_t>> groups =
        plan.group_selection();
    order.reserve(n);
    group_of.assign(n, 0);
    unit_of.assign(n, 0);
    unit_start.push_back(0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const std::size_t k : groups[g]) {
        group_of[k] = g;
        unit_of[k] = unit_start.size() - 1;
        order.push_back(k);
      }
      if (order.size() - unit_start.back() >= lease_size) {
        unit_start.push_back(order.size());
      }
    }
    if (unit_start.back() != n) unit_start.push_back(n);
    const std::size_t units = unit_start.size() - 1;
    unit_left.assign(units, 0);
    for (std::size_t u = 0; u < units; ++u) {
      unit_left[u] = unit_start[u + 1] - unit_start[u];
    }
    unit_written.assign(units, 0);

    complete.assign(n, 0);
    samples.resize(n);

    if (!opts.manifest_dir.empty()) {
      manifest = manifest_subdir(opts.manifest_dir, plan);
      load_manifest();
    }
    for (const std::size_t k : order) {
      if (!complete[k]) pending.push_back(k);
    }
    deliver_and_journal();
  }

  // ------------------------------------------------------------- manifest

  void load_manifest() {
    std::filesystem::create_directories(manifest);
    const std::filesystem::path marker =
        std::filesystem::path(manifest) / "fingerprint.txt";
    const std::string want = fingerprint + "\n" + plan.shard_label() + "\n";
    if (std::filesystem::exists(marker)) {
      std::ifstream in(marker, std::ios::binary);
      std::string got((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      FTSCHED_REQUIRE(got == want,
                      "manifest dir " + manifest +
                          " belongs to a different plan (hash collision or "
                          "tampering) — refusing to resume from it");
    } else {
      write_file_atomic(marker, want);
    }

    for (const auto& entry : std::filesystem::directory_iterator(manifest)) {
      const std::filesystem::path& path = entry.path();
      if (path.extension() != ".jsonl") continue;  // skips .tmp leftovers
      load_manifest_unit(path.string());
    }
    // Units fully restored from disk are already journaled (their records
    // live in the loaded files, whatever partition wrote them).
    for (std::size_t u = 0; u < unit_left.size(); ++u) {
      if (unit_left[u] == 0) unit_written[u] = 1;
    }
  }

  void load_manifest_unit(const std::string& path) {
    // Resume is best-effort: a file that fails any check is skipped with a
    // warning (its coordinates simply re-run), never fatal — a corrupt
    // cache must not take down the sweep it exists to accelerate.
    ShardFile file;
    try {
      file = read_shard_file(path);
    } catch (const Error& e) {
      FTSCHED_WARN("coordinator: skipping manifest file " << path << ": "
                                                          << e.what());
      return;
    }
    if (file.header.fingerprint() != fingerprint) {
      FTSCHED_WARN("coordinator: skipping manifest file "
                   << path << ": plan mismatch");
      return;
    }
    if (file.header.numerics != numerics_fingerprint()) {
      FTSCHED_WARN("coordinator: skipping manifest file "
                   << path << ": written by a build with numerics fingerprint "
                   << file.header.numerics << ", this one has "
                   << numerics_fingerprint());
      return;
    }
    std::vector<std::size_t> ks;
    ks.reserve(file.samples.size());
    for (const ShardSample& sample : file.samples) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), sample.id);
      if (it == ids.end() || *it != sample.id) {
        FTSCHED_WARN("coordinator: skipping manifest file "
                     << path << ": instance " << sample.id
                     << " is not in this plan's selection");
        return;
      }
      ks.push_back(static_cast<std::size_t>(it - ids.begin()));
    }
    std::vector<std::uint32_t> interned;
    interned.reserve(file.series.size());
    for (const std::string& series : file.series) {
      interned.push_back(intern(series));
    }
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (complete[ks[i]]) continue;  // first file wins; values are identical
      mark_complete(ks[i], pack(file.samples[i].values, interned));
      ++counters.coords_resumed;
    }
  }

  void write_unit(std::size_t u) {
    const std::size_t begin = unit_start[u];
    const std::size_t end = unit_start[u + 1];
    std::string text = render_shard_header(plan);
    ShardLineWriter lines;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t k = order[i];
      lines.append(text, ids[k], unpack(samples[k]));
    }
    // The name is the unit's span of the group order ("g").  Loading
    // ignores names, so any partition resumes any other.
    const std::string name = "unit_g" + std::to_string(begin) + "_" +
                             std::to_string(end) + ".jsonl";
    write_file_atomic(std::filesystem::path(manifest) / name, text);
    unit_written[u] = 1;
    ++counters.manifest_units_written;
    for (std::size_t i = begin; i < end; ++i) maybe_release(order[i]);
  }

  // ------------------------------------------------------- sample storage

  /// The coordinator-wide id of an undecorated series name.
  [[nodiscard]] std::uint32_t intern(const std::string& series) {
    const auto [it, fresh] = series_ids.try_emplace(
        series, static_cast<std::uint32_t>(series_names.size()));
    if (fresh) series_names.push_back(series);
    return it->second;
  }

  /// `values` of one shard stream, its series ids translated by `interned`.
  [[nodiscard]] static PackedSample pack(
      const ShardValues& values, const std::vector<std::uint32_t>& interned) {
    PackedSample packed;
    packed.reserve(values.size());
    for (const auto& [sid, value] : values) {
      packed.emplace_back(interned[sid], value);
    }
    return packed;
  }

  [[nodiscard]] SeriesSample unpack(const PackedSample& packed) const {
    SeriesSample sample;
    for (const auto& [id, value] : packed) {
      sample.emplace_hint(sample.end(), series_names[id], value);
    }
    return sample;
  }

  void mark_complete(std::size_t k, PackedSample sample) {
    complete[k] = 1;
    samples[k] = std::move(sample);
    ++completed_count;
    const std::size_t u = unit_of[k];
    if (--unit_left[u] == 0 && !manifest.empty() && !unit_written[u]) {
      write_unit(u);
    }
  }

  /// Frees a sample's memory once nothing can still need it: it has been
  /// delivered to the sink AND journaled (or journaling is off).
  void maybe_release(std::size_t k) {
    if (k >= next_deliver) return;
    if (!manifest.empty() && !unit_written[unit_of[k]]) return;
    samples[k] = PackedSample{};
  }

  void deliver_and_journal() {
    while (next_deliver < n && complete[next_deliver]) {
      const std::size_t k = next_deliver;
      sink.on_sample(plan.coord(k), unpack(samples[k]));
      ++next_deliver;
      maybe_release(k);
    }
  }

  // ------------------------------------------------------------ protocol

  [[nodiscard]] std::string describe(const Connection& c) const {
    return (c.name.empty() ? "<unnamed>" : c.name) + " (conn " +
           std::to_string(c.id) + ")";
  }

  void send(Connection& c, const std::string& payload) {
    // A send failure means the peer died mid-conversation; the reader side
    // will see the EOF next poll and requeue — no need to duplicate the
    // teardown here.
    try {
      c.sock.send_message(payload);
    } catch (const Error&) {
    }
  }

  void reject(Connection& c, const std::string& cause) {
    send(c, msg_reject(cause));
    c.state = Connection::State::Rejected;
    c.reject_cause = cause;
    ++counters.workers_rejected;
  }

  void handle_message(Connection& c, const std::string& payload) {
    const ServiceMessage msg = parse_service_message(payload, describe(c));
    if (msg.type == "hello") {
      if (c.state != Connection::State::AwaitHello) {
        reject(c, "unexpected hello");
        return;
      }
      if (msg.field_or("ftsched_coord", "") != kCoordProtocolVersion) {
        reject(c, "coordinator protocol version mismatch");
        return;
      }
      c.name = msg.field_or("worker", "");
      send(c, msg_plan(sweep_args, plan.shard_label(), fingerprint));
      c.state = Connection::State::PlanSent;
      ++counters.workers_joined;
      return;
    }
    if (msg.type == "heartbeat") {
      touch_leases_of(c.id);
      return;
    }
    if (msg.type == "ready") {
      if (c.state != Connection::State::PlanSent) {
        reject(c, "unexpected ready");
        return;
      }
      if (msg.field("fingerprint") != fingerprint) {
        reject(c, "grid fingerprint mismatch — the worker rebuilt a "
                  "different grid from the plan flags\n  want: " +
                      fingerprint + "\n  got:  " + msg.field("fingerprint"));
        return;
      }
      if (msg.field("numerics") != numerics_fingerprint()) {
        reject(c, "numerics fingerprint mismatch — worker " + describe(c) +
                      " computes different bits (numerics " +
                      msg.field("numerics") + ", coordinator " +
                      numerics_fingerprint() + ")");
        return;
      }
      c.state = Connection::State::Ready;
      return;
    }
    if (msg.type == "lease_request") {
      if (c.state != Connection::State::Ready) {
        reject(c, "lease_request before a valid ready handshake");
        return;
      }
      c.state = Connection::State::Waiting;
      waiting.push_back(c.id);
      return;
    }
    if (msg.type == "sample") {
      handle_sample(c, msg);
      return;
    }
    if (msg.type == "done") {
      const std::uint64_t lease_id =
          spec_detail::parse_u64("lease", msg.field("lease"));
      const auto it = leases.find(lease_id);
      if (it == leases.end() || it->second.conn != c.id) return;  // stale
      // A correct worker sent every sample first, so nothing should be
      // left; anything that is (a rejected record, say) goes back to the
      // queue rather than being silently lost.
      requeue_incomplete(it->second);
      leases.erase(it);
      return;
    }
    reject(c, "unknown message type '" + msg.type + "'");
  }

  void handle_sample(Connection& c, const ServiceMessage& msg) {
    const std::uint64_t lease_id =
        spec_detail::parse_u64("lease", msg.field("lease"));
    const std::uint64_t k64 = spec_detail::parse_u64("k", msg.field("k"));
    if (k64 >= n) {
      reject(c, "sample index " + std::to_string(k64) +
                    " outside the plan selection");
      return;
    }
    const std::size_t k = static_cast<std::size_t>(k64);
    // Declarations are read even when the sample turns out a duplicate:
    // later frames of this connection use them.
    std::size_t records = 0;
    std::uint64_t id = 0;
    std::string_view body = msg.body;
    std::string_view line;
    try {
      while (next_line(body, line)) {
        if (c.lines.parse(line, id, values_scratch)) {
          ++records;
          continue;
        }
        c.interned.push_back(intern(c.lines.series().back()));
      }
    } catch (const InvalidArgument& e) {
      reject(c, "malformed sample frame for selected index " +
                    std::to_string(k) + ": " + e.what());
      return;
    }
    if (records != 1 || id != ids[k]) {
      reject(c, "sample frame for selected index " + std::to_string(k) +
                    " must carry one record of instance " +
                    std::to_string(ids[k]));
      return;
    }
    const auto it = leases.find(lease_id);
    if (it != leases.end() && it->second.conn == c.id) {
      it->second.last_activity = Clock::now();
    }
    if (complete[k]) {
      // A steal victim or an expired-but-alive worker finishing anyway:
      // every correct worker computes bit-identical values, so first
      // arrival wins and the copy is dropped.
      ++counters.duplicate_samples;
      return;
    }
    mark_complete(k, pack(values_scratch, c.interned));
  }

  void touch_leases_of(std::uint64_t conn_id) {
    const auto now = Clock::now();
    for (auto& [id, lease] : leases) {
      if (lease.conn == conn_id) lease.last_activity = now;
    }
  }

  // -------------------------------------------------- lease housekeeping

  void requeue_incomplete(const Lease& lease) {
    bool any = false;
    for (const std::size_t k : lease.ks) {
      if (!complete[k]) {
        pending.push_back(k);
        any = true;
      }
    }
    if (any) ++counters.leases_requeued;
  }

  void expire_leases() {
    const auto now = Clock::now();
    const std::chrono::duration<double> limit(opts.timeout);
    for (auto it = leases.begin(); it != leases.end();) {
      if (now - it->second.last_activity > limit) {
        // The owner may well be alive and merely slow; its results are
        // still welcome (dedupe handles the overlap), but the sweep stops
        // waiting on it.
        requeue_incomplete(it->second);
        ++counters.leases_expired;
        it = leases.erase(it);
      } else {
        ++it;
      }
    }
  }

  void drop_conn(std::uint64_t id, const std::string& cause) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    for (auto lit = leases.begin(); lit != leases.end();) {
      if (lit->second.conn == id) {
        requeue_incomplete(lit->second);
        lit = leases.erase(lit);
      } else {
        ++lit;
      }
    }
    // A worker hanging up after the sweep completed is the normal wind-down
    // (bye → close), not a reportable cause.
    if (completed_count < n) {
      last_cause = describe(it->second) + ": " + cause;
    }
    conns.erase(it);
  }

  /// The next lease from the queue: whole groups, closed at the first group
  /// boundary once it holds at least lease_size coordinates, so a worker
  /// runs each group's schedule phase once.
  [[nodiscard]] std::vector<std::size_t> take_pending() {
    std::vector<std::size_t> ks;
    while (!pending.empty()) {
      const std::size_t k = pending.front();
      if (ks.size() >= lease_size && group_of[k] != group_of[ks.back()]) {
        break;
      }
      pending.pop_front();
      // A queued coordinate can complete in the meantime (duplicate result
      // from an expired-but-alive worker); leasing it again would be waste.
      if (!complete[k]) ks.push_back(k);
    }
    return ks;
  }

  /// Splits the most-laden active lease for an idle worker: the thief
  /// takes its trailing whole groups, as many as fit in half of the
  /// unfinished coordinates but at least one, so neither side repeats the
  /// other's schedule phase.  Only a lease down to one unfinished group is
  /// split inside it (back half).  Returns empty when no lease has at
  /// least two unfinished coordinates to share.
  [[nodiscard]] std::vector<std::size_t> steal_for(std::uint64_t thief_conn) {
    Lease* victim = nullptr;
    std::size_t victim_left = 1;  // require >= 2 to split
    for (auto& [id, lease] : leases) {
      if (lease.conn == thief_conn) continue;
      std::size_t left = 0;
      for (const std::size_t k : lease.ks) left += !complete[k];
      if (left > victim_left) {
        victim = &lease;
        victim_left = left;
      }
    }
    if (victim == nullptr) return {};
    std::vector<std::size_t> incomplete;
    incomplete.reserve(victim_left);
    for (const std::size_t k : victim->ks) {
      if (!complete[k]) incomplete.push_back(k);
    }
    // Lease order is group order, so each group is one run of `incomplete`.
    // Walk the group starts back from the end; the first group never goes.
    const std::size_t half = incomplete.size() / 2;
    std::size_t cut = incomplete.size();
    for (std::size_t i = incomplete.size() - 1; i > 0; --i) {
      if (group_of[incomplete[i - 1]] == group_of[incomplete[i]]) continue;
      if (cut != incomplete.size() && incomplete.size() - i > half) break;
      cut = i;
    }
    if (cut == incomplete.size()) cut -= half;  // one group left: split it
    std::vector<std::size_t> stolen(incomplete.begin() + cut, incomplete.end());
    // The victim keeps everything not stolen, so its lease completes
    // without the moved coordinates (its late results for them would be
    // dedupe'd duplicates).
    std::vector<std::size_t> kept;
    kept.reserve(victim->ks.size() - stolen.size());
    for (const std::size_t k : victim->ks) {
      if (std::find(stolen.begin(), stolen.end(), k) == stolen.end()) {
        kept.push_back(k);
      }
    }
    victim->ks = std::move(kept);
    ++counters.leases_stolen;
    return stolen;
  }

  void grant(Connection& c, std::vector<std::size_t> ks) {
    // Group order, the order the worker evaluates in: requeued leases can
    // leave the queue out of it, and steal_for takes a lease's tail.
    std::sort(ks.begin(), ks.end(), [&](std::size_t a, std::size_t b) {
      return std::pair(group_of[a], a) < std::pair(group_of[b], b);
    });
    const std::uint64_t lease_id = next_lease++;
    send(c, msg_lease(lease_id, ks));
    ++counters.leases_granted;
    counters.coords_leased += ks.size();
    Lease lease;
    lease.conn = c.id;
    lease.ks = std::move(ks);
    lease.last_activity = Clock::now();
    leases.emplace(lease_id, std::move(lease));
    c.state = Connection::State::Ready;
  }

  void serve_waiting() {
    std::vector<std::uint64_t> still;
    for (const std::uint64_t id : waiting) {
      const auto it = conns.find(id);
      if (it == conns.end() ||
          it->second.state != Connection::State::Waiting) {
        continue;
      }
      Connection& c = it->second;
      if (completed_count == n) {
        send(c, msg_bye());
        c.state = Connection::State::Ready;
        continue;
      }
      std::vector<std::size_t> ks = take_pending();
      if (ks.empty()) ks = steal_for(c.id);
      if (ks.empty()) {
        still.push_back(id);  // park until a requeue or the finish
        continue;
      }
      grant(c, std::move(ks));
    }
    waiting = std::move(still);
  }

  // ----------------------------------------------------------- poll loop

  void accept_joiners() {
    while (true) {
      Socket sock = listener.accept(0);
      if (!sock.valid()) break;
      sock.set_nonblocking(true);
      Connection c;
      c.id = next_conn++;
      c.sock = std::move(sock);
      conns.emplace(c.id, std::move(c));
    }
  }

  void pump(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Connection& c = it->second;
    bool eof = false;
    try {
      while (true) {
        const int got = c.sock.read_available(c.dec.buffer());
        if (got > 0) continue;
        eof = got < 0;
        break;
      }
      // Drain complete frames before acting on EOF — the final frames of a
      // worker that finished and hung up are still valid results.
      while (c.state != Connection::State::Rejected &&
             c.dec.next(payload_scratch)) {
        handle_message(c, payload_scratch);
      }
    } catch (const Error& e) {
      drop_conn(id, e.what());
      return;
    }
    if (c.state == Connection::State::Rejected) {
      drop_conn(id, "rejected: " + c.reject_cause);
      return;
    }
    if (eof) {
      drop_conn(id, c.dec.mid_frame() ? "disconnected mid-frame"
                                      : "closed connection");
    }
  }

  void poll(int timeout_ms) {
    std::vector<struct pollfd> fds;
    std::vector<std::uint64_t> conn_ids;
    fds.push_back({listener.fd(), POLLIN, 0});
    for (auto& [id, c] : conns) {
      fds.push_back({c.sock.fd(), POLLIN, 0});
      conn_ids.push_back(id);
    }
    int rc = 0;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc > 0) {
      if (fds[0].revents != 0) accept_joiners();
      for (std::size_t i = 0; i < conn_ids.size(); ++i) {
        if (fds[i + 1].revents != 0) pump(conn_ids[i]);
      }
    }
    expire_leases();
    serve_waiting();
    deliver_and_journal();
  }
};

Coordinator::Coordinator(const SweepPlan& plan, SweepSink& sink,
                         CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(plan, sink, std::move(options))) {}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const noexcept {
  return impl_->listener.port();
}

bool Coordinator::finished() const noexcept {
  return impl_->next_deliver == impl_->n;
}

void Coordinator::poll(int timeout_ms) { impl_->poll(timeout_ms); }

void Coordinator::run(int tick_ms) {
  while (!finished()) poll(tick_ms);
}

std::size_t Coordinator::connections() const noexcept {
  return impl_->conns.size();
}

const CoordinatorStats& Coordinator::stats() const noexcept {
  return impl_->counters;
}

const std::string& Coordinator::last_disconnect_cause() const noexcept {
  return impl_->last_cause;
}

}  // namespace ftsched
