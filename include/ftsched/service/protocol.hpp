// Wire protocol of the sweep coordinator service (service/coordinator.hpp
// ⇄ service/worker.hpp).
//
// Every frame (util/net.hpp framing) carries newline-separated lines; the
// first line is one flat JSON object (util/jsonl.hpp) whose "type" field
// names the message, and only "sample" frames have further lines: shard
// format version 2 lines (experiments/sweep_io.hpp), i.e. a `s <sid>
// <name>` declaration for each series the connection has not used before,
// then the coordinate's one record line `<id> <sid>:<hex-float> ...`.
// Each connection is one shard stream with its own series dictionary, and
// the coordinator's manifest units are ordinary shard files, so the
// bit-identity argument is a composition of already-tested pieces.
//
//   worker → coordinator      coordinator → worker
//   ------------------        --------------------
//   hello   {worker}          plan    {args, shard, fingerprint}
//   ready   {fingerprint,     lease   {lease, ks}
//            numerics}        reject  {cause}        (terminal)
//   lease_request {}          bye     {}             (all work done)
//   sample  {lease, k} + lines
//   done    {lease}
//   heartbeat {}
//
// A worker joins with `hello`, receives the `plan` (the sweep grid as CLI
// flags plus the plan's shard chain and fingerprint), rebuilds the plan
// locally and answers `ready` with the fingerprint *it* computed and its
// numerics_fingerprint() — the coordinator rejects a mismatch of either
// before leasing anything, so neither a drifted binary nor a build that
// rounds differently can contribute samples.  Work then flows as
// `lease_request` → `lease` (a set of selected-instance indices) →
// `sample` per coordinate → `done`, until the coordinator answers a
// request with `bye` (or `reject` on protocol violations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ftsched/util/jsonl.hpp"

namespace ftsched {

/// Bumped when a frame shape changes incompatibly; `hello` carries it so
/// version skew is a clean reject, not a parse error.
inline constexpr const char* kCoordProtocolVersion = "2";

/// One parsed frame: the typed head line plus the lines after it.
struct ServiceMessage {
  std::string type;
  FlatJsonObject head;  ///< parsed first line
  std::string body;     ///< everything after the head line (see next_line)
  std::string where;    ///< diagnostics label ("peer 3")

  [[nodiscard]] const std::string& field(const char* key) const {
    return head.field(key, where);
  }
  [[nodiscard]] std::string field_or(const char* key,
                                     const char* fallback) const {
    return head.field_or(key, fallback);
  }
};

/// Parses one frame payload; `from` labels diagnostics.  Throws
/// InvalidArgument on malformed head lines or a missing "type".
[[nodiscard]] ServiceMessage parse_service_message(const std::string& payload,
                                                   const std::string& from);

/// Pops the next non-empty line (trailing '\r' dropped) off the front of
/// `body` into `line`; false once `body` holds no further line.
bool next_line(std::string_view& body, std::string_view& line);

// Frame builders (single-line messages return the full payload; the
// "sample" head expects the caller to append the shard lines).
[[nodiscard]] std::string msg_hello(const std::string& worker);
[[nodiscard]] std::string msg_plan(const std::vector<std::string>& sweep_args,
                                   const std::string& shard,
                                   const std::string& fingerprint);
[[nodiscard]] std::string msg_ready(const std::string& fingerprint,
                                    const std::string& numerics);
[[nodiscard]] std::string msg_lease_request();
[[nodiscard]] std::string msg_lease(std::uint64_t lease,
                                    const std::vector<std::size_t>& ks);
[[nodiscard]] std::string msg_sample_head(std::uint64_t lease, std::size_t k);
[[nodiscard]] std::string msg_done(std::uint64_t lease);
[[nodiscard]] std::string msg_heartbeat();
[[nodiscard]] std::string msg_reject(const std::string& cause);
[[nodiscard]] std::string msg_bye();

/// The `plan` message's "args" field joins the sweep CLI flags with '\n'
/// (flags never contain newlines); these convert both ways.
[[nodiscard]] std::string join_plan_args(const std::vector<std::string>& args);
[[nodiscard]] std::vector<std::string> split_plan_args(
    const std::string& joined);

/// The `lease` message's "ks" field: semicolon-joined decimal
/// selected-instance indices (a set, not a range — steal splits make
/// leases non-contiguous).
[[nodiscard]] std::string render_index_list(const std::vector<std::size_t>& ks);
[[nodiscard]] std::vector<std::size_t> parse_index_list(
    const std::string& joined, const std::string& where);

}  // namespace ftsched
