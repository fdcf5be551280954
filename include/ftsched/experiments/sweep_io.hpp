// Stage 3 of the plan/execute/merge sweep pipeline: the shard format and
// the merge tool.
//
// A *shard file* (format version 2) is one JSON header line followed by
// plain-text lines, one per coordinate:
//
//   {"ftsched_sweep_shard":2,"numerics":"9c1e...","seed":"42",
//    "epsilon":"1","m":"20","reps":"60","extra":"1",
//    "granularities":"0x1.9...p-3;...","workloads":"paper",
//    "scenarios":"t0","failures":"eps","policies":"none","paper":"...",
//    "grid":"600","selected":"200","shard":"0/3"}
//   s 0 FTBAR-1Crash
//   s 1 FTBAR-LowerBound
//   17 0:1.8275cf8e8615fp+5 1:1.74faeef887e38p+8
//   20 0:1.9p+5 1:1.7p+8
//
// `s <sid> <name>` declares series id `sid` (dense, from 0, in order of
// first use) for an undecorated series name; it precedes the first record
// that uses it.  A record is the coordinate's full-grid id followed by one
// `<sid>:<value>` pair per series, each value a std::to_chars hex-float
// (no "0x"), so nothing is rounded on the way to disk.  The coordinate's
// workload/scenario/failure/policy/granularity/rep follow from the id and
// the header's dimensions; the cell suffix of the series label follows
// from those, so neither is written.  Readers accept nothing else: an
// undeclared or twice-declared sid, a sid repeated in one record, an id
// outside the grid, a malformed hex-float or trailing bytes fail with the
// file name and line.  Version-1 streams (one JSON record per series) are
// rejected, naming the file.
//
// merge_shards restores the canonical coordinate order (ascending
// full-grid id) and folds each value in as OnlineStats::of(value); because
// OnlineStats::add(x) is defined as merge(of(x)), the merged SweepResult
// is bit-identical to the unsharded run_sweep for ANY shard partition of
// the grid.  Every header carries the writer's numerics fingerprint
// (numerics_fingerprint()), so shards whose builds round differently are
// refused instead of mixed.  merge_shards also fails loudly on shards from
// different plans (fingerprint mismatch), overlapping shards (an instance
// appearing twice) and incomplete partitions (an instance missing from
// every file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ftsched/experiments/sweep_plan.hpp"

namespace ftsched {

/// Shard-file header: the plan identity (everything that determines the
/// grid and its numbers, independent of sharding and thread count), the
/// writer's numerics fingerprint, plus this shard's bookkeeping.
struct ShardHeader {
  std::uint64_t seed = 0;
  std::size_t epsilon = 0;
  std::size_t procs = 0;
  std::size_t reps = 0;
  std::vector<std::size_t> extra_crash_counts;
  std::vector<double> granularities;
  std::vector<std::string> workloads;
  std::vector<std::string> scenarios;
  std::vector<std::string> failures;  ///< failure-model cell labels
  std::vector<std::string> policies;  ///< rescheduling-policy cell labels
  /// Full PaperWorkloadParams rendition when the grid uses the
  /// paper-configured cell (FigureConfig::workloads empty) — programmatic
  /// tweaks like task_min or exec spread change the numbers without
  /// showing in the cell label, so they must be part of the identity.
  /// Empty when every cell comes from a registry spec.
  std::string paper_params;
  /// numerics_fingerprint() of the process that wrote the shard.
  std::string numerics;
  std::uint64_t grid = 0;      ///< full-grid instance count
  std::uint64_t selected = 0;  ///< instances this shard covers
  std::string shard = "full";  ///< shard chain label, e.g. "0/3"

  /// Canonical grid identity; equals SweepPlan::fingerprint() of the plan
  /// that wrote the shard.  merge_shards requires all shards to agree.
  [[nodiscard]] std::string fingerprint() const;
};

/// One coordinate's values as (series id, value) pairs; the ids index the
/// stream's series declarations.
using ShardValues = std::vector<std::pair<std::uint32_t, double>>;

/// One record line: a coordinate's full-grid id and its values.
struct ShardSample {
  std::uint64_t id = 0;
  ShardValues values;
};

/// A parsed shard file.
struct ShardFile {
  std::string name;                  ///< what read_shard was given
  ShardHeader header;
  std::vector<std::string> series;   ///< undecorated names, by series id
  std::vector<ShardSample> samples;  ///< file order
};

/// Digest (16 hex digits) of the bits this build computes on two fixed
/// small instances: the FTSA, MC-FTSA and FTBAR schedule bounds, a
/// timed-crash run_summary forward pass of each FTSA schedule, and one
/// draw per crash-time law (which covers Rng::exponential's std::log, the
/// one libm call on the sample path).  Builds that contract a·b+c into
/// FMAs, or link another libm, digest differently.  Computed on first use,
/// once per process.
[[nodiscard]] const std::string& numerics_fingerprint();

// The record lines are also the coordinator service's sample frames and
// manifest units (service/protocol.hpp), so the series dictionary's two
// halves are shared helpers rather than ShardWriterSink/read_shard
// internals.

/// Writer half of one stream's series dictionary.
class ShardLineWriter {
 public:
  /// Appends to `out` a declaration line for every series of `sample` the
  /// stream has not declared yet, then the record line of coordinate `id`
  /// (values in `sample`'s key order).
  void append(std::string& out, std::uint64_t id, const SeriesSample& sample);

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// Reader half of one stream's series dictionary.
class ShardLineReader {
 public:
  /// Parses one line after the header (no newline, no trailing '\r').  A
  /// declaration extends series() and returns false; a record fills `id`
  /// and `values` and returns true.  Throws InvalidArgument, without a
  /// location (callers prefix their own), on anything else.
  bool parse(std::string_view line, std::uint64_t& id, ShardValues& values);

  [[nodiscard]] const std::vector<std::string>& series() const noexcept {
    return series_;
  }

 private:
  std::vector<std::string> series_;
  std::unordered_set<std::string> names_;  ///< series_, for duplicates
  std::vector<std::uint64_t> seen_;  ///< per sid: last record that used it
  std::uint64_t records_ = 0;
};

/// Streaming sink that serializes every sample to `os`: the header on
/// construction, then declarations and one record line per instance.
class ShardWriterSink final : public SweepSink {
 public:
  /// `os` must outlive the sink; the header for `plan` is written here.
  ShardWriterSink(std::ostream& os, const SweepPlan& plan);

  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override;

  [[nodiscard]] std::size_t samples_written() const noexcept {
    return samples_;
  }

 private:
  std::ostream* os_;
  std::size_t samples_ = 0;
  ShardLineWriter lines_;
  std::string buffer_;  ///< per-sample render scratch, capacity reused
};

/// The header a ShardWriterSink over `plan` would write (exposed for the
/// CLI's plan command and for tests).
[[nodiscard]] ShardHeader shard_header(const SweepPlan& plan);

/// The newline-terminated header line ShardWriterSink writes for `plan`.
[[nodiscard]] std::string render_shard_header(const SweepPlan& plan);

/// Parses one shard stream; `name` labels diagnostics ("name:line: ...").
/// Throws InvalidArgument on malformed lines or a missing, alien or
/// version-1 header.
[[nodiscard]] ShardFile read_shard(std::istream& in,
                                   const std::string& name = "<stream>");

/// Opens and parses `path`; throws InvalidArgument when unreadable.
[[nodiscard]] ShardFile read_shard_file(const std::string& path);

/// Combines shard files covering a full partition of one plan's grid into
/// the SweepResult of the unsharded run — bit-identical (see file
/// comment).  Throws InvalidArgument, naming the file, on a fingerprint or
/// numerics mismatch, overlap, incomplete coverage, or out-of-range ids.
[[nodiscard]] SweepResult merge_shards(const std::vector<ShardFile>& shards);

}  // namespace ftsched
