// Stage 3 of the plan/execute/merge sweep pipeline: the shard job
// protocol and the merge tool.
//
// A *shard file* is JSONL (one JSON object per line, flat string values):
//
//   header   {"ftsched_sweep_shard":1,"seed":"42","epsilon":"1","m":"20",
//             "reps":"60","extra":"1","granularities":"0x1.9...p-3;...",
//             "workloads":"paper","scenarios":"t0","failures":"eps",
//             "policies":"none","grid":"600","selected":"200","shard":"0/3"}
//   records  {"id":"17","w":"0","s":"0","f":"0","pol":"0","g":"2","r":"5",
//             "series":"FTSA-LowerBound","n":"1","mean":"0x1.8p+0",
//             "m2":"0x0p+0","min":"0x1.8p+0","max":"0x1.8p+0"}
//
// Every record is a partial OnlineStats for one (instance, series) —
// ShardWriterSink emits single-sample accumulators — with count/mean/M2/
// min/max serialized losslessly as hex-floats, so nothing is rounded on
// the way to disk.  merge_shards restores the canonical coordinate order
// (records sorted by full-grid instance id) and combines the partials via
// OnlineStats::merge(); because OnlineStats::add(x) is defined as
// merge(of(x)), the merged SweepResult is bit-identical to the unsharded
// run_sweep for ANY shard partition of the grid — the same doubles, down
// to the last ulp, whatever machines the shards ran on (same
// architecture/ABI assumed; the protocol itself is exact).
//
// merge_shards fails loudly on shards from different plans (fingerprint
// mismatch), overlapping shards (an instance appearing in two files) and
// incomplete partitions (an instance missing from every file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ftsched/experiments/sweep_plan.hpp"
#include "ftsched/util/jsonl.hpp"
#include "ftsched/util/stats.hpp"

namespace ftsched {

/// Shard-file header: the plan identity (everything that determines the
/// grid and its numbers, independent of sharding and thread count) plus
/// this shard's bookkeeping.
struct ShardHeader {
  std::uint64_t seed = 0;
  std::size_t epsilon = 0;
  std::size_t procs = 0;
  std::size_t reps = 0;
  std::vector<std::size_t> extra_crash_counts;
  std::vector<double> granularities;
  std::vector<std::string> workloads;
  std::vector<std::string> scenarios;
  /// Failure-model cell labels.  Shard files written before the failure
  /// dimension existed omit the field; the reader restores the implicit
  /// single {"eps"} cell, so old default-grid shards still merge.
  std::vector<std::string> failures;
  /// Rescheduling-policy cell labels.  Shard files written before the
  /// policy dimension existed omit the field; the reader restores the
  /// implicit single {"none"} cell (and records omit "pol" the same way),
  /// so pre-policy shards still merge.
  std::vector<std::string> policies;
  /// Full PaperWorkloadParams rendition when the grid uses the
  /// paper-configured cell (FigureConfig::workloads empty) — programmatic
  /// tweaks like task_min or exec spread change the numbers without
  /// showing in the cell label, so they must be part of the identity.
  /// Empty when every cell comes from a registry spec.
  std::string paper_params;
  std::uint64_t grid = 0;      ///< full-grid instance count
  std::uint64_t selected = 0;  ///< instances this shard covers
  std::string shard = "full";  ///< shard chain label, e.g. "0/3"

  /// Canonical grid identity; equals SweepPlan::fingerprint() of the plan
  /// that wrote the shard.  merge_shards requires all shards to agree.
  [[nodiscard]] std::string fingerprint() const;
};

/// One partial-statistics record: the accumulator state of `series` over
/// the instance `id` (single-sample as written by ShardWriterSink).
struct ShardRecord {
  InstanceCoord coord;
  std::string series;  ///< decorated series name (cell suffix included)
  OnlineStats stats;
};

/// A parsed shard file.
struct ShardFile {
  ShardHeader header;
  std::vector<ShardRecord> records;
};

/// Streaming sink that serializes every sample to `os` as JSONL: the
/// header on construction, then one record per (instance, series).
class ShardWriterSink final : public SweepSink {
 public:
  /// `os` and `plan` must outlive the sink; the header is written here.
  ShardWriterSink(std::ostream& os, const SweepPlan& plan);
  /// The sink keeps a pointer to the plan: a temporary would dangle.
  ShardWriterSink(std::ostream& os, const SweepPlan&& plan) = delete;

  void on_sample(const InstanceCoord& coord,
                 const SeriesSample& sample) override;

  [[nodiscard]] std::size_t samples_written() const noexcept {
    return samples_;
  }

 private:
  std::ostream* os_;
  const SweepPlan* plan_;
  std::size_t samples_ = 0;
  std::string buffer_;  ///< per-sample render scratch, capacity reused
};

/// The header a ShardWriterSink over `plan` would write (exposed for the
/// CLI's plan command and for tests).
[[nodiscard]] ShardHeader shard_header(const SweepPlan& plan);

// The shard-record vocabulary is also the coordinator service's wire and
// manifest format (service/protocol.hpp), so the line renderers/parsers
// are shared helpers rather than ShardWriterSink/read_shard internals —
// one renderer per line shape keeps the formats bit-identical by
// construction.

/// The newline-terminated header line ShardWriterSink writes for `plan`.
[[nodiscard]] std::string render_shard_header(const SweepPlan& plan);

/// Appends one newline-terminated record line per series of `sample` to
/// `out`, decorated via plan.series_label — exactly what ShardWriterSink
/// writes for the same sample.
void append_sample_records(std::string& out, const SweepPlan& plan,
                           const InstanceCoord& coord,
                           const SeriesSample& sample);

/// Converts one parsed non-header line of the shard protocol into a
/// ShardRecord; `where` labels diagnostics.  Throws InvalidArgument on
/// missing fields or unparsable numbers.
[[nodiscard]] ShardRecord shard_record_from(const FlatJsonObject& object,
                                            const std::string& where);

/// parse + shard_record_from for one line (callers with many lines keep a
/// FlatJsonObject scratch and use shard_record_from directly).
[[nodiscard]] ShardRecord parse_shard_record(const std::string& line,
                                             const std::string& where);

/// Strips the cell suffix of `coord` (series_label's decoration, a pure
/// suffix) from `series` in place.  Returns false — leaving `series`
/// untouched — when the suffix is absent, i.e. the record cannot be a
/// well-formed sample of `coord` under `plan`.
[[nodiscard]] bool undecorate_series(const SweepPlan& plan,
                                     const InstanceCoord& coord,
                                     std::string& series);

/// Parses one shard stream; `name` labels diagnostics.  Throws
/// InvalidArgument on malformed lines or a missing/alien header.
[[nodiscard]] ShardFile read_shard(std::istream& in,
                                   const std::string& name = "<stream>");

/// Opens and parses `path`; throws InvalidArgument when unreadable.
[[nodiscard]] ShardFile read_shard_file(const std::string& path);

/// Combines shard files covering a full partition of one plan's grid into
/// the SweepResult of the unsharded run — bit-identical (see file
/// comment).  Throws InvalidArgument on fingerprint mismatch, overlap,
/// incomplete coverage, or out-of-range records.
[[nodiscard]] SweepResult merge_shards(const std::vector<ShardFile>& shards);

/// read_shard_file + merge_shards over a list of paths.
[[nodiscard]] SweepResult merge_shard_files(
    const std::vector<std::string>& paths);

}  // namespace ftsched
