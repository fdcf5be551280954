#include "ftsched/experiments/sweep_io.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "ftsched/util/error.hpp"
#include "ftsched/util/jsonl.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

namespace {

// The JSONL line grammar (FlatJsonObject / json_escape) lives in
// util/jsonl.hpp, shared with the coordinator service's wire protocol.

std::vector<std::string> split_semicolons(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ';')) out.push_back(item);
  return out;
}

template <typename T, typename Fn>
std::string join_mapped(const std::vector<T>& items, Fn&& render) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ";";
    out += render(items[i]);
  }
  return out;
}

std::size_t parse_size(const std::string& key, const std::string& value) {
  return static_cast<std::size_t>(spec_detail::parse_u64(key, value));
}

/// hex_to_double naming the field and line that held a malformed literal.
double parse_hex(const char* key, const std::string& value,
                 const std::string& where) {
  try {
    return hex_to_double(value);
  } catch (const Error&) {
    throw InvalidArgument(where + ": field '" + key +
                          "' is not a hex-float literal: '" + value + "'");
  }
}

/// Exact rendition of every PaperWorkloadParams field the paper cell's
/// generator reads (proc count and granularity come from the sweep point,
/// which the header already captures).  Empty when the grid has no
/// paper-configured cell.
std::string render_paper_params(const FigureConfig& config) {
  if (!config.workloads.empty()) return {};
  const PaperWorkloadParams& p = config.workload;
  std::string out = std::to_string(p.task_min);
  out += "," + std::to_string(p.task_max);
  out += "," + std::to_string(p.avg_layer_width);
  out += "," + double_to_hex(p.volume_min);
  out += "," + double_to_hex(p.volume_max);
  out += "," + double_to_hex(p.delay_min);
  out += "," + double_to_hex(p.delay_max);
  out += "," + double_to_hex(p.exec.base_min);
  out += "," + double_to_hex(p.exec.base_max);
  out += "," + double_to_hex(p.exec.spread);
  out += "," + std::to_string(static_cast<int>(p.exec.heterogeneity));
  return out;
}

}  // namespace

std::string ShardHeader::fingerprint() const {
  // The one renderer of the grid identity; SweepPlan::fingerprint()
  // delegates here through shard_header().
  std::string fp = "v1 seed=" + std::to_string(seed);
  fp += " eps=" + std::to_string(epsilon);
  fp += " m=" + std::to_string(procs);
  fp += " reps=" + std::to_string(reps);
  fp += " extra=" + join_mapped(extra_crash_counts, [](std::size_t k) {
          return std::to_string(k);
        });
  fp += " granularities=" +
        join_mapped(granularities, [](double g) { return double_to_hex(g); });
  fp += " workloads=" +
        join_mapped(workloads, [](const std::string& w) { return w; });
  fp += " scenarios=" +
        join_mapped(scenarios, [](const std::string& s) { return s; });
  fp += " failures=" +
        join_mapped(failures, [](const std::string& f) { return f; });
  fp += " policies=" +
        join_mapped(policies, [](const std::string& p) { return p; });
  fp += " paper=" + paper_params;
  return fp;
}

std::string SweepPlan::fingerprint() const {
  // Defined here rather than in sweep_plan.cpp so the grid identity has a
  // single renderer: the one merge_shards compares headers with.
  return shard_header(*this).fingerprint();
}

ShardHeader shard_header(const SweepPlan& plan) {
  ShardHeader h;
  h.seed = plan.config().seed;
  h.epsilon = plan.config().epsilon;
  h.procs = plan.config().proc_count;
  h.reps = plan.repetitions();
  h.extra_crash_counts = plan.config().extra_crash_counts;
  h.granularities = plan.granularities();
  h.workloads = plan.workloads();
  h.scenarios = plan.scenarios();
  h.failures = plan.failures();
  h.policies = plan.policies();
  h.paper_params = render_paper_params(plan.config());
  h.grid = plan.grid_size();
  h.selected = plan.size();
  h.shard = plan.shard_label();
  return h;
}

std::string render_shard_header(const SweepPlan& plan) {
  const ShardHeader h = shard_header(plan);
  std::string out = "{\"ftsched_sweep_shard\":1";
  out += ",\"seed\":\"" + std::to_string(h.seed) + "\"";
  out += ",\"epsilon\":\"" + std::to_string(h.epsilon) + "\"";
  out += ",\"m\":\"" + std::to_string(h.procs) + "\"";
  out += ",\"reps\":\"" + std::to_string(h.reps) + "\"";
  out += ",\"extra\":\"" +
         join_mapped(h.extra_crash_counts,
                     [](std::size_t k) { return std::to_string(k); }) +
         "\"";
  out += ",\"granularities\":\"" +
         join_mapped(h.granularities,
                     [](double g) { return double_to_hex(g); }) +
         "\"";
  out += ",\"workloads\":\"" +
         json_escape(join_mapped(h.workloads,
                                 [](const std::string& w) { return w; })) +
         "\"";
  out += ",\"scenarios\":\"" +
         json_escape(join_mapped(h.scenarios,
                                 [](const std::string& s) { return s; })) +
         "\"";
  out += ",\"failures\":\"" +
         json_escape(join_mapped(h.failures,
                                 [](const std::string& f) { return f; })) +
         "\"";
  out += ",\"policies\":\"" +
         json_escape(join_mapped(h.policies,
                                 [](const std::string& p) { return p; })) +
         "\"";
  out += ",\"paper\":\"" + json_escape(h.paper_params) + "\"";
  out += ",\"grid\":\"" + std::to_string(h.grid) + "\"";
  out += ",\"selected\":\"" + std::to_string(h.selected) + "\"";
  out += ",\"shard\":\"" + json_escape(h.shard) + "\"}\n";
  return out;
}

void append_sample_records(std::string& out, const SweepPlan& plan,
                           const InstanceCoord& coord,
                           const SeriesSample& sample) {
  for (const auto& [name, value] : sample) {
    const OnlineStats stats = OnlineStats::of(value);
    out += "{\"id\":\"" + std::to_string(coord.id) + "\"";
    out += ",\"w\":\"" + std::to_string(coord.workload) + "\"";
    out += ",\"s\":\"" + std::to_string(coord.scenario) + "\"";
    out += ",\"f\":\"" + std::to_string(coord.failure) + "\"";
    out += ",\"pol\":\"" + std::to_string(coord.policy) + "\"";
    out += ",\"g\":\"" + std::to_string(coord.gran) + "\"";
    out += ",\"r\":\"" + std::to_string(coord.rep) + "\"";
    out += ",\"series\":\"" +
           json_escape(plan.series_label(coord, name)) + "\"";
    out += ",\"n\":\"" + std::to_string(stats.count()) + "\"";
    out += ",\"mean\":\"" + double_to_hex(stats.mean()) + "\"";
    out += ",\"m2\":\"" + double_to_hex(stats.m2()) + "\"";
    out += ",\"min\":\"" + double_to_hex(stats.min()) + "\"";
    out += ",\"max\":\"" + double_to_hex(stats.max()) + "\"}\n";
  }
}

ShardRecord shard_record_from(const FlatJsonObject& object,
                              const std::string& where) {
  ShardRecord record;
  record.coord.id = spec_detail::parse_u64("id", object.field("id", where));
  record.coord.workload = parse_size("w", object.field("w", where));
  record.coord.scenario = parse_size("s", object.field("s", where));
  record.coord.failure = parse_size("f", object.field_or("f", "0"));
  record.coord.policy = parse_size("pol", object.field_or("pol", "0"));
  record.coord.gran = parse_size("g", object.field("g", where));
  record.coord.rep = parse_size("r", object.field("r", where));
  record.series = object.field("series", where);
  record.stats = OnlineStats::from_parts(
      parse_size("n", object.field("n", where)),
      parse_hex("mean", object.field("mean", where), where),
      parse_hex("m2", object.field("m2", where), where),
      parse_hex("min", object.field("min", where), where),
      parse_hex("max", object.field("max", where), where));
  return record;
}

ShardRecord parse_shard_record(const std::string& line,
                               const std::string& where) {
  FlatJsonObject object;
  object.parse(line, where);
  return shard_record_from(object, where);
}

bool undecorate_series(const SweepPlan& plan, const InstanceCoord& coord,
                       std::string& series) {
  // The cell suffix is a pure suffix ("series[w|s|f]"), and
  // series_label(coord, "") renders exactly it (empty for single-cell
  // grids), so stripping is exact — no guessing at '[' characters that may
  // legitimately appear in series names.
  const std::string suffix = plan.series_label(coord, "");
  if (suffix.empty()) return true;
  if (series.size() < suffix.size() ||
      series.compare(series.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
    return false;
  }
  series.resize(series.size() - suffix.size());
  return true;
}

ShardWriterSink::ShardWriterSink(std::ostream& os, const SweepPlan& plan)
    : os_(&os), plan_(&plan) {
  *os_ << render_shard_header(plan);
}

void ShardWriterSink::on_sample(const InstanceCoord& coord,
                                const SeriesSample& sample) {
  buffer_.clear();
  append_sample_records(buffer_, *plan_, coord, sample);
  *os_ << buffer_;
  ++samples_;
}

ShardFile read_shard(std::istream& in, const std::string& name) {
  ShardFile shard;
  // Per-line scratch, allocated once: getline reuses `line`'s capacity,
  // `object` reuses its field strings, and `where` its buffer.
  std::string line;
  std::string where;
  FlatJsonObject object;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Shard files that travelled through a Windows checkout or an editor
    // arrive with CRLF endings; the protocol is the JSON object per line,
    // so a trailing '\r' is transport noise, not content.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    where.assign(name);
    where += ':';
    where += std::to_string(line_no);
    object.parse(line, where);
    if (!have_header) {
      FTSCHED_REQUIRE(object.find("ftsched_sweep_shard") != nullptr,
                      where + ": not a ftsched sweep shard file");
      FTSCHED_REQUIRE(object.field("ftsched_sweep_shard", where) == "1",
                      where + ": unsupported shard protocol version");
      ShardHeader& h = shard.header;
      h.seed = spec_detail::parse_u64("seed", object.field("seed", where));
      h.epsilon = parse_size("epsilon", object.field("epsilon", where));
      h.procs = parse_size("m", object.field("m", where));
      h.reps = parse_size("reps", object.field("reps", where));
      for (const std::string& k :
           split_semicolons(object.field("extra", where))) {
        h.extra_crash_counts.push_back(parse_size("extra", k));
      }
      for (const std::string& g :
           split_semicolons(object.field("granularities", where))) {
        h.granularities.push_back(parse_hex("granularities", g, where));
      }
      h.workloads = split_semicolons(object.field("workloads", where));
      h.scenarios = split_semicolons(object.field("scenarios", where));
      // Pre-failure-dimension shards carry the implicit single eps cell,
      // pre-policy-dimension shards the implicit single none cell.
      h.failures = split_semicolons(object.field_or("failures", "eps"));
      h.policies = split_semicolons(object.field_or("policies", "none"));
      h.paper_params = object.field("paper", where);
      h.grid = spec_detail::parse_u64("grid", object.field("grid", where));
      h.selected =
          spec_detail::parse_u64("selected", object.field("selected", where));
      h.shard = object.field("shard", where);
      have_header = true;
      continue;
    }
    shard.records.push_back(shard_record_from(object, where));
  }
  FTSCHED_REQUIRE(have_header, name + ": empty shard file (missing header)");
  return shard;
}

ShardFile read_shard_file(const std::string& path) {
  std::ifstream in(path);
  FTSCHED_REQUIRE(in.good(), "cannot open shard file: " + path);
  return read_shard(in, path);
}

SweepResult merge_shards(const std::vector<ShardFile>& shards) {
  FTSCHED_REQUIRE(!shards.empty(), "merge_shards: no shard files");

  const ShardHeader& head = shards.front().header;
  const std::string fp = head.fingerprint();
  for (const ShardFile& s : shards) {
    const std::string other = s.header.fingerprint();
    FTSCHED_REQUIRE(other == fp,
                    "merge_shards: shard plan mismatch\n  first: " + fp +
                        "\n  other: " + other);
  }

  SweepResult result;
  result.granularities = head.granularities;
  result.workloads = head.workloads;
  result.scenarios = head.scenarios;
  result.failures = head.failures;
  result.policies = head.policies;
  const std::size_t points = result.granularities.size();
  const std::size_t scenarios = head.scenarios.size();
  const std::size_t failures = head.failures.size();
  const std::size_t policies = head.policies.size();
  const std::size_t reps = head.reps;
  FTSCHED_REQUIRE(failures > 0,
                  "merge_shards: header declares no failure-model cells");
  FTSCHED_REQUIRE(policies > 0,
                  "merge_shards: header declares no policy cells");

  // The header's grid count is redundant with its fingerprint-checked
  // dimensions; cross-check it instead of trusting it (a mangled count
  // must fail loudly, not size the owner vector below).
  const std::uint64_t expected_grid =
      static_cast<std::uint64_t>(head.workloads.size()) * scenarios *
      failures * policies * points * reps;
  FTSCHED_REQUIRE(head.grid == expected_grid,
                  "merge_shards: header grid count " +
                      std::to_string(head.grid) +
                      " inconsistent with its dimensions (" +
                      std::to_string(expected_grid) + " instances)");

  // Overlap/coverage bookkeeping: every full-grid instance must be owned
  // by exactly one shard (each instance emits at least its FaultFree
  // reference series, so record coverage equals instance coverage).
  std::vector<int> owner(static_cast<std::size_t>(head.grid), -1);
  std::vector<const ShardRecord*> records;
  std::size_t total_records = 0;
  for (const ShardFile& s : shards) total_records += s.records.size();
  records.reserve(total_records);
  for (std::size_t si = 0; si < shards.size(); ++si) {
    for (const ShardRecord& r : shards[si].records) {
      FTSCHED_REQUIRE(r.coord.id < head.grid,
                      "merge_shards: record instance id " +
                          std::to_string(r.coord.id) +
                          " outside the grid of " + std::to_string(head.grid));
      // The record's w/s/g/r fields are redundant with its id; aggregating
      // by an inconsistent (corrupted) coordinate would silently land
      // samples on the wrong granularity point, so verify the decomposition.
      const std::uint64_t per_cell =
          static_cast<std::uint64_t>(points) * reps;
      const std::uint64_t ci = r.coord.id / per_cell;
      FTSCHED_REQUIRE(
          r.coord.workload == ci / (scenarios * failures * policies) &&
              r.coord.scenario ==
                  (ci / (failures * policies)) % scenarios &&
              r.coord.failure == (ci / policies) % failures &&
              r.coord.policy == ci % policies &&
              r.coord.gran == (r.coord.id % per_cell) / reps &&
              r.coord.rep == r.coord.id % reps,
          "merge_shards: record coordinates of instance " +
              std::to_string(r.coord.id) +
              " disagree with its id (corrupted shard file?)");
      int& own = owner[static_cast<std::size_t>(r.coord.id)];
      if (own == -1) {
        own = static_cast<int>(si);
      } else {
        FTSCHED_REQUIRE(own == static_cast<int>(si),
                        "merge_shards: overlapping shards — instance " +
                            std::to_string(r.coord.id) +
                            " appears in two shard files");
      }
      records.push_back(&r);
    }
  }
  std::size_t missing = 0;
  std::uint64_t first_missing = 0;
  for (std::size_t id = 0; id < owner.size(); ++id) {
    if (owner[id] == -1) {
      if (missing == 0) first_missing = id;
      ++missing;
    }
  }
  FTSCHED_REQUIRE(missing == 0,
                  "merge_shards: incomplete partition — " +
                      std::to_string(missing) + " of " +
                      std::to_string(head.grid) +
                      " instances missing (first: id " +
                      std::to_string(first_missing) + ")");

  // Canonical coordinate order: ascending full-grid id, exactly the serial
  // aggregation order of the unsharded sweep.  With single-sample records
  // and add() == merge(of(x)), the result below is bit-identical to
  // run_sweep whatever the partition was.
  std::stable_sort(records.begin(), records.end(),
                   [](const ShardRecord* a, const ShardRecord* b) {
                     return a->coord.id < b->coord.id;
                   });
  for (const ShardRecord* r : records) {
    auto& stats = result.series[r->series];
    if (stats.size() != points) {
      stats.resize(points);
    }
    stats[r->coord.gran].merge(r->stats);
  }
  return result;
}

SweepResult merge_shard_files(const std::vector<std::string>& paths) {
  std::vector<ShardFile> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    shards.push_back(read_shard_file(path));
  }
  return merge_shards(shards);
}

}  // namespace ftsched
