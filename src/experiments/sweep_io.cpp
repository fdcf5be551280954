#include "ftsched/experiments/sweep_io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "ftsched/core/scheduler.hpp"
#include "ftsched/platform/failure.hpp"
#include "ftsched/sim/event_sim.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/util/jsonl.hpp"
#include "ftsched/util/spec.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {

namespace {

// The header is one flat JSON object (FlatJsonObject / json_escape in
// util/jsonl.hpp, shared with the coordinator service's frame heads); the
// record lines below it are plain text.

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

std::string join(const std::vector<std::string>& items) {
  return join_mapped(items, [](const std::string& s) { return s; });
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

void append_uint(std::string& out, std::uint64_t v) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, result.ptr);
}

/// Parses the unsigned decimal at the front of `text`, advancing past it.
template <typename T>
bool take_uint(std::string_view& text, T& v) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), v);
  if (result.ec != std::errc{}) return false;
  text.remove_prefix(static_cast<std::size_t>(result.ptr - text.data()));
  return true;
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

/// The plan's header without the numerics fingerprint: everything
/// SweepPlan::fingerprint() needs, so building a plan's identity never
/// runs the numerics probe.
ShardHeader plan_header(const SweepPlan& plan) {
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

/// The grid size the header's dimensions imply.
std::uint64_t grid_of(const ShardHeader& h) {
  return static_cast<std::uint64_t>(h.workloads.size()) * h.scenarios.size() *
         h.failures.size() * h.policies.size() * h.granularities.size() *
         h.reps;
}

ShardHeader parse_header(const std::string& line, const std::string& where) {
  FlatJsonObject object;
  object.parse(line, where);
  const std::string* version = object.find("ftsched_sweep_shard");
  if (version == nullptr) {
    throw InvalidArgument(where + ": not a ftsched sweep shard file");
  }
  if (*version == "1") {
    throw InvalidArgument(where +
                          ": shard format version 1 is no longer read; "
                          "rerun its sweep to write format version 2");
  }
  if (*version != "2") {
    throw InvalidArgument(where + ": unsupported shard format version '" +
                          *version + "'");
  }
  ShardHeader h;
  h.numerics = object.field("numerics", where);
  h.seed = spec_detail::parse_u64("seed", object.field("seed", where));
  h.epsilon = parse_size("epsilon", object.field("epsilon", where));
  h.procs = parse_size("m", object.field("m", where));
  h.reps = parse_size("reps", object.field("reps", where));
  for (const std::string& k : split_semicolons(object.field("extra", where))) {
    h.extra_crash_counts.push_back(parse_size("extra", k));
  }
  for (const std::string& g :
       split_semicolons(object.field("granularities", where))) {
    h.granularities.push_back(parse_hex("granularities", g, where));
  }
  h.workloads = split_semicolons(object.field("workloads", where));
  h.scenarios = split_semicolons(object.field("scenarios", where));
  h.failures = split_semicolons(object.field("failures", where));
  h.policies = split_semicolons(object.field("policies", where));
  h.paper_params = object.field("paper", where);
  h.grid = spec_detail::parse_u64("grid", object.field("grid", where));
  h.selected =
      spec_detail::parse_u64("selected", object.field("selected", where));
  h.shard = object.field("shard", where);
  if (h.grid != grid_of(h)) {
    throw InvalidArgument(where + ": header grid count " +
                          std::to_string(h.grid) +
                          " inconsistent with its dimensions (" +
                          std::to_string(grid_of(h)) + " instances)");
  }
  return h;
}

}  // namespace

std::string ShardHeader::fingerprint() const {
  // The one renderer of the grid identity; SweepPlan::fingerprint()
  // delegates here.
  std::string fp = "v1 seed=" + std::to_string(seed);
  fp += " eps=" + std::to_string(epsilon);
  fp += " m=" + std::to_string(procs);
  fp += " reps=" + std::to_string(reps);
  fp += " extra=" + join_mapped(extra_crash_counts, [](std::size_t k) {
          return std::to_string(k);
        });
  fp += " granularities=" +
        join_mapped(granularities, [](double g) { return double_to_hex(g); });
  fp += " workloads=" + join(workloads);
  fp += " scenarios=" + join(scenarios);
  fp += " failures=" + join(failures);
  fp += " policies=" + join(policies);
  fp += " paper=" + paper_params;
  return fp;
}

std::string SweepPlan::fingerprint() const {
  // Defined here rather than in sweep_plan.cpp so the grid identity has a
  // single renderer: the one merge_shards compares headers with.
  return plan_header(*this).fingerprint();
}

const std::string& numerics_fingerprint() {
  static const std::string digest = [] {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the bit patterns
    const auto mix = [&h](double x) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xff;
        h *= 1099511628211ull;
      }
    };
    // Two granularities: a contracting build moves the bounds of each in
    // the last bit, but not every instance shows it (24 tasks at 0.7 does
    // not).
    Rng rng(20080414);
    PaperWorkloadParams params;
    params.task_min = params.task_max = 24;
    params.proc_count = 5;
    for (const double granularity : {0.2, 1.6}) {
      params.granularity = granularity;
      const auto workload = make_paper_workload(rng, params);
      for (const char* spec : {"ftsa", "mc-ftsa", "ftbar"}) {
        const ReplicatedSchedule schedule =
            make_scheduler(spec, {{"eps", "1"}, {"seed", "1"}})
                ->run(workload->costs());
        mix(schedule.lower_bound());
        mix(schedule.upper_bound());
        if (std::string_view(spec) != "ftsa") continue;
        FailureScenario crash;  // one crash halfway to M*
        crash.add(ProcId{0}, 0.5 * schedule.lower_bound());
        mix(ScheduleSimulator(schedule).run_summary(crash).latency);
      }
    }
    for (const char* law : {"t0", "frac:f=0.5", "uniform:hi=1", "exp:mean=0.5"}) {
      mix(CrashTimeLaw::parse(law).sample(rng, 1).front());
    }
    std::string out(16, '0');
    const auto result = std::to_chars(out.data(), out.data() + 16, h, 16);
    std::rotate(out.begin(), out.begin() + (result.ptr - out.data()),
                out.end());  // left-pad with the zeros to_chars skipped
    return out;
  }();
  return digest;
}

ShardHeader shard_header(const SweepPlan& plan) {
  ShardHeader h = plan_header(plan);
  h.numerics = numerics_fingerprint();
  return h;
}

std::string render_shard_header(const SweepPlan& plan) {
  const ShardHeader h = shard_header(plan);
  std::string out = "{\"ftsched_sweep_shard\":2";
  out += ",\"numerics\":\"" + h.numerics + "\"";
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
  out += ",\"workloads\":\"" + json_escape(join(h.workloads)) + "\"";
  out += ",\"scenarios\":\"" + json_escape(join(h.scenarios)) + "\"";
  out += ",\"failures\":\"" + json_escape(join(h.failures)) + "\"";
  out += ",\"policies\":\"" + json_escape(join(h.policies)) + "\"";
  out += ",\"paper\":\"" + json_escape(h.paper_params) + "\"";
  out += ",\"grid\":\"" + std::to_string(h.grid) + "\"";
  out += ",\"selected\":\"" + std::to_string(h.selected) + "\"";
  out += ",\"shard\":\"" + json_escape(h.shard) + "\"}\n";
  return out;
}

// ----------------------------------------------------------- record lines

void ShardLineWriter::append(std::string& out, std::uint64_t id,
                             const SeriesSample& sample) {
  for (const auto& [name, value] : sample) {
    (void)value;
    const auto [it, fresh] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(ids_.size()));
    if (!fresh) continue;
    FTSCHED_REQUIRE(!name.empty() && name.find_first_of("\r\n") ==
                                         std::string::npos,
                    "series name cannot go on one shard line: '" + name + "'");
    out += "s ";
    append_uint(out, it->second);
    out += ' ';
    out += name;
    out += '\n';
  }
  append_uint(out, id);
  char buffer[40];
  for (const auto& [name, value] : sample) {
    out += ' ';
    append_uint(out, ids_.find(name)->second);
    out += ':';
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                      std::chars_format::hex);
    out.append(buffer, result.ptr);
  }
  out += '\n';
}

bool ShardLineReader::parse(std::string_view line, std::uint64_t& id,
                            ShardValues& values) {
  if (line.size() >= 2 && line[0] == 's' && line[1] == ' ') {
    std::string_view rest = line.substr(2);
    std::uint64_t sid = 0;
    if (!take_uint(rest, sid) || rest.size() < 2 || rest[0] != ' ') {
      throw InvalidArgument("malformed series declaration '" +
                            std::string(line) + "'");
    }
    if (sid < series_.size()) {
      throw InvalidArgument("series id " + std::to_string(sid) +
                            " declared twice");
    }
    if (sid != series_.size()) {
      throw InvalidArgument("series id " + std::to_string(sid) +
                            " declared out of order (next id is " +
                            std::to_string(series_.size()) + ")");
    }
    std::string name(rest.substr(1));
    if (!names_.insert(name).second) {
      throw InvalidArgument("series '" + name + "' declared twice");
    }
    series_.push_back(std::move(name));
    seen_.push_back(0);
    return false;
  }

  std::string_view rest = line;
  if (!take_uint(rest, id) || (!rest.empty() && rest[0] != ' ')) {
    throw InvalidArgument("malformed record '" + std::string(line) + "'");
  }
  ++records_;
  values.clear();
  while (!rest.empty()) {
    rest.remove_prefix(1);  // the ' ' checked above or below
    const std::string_view pair = rest.substr(0, rest.find(' '));
    std::uint32_t sid = 0;
    double value = 0.0;
    if (!take_uint(rest, sid) || rest.empty() || rest[0] != ':') {
      throw InvalidArgument("malformed value '" + std::string(pair) +
                            "' (expected <series id>:<hex-float>)");
    }
    rest.remove_prefix(1);
    const auto result = std::from_chars(
        rest.data(), rest.data() + rest.size(), value, std::chars_format::hex);
    if (result.ec != std::errc{} ||
        (result.ptr != rest.data() + rest.size() && *result.ptr != ' ')) {
      throw InvalidArgument("value '" + std::string(pair) +
                            "' is not one hex-float");
    }
    rest.remove_prefix(static_cast<std::size_t>(result.ptr - rest.data()));
    if (sid >= series_.size()) {
      throw InvalidArgument("undeclared series id " + std::to_string(sid));
    }
    if (seen_[sid] == records_) {
      throw InvalidArgument("series id " + std::to_string(sid) +
                            " repeated in one record");
    }
    seen_[sid] = records_;
    values.emplace_back(sid, value);
  }
  return true;
}

// ------------------------------------------------------------ shard files

ShardWriterSink::ShardWriterSink(std::ostream& os, const SweepPlan& plan)
    : os_(&os) {
  *os_ << render_shard_header(plan);
}

void ShardWriterSink::on_sample(const InstanceCoord& coord,
                                const SeriesSample& sample) {
  buffer_.clear();
  lines_.append(buffer_, coord.id, sample);
  *os_ << buffer_;
  ++samples_;
}

ShardFile read_shard(std::istream& in, const std::string& name) {
  ShardFile shard;
  shard.name = name;
  ShardLineReader reader;
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  ShardSample sample;
  const auto where = [&] { return name + ":" + std::to_string(line_no); };
  while (std::getline(in, line)) {
    ++line_no;
    // Shard files that travelled through a Windows checkout or an editor
    // arrive with CRLF endings; a trailing '\r' is transport noise.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!have_header) {
      shard.header = parse_header(line, where());
      have_header = true;
      continue;
    }
    try {
      if (!reader.parse(line, sample.id, sample.values)) continue;
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(where() + ": " + e.what());
    }
    if (sample.id >= shard.header.grid) {
      throw InvalidArgument(where() + ": instance id " +
                            std::to_string(sample.id) +
                            " outside the grid of " +
                            std::to_string(shard.header.grid));
    }
    shard.samples.push_back(sample);
  }
  FTSCHED_REQUIRE(have_header, name + ": empty shard file (missing header)");
  shard.series = reader.series();
  return shard;
}

ShardFile read_shard_file(const std::string& path) {
  std::ifstream in(path);
  FTSCHED_REQUIRE(in.good(), "cannot open shard file: " + path);
  return read_shard(in, path);
}

SweepResult merge_shards(const std::vector<ShardFile>& shards) {
  FTSCHED_REQUIRE(!shards.empty(), "merge_shards: no shard files");

  const ShardFile& first = shards.front();
  const ShardHeader& head = first.header;
  const std::string fp = head.fingerprint();
  for (const ShardFile& s : shards) {
    const std::string other = s.header.fingerprint();
    if (other != fp) {
      throw InvalidArgument("merge_shards: " + s.name +
                            " belongs to another plan\n  " + first.name +
                            ": " + fp + "\n  " + s.name + ": " + other);
    }
    if (s.header.numerics != head.numerics) {
      throw InvalidArgument(
          "merge_shards: " + s.name + " has numerics fingerprint " +
          s.header.numerics + " but " + first.name + " has " + head.numerics +
          " — builds that compute different bits cannot be mixed");
    }
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
  // read_shard checks this too; headers built in memory meet it here.
  FTSCHED_REQUIRE(head.grid == grid_of(head),
                  "merge_shards: header grid count " +
                      std::to_string(head.grid) +
                      " inconsistent with its dimensions (" +
                      std::to_string(grid_of(head)) + " instances)");

  // Every full-grid instance must be owned by exactly one record line.
  struct Entry {
    std::uint64_t id;
    std::size_t shard;
    const ShardValues* values;
  };
  std::vector<int> owner(static_cast<std::size_t>(head.grid), -1);
  std::vector<Entry> entries;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const ShardFile& s = shards[si];
    for (const ShardSample& sample : s.samples) {
      if (sample.id >= head.grid) {
        throw InvalidArgument("merge_shards: " + s.name + ": instance id " +
                              std::to_string(sample.id) +
                              " outside the grid of " +
                              std::to_string(head.grid));
      }
      int& own = owner[static_cast<std::size_t>(sample.id)];
      if (own != -1) {
        throw InvalidArgument(
            "merge_shards: instance " + std::to_string(sample.id) +
            " appears twice (" + shards[static_cast<std::size_t>(own)].name +
            ", " + s.name + ")");
      }
      own = static_cast<int>(si);
      for (const auto& [sid, value] : sample.values) {
        (void)value;
        FTSCHED_REQUIRE(sid < s.series.size(),
                        "merge_shards: " + s.name +
                            ": undeclared series id " + std::to_string(sid));
      }
      entries.push_back({sample.id, si, &sample.values});
    }
  }
  const auto missing = static_cast<std::size_t>(
      std::count(owner.begin(), owner.end(), -1));
  if (missing != 0) {
    const auto first_missing = std::find(owner.begin(), owner.end(), -1);
    throw InvalidArgument("merge_shards: incomplete partition — " +
                          std::to_string(missing) + " of " +
                          std::to_string(head.grid) +
                          " instances missing (first: id " +
                          std::to_string(first_missing - owner.begin()) + ")");
  }

  // Canonical coordinate order: ascending full-grid id, exactly the serial
  // aggregation order of the unsharded sweep.  With add() == merge(of(x)),
  // the result below is bit-identical to run_sweep whatever the partition.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  // by_sid[shard][cell][sid]: the decorated column a shard's series id
  // lands in for one (workload, scenario, failure, policy) cell, resolved
  // on first use.
  using Column = std::vector<OnlineStats>;
  const std::size_t cells = head.workloads.size() * scenarios * failures *
                            policies;
  std::vector<std::vector<std::vector<Column*>>> by_sid(
      shards.size(), std::vector<std::vector<Column*>>(cells));
  const std::uint64_t per_cell = static_cast<std::uint64_t>(points) * reps;
  for (const Entry& e : entries) {
    const auto cell = static_cast<std::size_t>(e.id / per_cell);
    const auto gran = static_cast<std::size_t>((e.id % per_cell) / reps);
    const ShardFile& s = shards[e.shard];
    std::vector<Column*>& lookup = by_sid[e.shard][cell];
    if (lookup.empty()) lookup.assign(s.series.size(), nullptr);
    for (const auto& [sid, value] : *e.values) {
      Column*& column = lookup[sid];
      if (column == nullptr) {
        const std::size_t w = cell / (scenarios * failures * policies);
        const std::size_t sc = (cell / (failures * policies)) % scenarios;
        const std::size_t f = (cell / policies) % failures;
        const std::size_t pol = cell % policies;
        column = &result.series[decorate_series_name(
            s.series[sid], head.workloads[w], head.scenarios[sc], cells > 1,
            head.failures[f], failures > 1, head.policies[pol],
            policies > 1)];
        column->resize(points);
      }
      (*column)[gran].merge(OnlineStats::of(value));
    }
  }
  return result;
}

}  // namespace ftsched
