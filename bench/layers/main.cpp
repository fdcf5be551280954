// bench_layers entry point: argument parsing, the metric record, the span
// recorder and the statistics helpers shared by the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "bench_layers.hpp"
#include "ftsched/core/schedule.hpp"
#include "ftsched/util/jsonl.hpp"

namespace bench {

namespace {

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  return "\"" + ftsched::json_escape(text) + "\"";
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

void Record::metric(std::string name, std::string unit, double value) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({std::move(name), std::move(unit), value});
}

void Record::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Record::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Record::items(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Record::json(const Args& args) const {
  std::string out = "{\"workload\":" + quoted(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"seconds\":" + number(args.seconds) +
                    ",\"correct\":" + (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? "," : "") + quoted(errors_[i]);
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out += (i ? "," : "") + quoted(notes_[i].first) + ":" +
           quoted(notes_[i].second);
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? "," : "") + quoted(m.name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::string Record::table() const {
  std::ostringstream os;
  for (const Metric& m : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-40s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << buf;
  }
  for (const auto& [key, value] : notes_) os << "  " << key << " " << value << '\n';
  for (const std::string& e : errors_) os << "  FAILED: " << e << '\n';
  return os.str();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage usage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.self_cpu_s = seconds_of(self.ru_utime) + seconds_of(self.ru_stime);
  u.child_cpu_s = seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
  u.self_rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
  u.child_rss_mb = static_cast<double>(children.ru_maxrss) / 1024.0;
  return u;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n < rank + 10) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[rank - 1];
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t replica_total(const ftsched::ReplicatedSchedule& schedule) {
  std::size_t total = 0;
  for (std::size_t t = 0; t < schedule.graph().task_count(); ++t) {
    total += schedule.replicas(ftsched::TaskId{t}).size();
  }
  return total;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Trace::Scope::Scope(Trace& trace, std::string name, std::int64_t group)
    : trace_(&trace), id_(static_cast<int>(trace.spans_.size())) {
  const int parent = trace.open_.empty() ? -1 : trace.open_.back();
  trace.spans_.push_back({std::move(name), 0.0, 0.0, parent, group});
  trace.open_.push_back(id_);
  trace.spans_[id_].start = now_s();
}

Trace::Scope::~Scope() {
  trace_->spans_[id_].end = now_s();
  trace_->open_.pop_back();
}

double Trace::Scope::seconds() const {
  return now_s() - trace_->spans_[id_].start;
}

double Trace::busy(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::vector<double> Trace::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

std::vector<double> Trace::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
    }
  }
  return self;
}

double Trace::self_busy(const std::string& name) const {
  const std::vector<double> self = self_times();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  const std::vector<double> self = self_times();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name = s.name;
    const std::string layer(name.substr(0, std::min(name.find('.'), name.size())));
    os << (i ? ",\n" : "") << "{\"name\":" << quoted(s.name)
       << ",\"cat\":" << quoted(layer) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << number((s.start - origin) * 1e6)
       << ",\"dur\":" << number((s.end - s.start) * 1e6)
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << ",\"self_us\":" << number(self[i] * 1e6)
       << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

void add_core_latency(const Trace& trace, std::map<std::string, double>& values) {
  for (const char* name : {"core.ftsa", "core.mc_ftsa", "core.ftbar"}) {
    const std::vector<double> ms = trace.durations_ms(name);
    for (const auto& [label, q] : {std::pair{".p50", 0.5}, std::pair{".p90", 0.9}}) {
      if (const auto p = percentile(ms, q)) {
        values[std::string(name) + "_ms" + label] = *p;
      }
    }
  }
}

namespace {

std::string unit_of(const std::string& name) {
  const auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_s")) return "s";
  if (name.find("_ms.") != std::string::npos) return "ms";
  if (ends_with("_bytes")) return "bytes";
  if (ends_with("_share") || ends_with("_efficiency") ||
      ends_with("accounted_ratio") || ends_with("hit_ratio") ||
      ends_with("success_ratio")) {
    return "fraction";
  }
  if (ends_with("_ratio")) return "ratio";
  return "count";
}

}  // namespace

void report_iterations(const Args& args, const std::vector<Iteration>& iterations,
                       Record& record) {
  const Iteration& first = iterations.front();
  for (const auto& [name, value] : first.counters) {
    record.metric(name, unit_of(name), value);
  }
  for (const Iteration& it : iterations) {
    record.check(it.counters == first.counters,
                 "deterministic counters differ between traced iterations");
  }
  for (const auto& [name, value] : first.values) {
    std::vector<double> all;
    for (const Iteration& it : iterations) {
      const auto found = it.values.find(name);
      if (found != it.values.end()) all.push_back(found->second);
    }
    record.metric(name, unit_of(name), median(all));
  }
  record.metric("core.samples", "count",
                static_cast<double>(first.trace.durations_ms("core.ftsa").size()));
  record.metric("trace.iterations", "iterations", static_cast<double>(iterations.size()));
  const std::string path = args.out + "/trace-" + args.workload + ".json";
  first.trace.write_chrome(path);
  record.note("trace_file", path);
}

}  // namespace bench

namespace {

constexpr const char* kUsage =
    "usage: bench_layers --workload NAME [--seed N] [--seconds S] "
    "[--trace 0|1] [--out DIR] [--cli PATH]\n"
    "workloads: fig1-grid repair-policies socket-fleet table1-n1000\n";

bench::Args parse_args(int argc, char** argv) {
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--cli") {
      args.cli = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n' << kUsage;
    return 2;
  }
  bench::Record record;
  try {
    std::filesystem::create_directories(args.out);
    if (args.workload == "table1-n1000") {
      bench::run_table1_workload(args, record);
    } else if (args.workload == "fig1-grid" ||
               args.workload == "repair-policies" ||
               args.workload == "socket-fleet") {
      bench::run_sweep_workload(args, record);
    } else {
      std::cerr << "error: unknown workload '" << args.workload << "'\n"
                << kUsage;
      return 2;
    }
  } catch (const std::exception& e) {
    // The run stopped short: count it as one failed item so the record
    // still shows an attempt.
    record.items(1, 1);
    record.check(false, std::string("aborted: ") + e.what());
  }
  const std::string path = args.out + "/record-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << record.json(args) << '\n';
  file.close();
  if (!file) {
    std::cerr << "error: cannot write " << path << '\n';
    return 1;
  }
  std::cout << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << '\n'
            << record.table() << "record: " << path << '\n';
  return record.correct() ? 0 : 1;
}
