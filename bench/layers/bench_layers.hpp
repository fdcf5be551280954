// bench_layers: the repository's end-to-end and per-layer benchmark.
//
// One process runs one workload.  With --trace 0 it measures the
// end-to-end metrics a user of ftsched sees (set-up time, throughput,
// time to the first result, CPU per item, peak memory) over timed passes
// of the real entry points (run_plan behind a SweepBackend, or
// Scheduler::run).  With --trace 1 it replays the same work through the
// public calls of each layer, one at a time, recording a span around
// every call, and reports busy time and counters per layer.  Spans are
// recorded here, around the calls; nothing inside the library is traced.
//
// Every metric goes into a JSON record file; run.sh selects the ones
// BENCHMARK.json declares for the final result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ftsched {
class ReplicatedSchedule;
}

namespace bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "build/bench_layers";
  std::string cli;  ///< ftsched_cli binary the socket workers run
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one workload process measured and checked.
class Record {
 public:
  void metric(std::string name, std::string unit, double value);
  void note(std::string key, std::string value);
  /// Records an oracle; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Adds `attempted` items, `failed` of them failed.
  void items(std::uint64_t attempted, std::uint64_t failed = 0);

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] std::string json(const Args& args) const;
  /// Human-readable "name value unit" lines.
  [[nodiscard]] std::string table() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_s();

/// getrusage snapshot: CPU seconds (user + system) and peak RSS in MB, of
/// this process and of its waited-for children (peak = largest child).
struct Usage {
  double self_cpu_s = 0.0;
  double child_cpu_s = 0.0;
  double self_rss_mb = 0.0;
  double child_rss_mb = 0.0;
};
[[nodiscard]] Usage usage();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank q-quantile; empty when fewer than 10 samples lie beyond it
/// (so a p90 needs at least 100 samples and a p99 at least 1000).
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double q);
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);
[[nodiscard]] std::string hex64(std::uint64_t value);
/// Replicas placed over all tasks (FTBAR may place more than ε+1).
[[nodiscard]] std::size_t replica_total(const ftsched::ReplicatedSchedule& schedule);

/// In-memory span recorder for one thread.  A span's parent is the
/// innermost span open when it starts; spans of one sweep group carry the
/// group id.
class Trace {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::int64_t group = -1;
  };

  class Scope {
   public:
    Scope(Trace& trace, std::string name, std::int64_t group = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    [[nodiscard]] double seconds() const;

   private:
    Trace* trace_;
    int id_;
  };

  /// Summed duration of every span called `name` (busy seconds).
  [[nodiscard]] double busy(const std::string& name) const;
  /// Durations of every span called `name`, in milliseconds.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Span durations minus the time their children cover.
  [[nodiscard]] std::vector<double> self_times() const;
  /// Summed self time of every span called `name`.
  [[nodiscard]] double self_busy(const std::string& name) const;
  /// Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One traced sequence of a workload: its spans, its deterministic
/// counters (in report order) and its measured per-layer values.
struct Iteration {
  Trace trace;
  std::vector<std::pair<std::string, double>> counters;
  std::map<std::string, double> values;
};

/// Adds core.{ftsa,mc_ftsa,ftbar}_ms.{p50,p90} from the core spans.
void add_core_latency(const Trace& trace, std::map<std::string, double>& values);

/// Reports traced iterations: the median of every measured value, the
/// counters (which must repeat exactly across iterations) and the first
/// iteration's spans as <out>/trace-<workload>.json.
void report_iterations(const Args& args, const std::vector<Iteration>& iterations,
                       Record& record);

void run_sweep_workload(const Args& args, Record& record);
void run_table1_workload(const Args& args, Record& record);

}  // namespace bench
