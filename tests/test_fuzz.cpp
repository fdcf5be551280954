// Fuzz-style property tests: random mutations of valid schedules must be
// caught by the validator; random graph serialization round trips; mutated
// outside input (spec strings, shard files, protocol frames) is accepted or
// rejected with an ftsched::Error naming it; signed or oversized integer
// fields in graph and schedule text, and malformed shard lines, are
// rejected naming their line; merge refuses shards whose numerics differ;
// the umbrella header compiles and exposes the API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ftsched/ftsched.hpp"
#include "proptest.hpp"

namespace ftsched {
namespace {

std::unique_ptr<Workload> small_workload(std::uint64_t seed,
                                         std::size_t procs = 5,
                                         std::size_t tasks = 15) {
  Rng rng(seed);
  PaperWorkloadParams params;
  params.task_min = params.task_max = tasks;
  params.proc_count = procs;
  return make_paper_workload(rng, params);
}

/// Rebuilds a schedule from `s` applying `mutate` to the serialized
/// replica data, then reports whether validate() rejects it.
enum class Mutation {
  kShiftStartEarlier,   // replica starts before its inputs arrive
  kShrinkDuration,      // duration no longer matches E(t, P)
  kMoveToUsedProc,      // two replicas of one task on the same processor
  kDropChannel,         // a replica loses an inbound channel
  kOverlapOnProcessor,  // two replicas overlap on one processor
};

bool mutation_rejected(const ReplicatedSchedule& original,
                       const CostModel& costs, Mutation mutation, Rng& rng) {
  const TaskGraph& g = costs.graph();
  // Deep-copy replica and channel data.
  std::vector<std::vector<Replica>> replicas(g.task_count());
  for (TaskId t : g.tasks()) replicas[t.index()] = original.replicas(t);
  std::vector<std::vector<Channel>> channels(g.edge_count());
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto cs = original.channels(e);
    channels[e].assign(cs.begin(), cs.end());
  }

  // Pick a random task with predecessors (most mutations need one).
  std::vector<TaskId> candidates;
  for (TaskId t : g.tasks()) {
    if (g.in_degree(t) > 0) candidates.push_back(t);
  }
  if (candidates.empty()) return true;  // nothing to mutate
  const TaskId victim = candidates[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(candidates.size()) - 1))];
  auto& reps = replicas[victim.index()];

  switch (mutation) {
    case Mutation::kShiftStartEarlier: {
      // Move the replica's whole slot well before time 0 arrivals allow;
      // keep duration consistent so only the precedence check can fire.
      Replica& r = reps[0];
      if (r.start <= 1e-9) return true;  // already at zero; skip
      const double shift = r.start;  // start at 0: inputs cannot be there
      r.start -= shift;
      r.finish -= shift;
      r.pess_start = std::max(r.pess_start - shift, r.start);
      r.pess_finish = r.pess_start + (r.finish - r.start);
      break;
    }
    case Mutation::kShrinkDuration: {
      Replica& r = reps[0];
      r.finish = r.start + 0.5 * (r.finish - r.start);
      r.pess_finish = std::max(r.pess_finish, r.finish);
      break;
    }
    case Mutation::kMoveToUsedProc: {
      if (reps.size() < 2) return true;
      reps[0].proc = reps[1].proc;  // Prop 4.1 violation
      break;
    }
    case Mutation::kDropChannel: {
      const auto in = g.in_edges(victim);
      const std::size_t e = in[0];
      auto& cs = channels[e];
      // Remove every channel into replica 0 of the victim.
      cs.erase(std::remove_if(cs.begin(), cs.end(),
                              [](const Channel& c) {
                                return c.dst_replica == 0;
                              }),
               cs.end());
      break;
    }
    case Mutation::kOverlapOnProcessor: {
      // Stretch replica 0 far enough to overlap the next slot on its
      // processor, keeping exec-duration mismatch out of the picture by
      // instead moving another replica of the same proc earlier.
      const ProcId p = reps[0].proc;
      // Find some other replica on p and slam it into reps[0]'s window.
      for (TaskId t : g.tasks()) {
        if (t == victim) continue;
        for (Replica& other : replicas[t.index()]) {
          if (other.proc == p) {
            const double duration = other.finish - other.start;
            other.start = reps[0].start;
            other.finish = other.start + duration;
            other.pess_start = std::max(other.pess_start, other.start);
            other.pess_finish =
                std::max(other.pess_finish, other.finish);
            goto mutated;
          }
        }
      }
      return true;  // no second replica on that processor; skip
    mutated:
      break;
    }
  }

  ReplicatedSchedule corrupted(costs, original.epsilon(), "fuzz");
  for (TaskId t : g.tasks()) {
    corrupted.place_task(t, replicas[t.index()]);
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    corrupted.set_channels(e, channels[e]);
  }
  try {
    corrupted.validate();
    return false;  // mutation slipped through
  } catch (const Error&) {
    return true;
  }
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, ValidatorCatchesCorruptions) {
  const auto w = small_workload(GetParam());
  const auto s = ftsa_schedule(w->costs(), FtsaOptions{1, GetParam()});
  Rng rng(GetParam() * 977);
  for (const Mutation mutation :
       {Mutation::kShiftStartEarlier, Mutation::kShrinkDuration,
        Mutation::kMoveToUsedProc, Mutation::kDropChannel,
        Mutation::kOverlapOnProcessor}) {
    for (int trial = 0; trial < 5; ++trial) {
      EXPECT_TRUE(mutation_rejected(s, w->costs(), mutation, rng))
          << "mutation " << static_cast<int>(mutation)
          << " not rejected (trial " << trial << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Serialization fuzz: random graphs of every family round-trip exactly.
class SerializeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeFuzz, GraphRoundTrips) {
  Rng rng(GetParam());
  std::vector<TaskGraph> graphs;
  {
    LayeredDagParams lp;
    lp.task_count = 30 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    graphs.push_back(make_layered_dag(rng, lp));
    GnpDagParams gp;
    gp.task_count = 25;
    graphs.push_back(make_gnp_dag(rng, gp));
    graphs.push_back(make_series_parallel(rng, 40));
    graphs.push_back(make_cholesky(4));
    graphs.push_back(make_lu(3));
  }
  for (const TaskGraph& g : graphs) {
    const TaskGraph h = graph_from_string(graph_to_string(g));
    ASSERT_EQ(h.task_count(), g.task_count()) << g.name();
    ASSERT_EQ(h.edge_count(), g.edge_count()) << g.name();
    for (const Edge& e : g.edges()) {
      EXPECT_TRUE(h.has_edge(e.src, e.dst));
      EXPECT_DOUBLE_EQ(h.volume(e.src, e.dst), e.volume);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u));

// Schedule round-trip fuzz across algorithms and epsilons.
class ScheduleIoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleIoFuzz, AllAlgorithmsRoundTrip) {
  const auto w = small_workload(GetParam());
  std::vector<ReplicatedSchedule> schedules;
  schedules.push_back(ftsa_schedule(w->costs(), FtsaOptions{2, GetParam()}));
  schedules.push_back(
      mc_ftsa_schedule(w->costs(), McFtsaOptions{1, GetParam()}));
  FtbarOptions bo;
  bo.npf = 1;
  bo.seed = GetParam();
  schedules.push_back(ftbar_schedule(w->costs(), bo));
  schedules.push_back(heft_schedule(w->costs()));
  schedules.push_back(cpop_schedule(w->costs()));
  for (const ReplicatedSchedule& s : schedules) {
    const auto reloaded =
        schedule_from_string(schedule_to_string(s), w->costs());
    EXPECT_DOUBLE_EQ(reloaded.lower_bound(), s.lower_bound())
        << s.algorithm();
    EXPECT_DOUBLE_EQ(reloaded.upper_bound(), s.upper_bound())
        << s.algorithm();
    EXPECT_EQ(reloaded.channel_count(), s.channel_count()) << s.algorithm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleIoFuzz,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ------------------------------------------------- outside-input mutations

std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Bytes a mutation inserts or substitutes: the separators and number
/// characters the parsers branch on, plus control and high bytes.
constexpr char kAlphabet[] = ":,=;.-+eE0123456789xpk \"{}[]\\\n\t\x01\x7f\xff";

/// One to three random edits of `input`: flip, insert, erase, duplicate a
/// span, truncate, or splice two positions.
std::string mutate(Rng& rng, std::string input) {
  const std::size_t edits = 1 + below(rng, 3);
  for (std::size_t i = 0; i < edits; ++i) {
    const std::size_t at = input.empty() ? 0 : below(rng, input.size());
    const char c = kAlphabet[below(rng, sizeof(kAlphabet) - 1)];
    switch (below(rng, 6)) {
      case 0:
        if (!input.empty()) input[at] = c;
        break;
      case 1:
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      case 2:
        if (!input.empty()) input.erase(at, 1 + below(rng, 4));
        break;
      case 3:
        if (!input.empty()) {
          input.insert(at, input.substr(at, 1 + below(rng, 8)));
        }
        break;
      case 4:
        input.resize(at);
        break;
      default:
        if (!input.empty()) {
          std::swap(input[at], input[below(rng, input.size())]);
        }
        break;
    }
  }
  return input;
}

/// True when `message` names the input: it contains `label` (the input's
/// kind or file name) or quotes a non-empty fragment of `input`.  what()
/// ends at the first NUL byte, so a quote that a NUL of the input cut
/// short counts up to the end of the message.
bool names_input(const std::string& message, const std::string& input,
                 const std::string& label) {
  if (message.find(label) != std::string::npos) return true;
  for (std::size_t open = message.find('\''); open != std::string::npos;) {
    std::size_t close = message.find('\'', open + 1);
    if (close == std::string::npos) close = message.size();
    const std::string fragment = message.substr(open + 1, close - open - 1);
    if (!fragment.empty() && input.find(fragment) != std::string::npos) {
      return true;
    }
    open = message.find('\'', close + 1);
  }
  return false;
}

using Parser = std::function<void(const std::string&)>;

/// Feeds `input` to `parse`: it is accepted, or it throws an ftsched::Error
/// that names it (names_input).  Any other exception is a failure.
void expect_clean_outcome(const std::string& input, const std::string& label,
                          const Parser& parse) {
  try {
    parse(input);
  } catch (const Error& e) {
    EXPECT_TRUE(names_input(e.what(), input, label))
        << "error names neither '" << label << "' nor the input: " << e.what()
        << "\n  input: " << input;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ftsched exception: " << e.what()
                  << "\n  input: " << input;
  } catch (...) {
    ADD_FAILURE() << "non-std exception\n  input: " << input;
  }
}

/// Checks every seed, then mutates each one 20 times per iteration.
void fuzz_parser(const char* property, const std::vector<std::string>& seeds,
                 const std::string& label, const Parser& parse) {
  for (const std::string& seed : seeds) {
    expect_clean_outcome(seed, label, parse);
  }
  proptest::check(
      property,
      [&](Rng& rng, std::uint64_t) {
        for (const std::string& seed : seeds) {
          for (int round = 0; round < 20; ++round) {
            expect_clean_outcome(mutate(rng, seed), label, parse);
          }
        }
      },
      {.iterations = 20});
}

TEST(InputFuzz, FailureModelSpecs) {
  fuzz_parser("mutated FailureModel specs: accepted or a clean Error",
              {"eps", "fixed:k=3", "bernoulli:p=0.3", "repair:p=0.3,mttr=0.5",
               "burst:p=0.2,width=0.25,mttr=0.5", "hetero:base=0.1,spread=1",
               "domain:size=4", "bernoulli:p=0.1,domain=4"},
              "failure model", [](const std::string& spec) {
                // An accepted spec renders a canonical form that round-trips.
                const std::string canonical =
                    FailureModel::parse(spec).to_string();
                EXPECT_EQ(FailureModel::parse(canonical).to_string(),
                          canonical);
              });
}

TEST(InputFuzz, CrashTimeLawSpecs) {
  fuzz_parser("mutated CrashTimeLaw specs: accepted or a clean Error",
              {"t0", "frac:f=0.5", "uniform:hi=1", "exp:mean=0.5"},
              "crash law", [](const std::string& spec) {
                const std::string canonical =
                    CrashTimeLaw::parse(spec).to_string();
                EXPECT_EQ(CrashTimeLaw::parse(canonical).to_string(),
                          canonical);
              });
}

TEST(InputFuzz, RegistrySpecs) {
  fuzz_parser("mutated scheduler specs: accepted or a clean Error",
              {"ftsa:eps=2,prio=bl", "mc-ftsa:selector=matching",
               "ftbar:npf=1", "heft", "random:seed=5"},
              "scheduler",
              [](const std::string& spec) { (void)make_scheduler(spec); });
  fuzz_parser("mutated workload specs: accepted or a clean Error",
              {"paper:tmin=15,tmax=18", "fft:size=16", "chain:size=12",
               "layered:tasks=25"},
              "workload",
              [](const std::string& spec) {
                (void)make_workload_family(spec);
              });
  fuzz_parser("mutated policy specs: accepted or a clean Error",
              {"none", "requeue-heft", "reactive-ftsa"}, "policy",
              [](const std::string& spec) {
                (void)make_reschedule_policy(spec);
              });
  fuzz_parser("mutated backend specs: accepted or a clean Error",
              {"inproc:threads=2", "socket:workers=2,lease=5,bin=cli"},
              "backend",
              [](const std::string& spec) { (void)make_sweep_backend(spec); });
}

/// A complete shard of a small two-failure-cell plan.
std::string small_shard_text() {
  FigureConfig config = figure_config(1);
  config.granularities = {0.5};
  config.graphs_per_point = 1;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 3;
  config.threads = 1;
  config.failure_models = {"eps", "bernoulli:p=0.3"};
  const SweepPlan plan(config);
  std::ostringstream os;
  ShardWriterSink sink(os, plan);
  run_plan(plan, sink);
  return os.str();
}

TEST(InputFuzz, ShardFiles) {
  fuzz_parser("mutated shard files: read or a clean Error",
              {small_shard_text()}, "fuzz.jsonl",
              [](const std::string& text) {
                std::istringstream in(text);
                (void)read_shard(in, "fuzz.jsonl");
              });
}

/// `payload` with its 4-byte big-endian length prefix.
std::string frame(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((n >> shift) & 0xff));
  }
  return out + payload;
}

TEST(InputFuzz, ProtocolFrames) {
  // One conversation's worth of frames, decoded the way the coordinator
  // and worker decode them: FrameDecoder, then the message head, then the
  // typed fields (lease index lists, a sample's declarations and record).
  std::istringstream shard(small_shard_text());
  std::string line;
  std::getline(shard, line);  // the header
  std::string sample_lines;
  while (std::getline(shard, line)) {
    sample_lines += line + "\n";
    if (line.rfind("s ", 0) != 0) break;  // through the first record
  }
  const std::string stream =
      frame(msg_hello("worker0")) +
      frame(msg_plan({"--figure", "1", "--graphs", "2"}, "", "abc123")) +
      frame(msg_ready("abc123", numerics_fingerprint())) +
      frame(msg_lease_request()) + frame(msg_lease(3, {0, 2, 5})) +
      frame(msg_sample_head(3, 2) + "\n" + sample_lines) +
      frame(msg_done(3)) + frame(msg_heartbeat()) +
      frame(msg_reject("fingerprint mismatch")) + frame(msg_bye());
  const auto parse_payload = [](const std::string& payload) {
    const ServiceMessage msg = parse_service_message(payload, "peer 7");
    if (msg.type == "lease") (void)parse_index_list(msg.field("ks"), msg.where);
    ShardLineReader lines;
    std::uint64_t id = 0;
    ShardValues values;
    std::string_view body = msg.body;
    std::string_view one;
    while (next_line(body, one)) {
      try {
        (void)lines.parse(one, id, values);
      } catch (const InvalidArgument& e) {
        throw InvalidArgument(msg.where + ": " + e.what());
      }
    }
  };
  std::size_t frames_seen = 0;
  fuzz_parser("mutated frame streams: decoded or a clean Error", {stream},
              "frame", [&](const std::string& bytes) {
                FrameDecoder decoder;
                // Feed in two chunks: a frame split across reads must
                // decode exactly like one that arrives whole.
                const std::size_t half = bytes.size() / 2;
                decoder.feed(bytes.data(), half);
                std::string payload;
                for (int pass = 0; pass < 2; ++pass) {
                  while (decoder.next(payload)) {
                    ++frames_seen;
                    expect_clean_outcome(payload, "peer 7", parse_payload);
                  }
                  if (pass == 0) {
                    decoder.feed(bytes.data() + half, bytes.size() - half);
                  }
                }
              });
  EXPECT_GT(frames_seen, 0u);
}

/// `text` plus `line`, and the 1-based number `line` lands on.
std::pair<std::string, std::size_t> with_line(const std::string& text,
                                              const std::string& line) {
  return {text + line + "\n",
          static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                              '\n')) +
              1};
}

/// read_shard throws InvalidArgument naming "name:line" and `what`.
void expect_shard_rejected(const std::string& text, std::size_t line,
                           const std::string& what) {
  SCOPED_TRACE(what);
  std::istringstream in(text);
  try {
    (void)read_shard(in, "edited.shard");
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("edited.shard:" + std::to_string(line) + ": "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(TextReaders, ShardLinesRejectedNamingFileAndLine) {
  const std::string text = small_shard_text();
  std::istringstream in(text);
  const ShardFile shard = read_shard(in, "small.shard");
  ASSERT_EQ(shard.header.grid, 2u);
  ASSERT_GE(shard.series.size(), 1u);
  const std::string undeclared = std::to_string(shard.series.size());
  struct Edit {
    std::string line;
    std::string what;
  };
  for (const Edit& edit : std::vector<Edit>{
           {"1 " + undeclared + ":1p+0", "undeclared series id " + undeclared},
           {"s 0 Again", "series id 0 declared twice"},
           {"s " + undeclared + " " + shard.series[0],
            "series '" + shard.series[0] + "' declared twice"},
           {"1 0:1p+0 0:1p+1", "series id 0 repeated in one record"},
           {"2 0:1p+0", "instance id 2 outside the grid of 2"},
           {"1 0:1p+0 junk", "malformed value 'junk'"},
           {"1 0:1p+0;", "value '0:1p+0;' is not one hex-float"},
           {"1 0:0x1p+0", "value '0:0x1p+0' is not one hex-float"},
           {"1 0:zz", "value '0:zz' is not one hex-float"},
           {"1x 0:1p+0", "malformed record '1x 0:1p+0'"}}) {
    const auto [edited, line] = with_line(text, edit.line);
    expect_shard_rejected(edited, line, edit.what);
  }
  std::string v1 = text;
  const std::string version = "\"ftsched_sweep_shard\":2";
  ASSERT_EQ(v1.rfind(version, 1), 1u);
  v1.replace(1, version.size(), "\"ftsched_sweep_shard\":1");
  expect_shard_rejected(v1, 1, "shard format version 1 is no longer read");
}

TEST(TextReaders, MergeRejectsAMixOfNumericsNamingTheFile) {
  // Two halves of one plan whose headers disagree on the numerics digest:
  // one of the machines rounds differently, so its bits must not be mixed.
  FigureConfig config = figure_config(1);
  config.granularities = {0.5};
  config.graphs_per_point = 2;
  config.proc_count = 5;
  config.workload.proc_count = 5;
  config.seed = 3;
  config.threads = 1;
  const SweepPlan plan(config);
  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    const SweepPlan half = plan.shard(i, 2);
    std::ostringstream os;
    ShardWriterSink sink(os, half);
    run_plan(half, sink);
    std::string text = os.str();
    if (i == 1) {
      const std::size_t at = text.find(numerics_fingerprint());
      ASSERT_NE(at, std::string::npos);
      text.replace(at, 16, "0123456789abcdef");
    }
    std::istringstream in(text);
    shards.push_back(read_shard(in, "half" + std::to_string(i) + ".shard"));
  }
  try {
    (void)merge_shards(shards);
    ADD_FAILURE() << "a numerics mix must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("half1.shard has numerics fingerprint "
                        "0123456789abcdef"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("half0.shard"), std::string::npos) << what;
  }
}

/// `text` with field `field` of its first `kind` line that reads `from`
/// replaced by `to`, and that line's 1-based number.
std::pair<std::string, std::size_t> edit_field(const std::string& text,
                                               const std::string& kind,
                                               std::size_t field,
                                               const std::string& from,
                                               const std::string& to) {
  std::istringstream in(text);
  std::ostringstream out;
  std::size_t edited = 0;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string token; ls >> token;) tokens.push_back(token);
    if (edited == 0 && tokens.size() > field && tokens[0] == kind &&
        tokens[field] == from) {
      tokens[field] = to;
      line.clear();
      for (const std::string& token : tokens) line += token + ' ';
      edited = n;
    }
    out << line << '\n';
  }
  return {out.str(), edited};
}

/// `parse(text)` throws InvalidArgument naming line `line`.
void expect_line_rejected(const Parser& parse, const std::string& text,
                          std::size_t line) {
  ASSERT_GT(line, 0u) << "no line to edit";
  const std::string tag = "line " + std::to_string(line);
  try {
    parse(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    const std::size_t at = what.find(tag);
    ASSERT_NE(at, std::string::npos) << what;
    const std::size_t after = at + tag.size();
    EXPECT_TRUE(after == what.size() ||
                !std::isdigit(static_cast<unsigned char>(what[after])))
        << what;
  }
}

// `is >> x` into an unsigned field wraps a minus sign ("-4294967295" reads
// as 1 in 32 bits), so each edit below would load as the unedited text.
// The readers must reject signs and values beyond the field's type instead.
TEST(TextReaders, RejectSignedAndOversizedIndices) {
  const auto w = small_workload(31);
  const std::string text =
      schedule_to_string(ftsa_schedule(w->costs(), FtsaOptions{1, 31}));
  const Parser parse_schedule = [&w](const std::string& edited) {
    (void)schedule_from_string(edited, w->costs());
  };
  const std::string minus32 = "-4294967295";
  const std::string minus64 = "-18446744073709551615";
  struct Edit {
    const char* kind;
    std::size_t field;
    const char* from;
    std::string to;
  };
  for (const Edit& edit : std::vector<Edit>{
           {"schedule", 2, "1", minus64},  // epsilon
           {"replica", 1, "1", minus32},   // task
           {"replica", 2, "1", minus32},   // processor
           {"channel", 1, "1", minus64},   // edge
           {"channel", 2, "1", minus64},   // source replica
           {"channel", 3, "1", minus64},   // destination replica
           {"channel", 2, "0", "70000"},   // beyond 16 bits
           {"channel", 3, "0", "65536"}}) {
    const auto [edited, line] =
        edit_field(text, edit.kind, edit.field, edit.from, edit.to);
    SCOPED_TRACE(std::string(edit.kind) + " field " +
                 std::to_string(edit.field) + " = " + edit.to);
    expect_line_rejected(parse_schedule, edited, line);
  }
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  expect_line_rejected(parse_schedule, text + "repaired " + minus32 + "\n",
                       lines + 1);

  const std::string graph = "taskgraph g\ntask a\ntask b\nedge 0 1 2.5\n";
  const Parser parse_graph = [](const std::string& edited) {
    (void)graph_from_string(edited);
  };
  for (std::size_t field : {1u, 2u}) {
    const std::string from = field == 1 ? "0" : "1";
    const std::string to = field == 1 ? "-4294967296" : minus32;
    const auto [edited, line] = edit_field(graph, "edge", field, from, to);
    expect_line_rejected(parse_graph, edited, line);
  }
}

}  // namespace
}  // namespace ftsched
