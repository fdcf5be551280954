// Implementation of the `ftsched_cli` subcommands, separated from main()
// so the test suite can drive them with in-memory streams.
//
// Subcommands:
//   generate  — emit a task graph (any built-in family) in text format
//   info      — structural statistics of a graph file
//   plan      — enumerate the sweep grid / a shard's slice of it
//   schedule  — schedule a graph file with any algorithm; print bounds,
//               optionally an ASCII Gantt, JSON, or a schedule file
//   simulate  — execute a schedule under a crash scenario
//   sweep     — run a sweep to CSV, or one shard of it to a shard file
//   merge     — combine sweep shards into the unsharded CSV (bit-identical)
//   validate  — exhaustive fault-tolerance validation + kill-set analysis
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ftsched::cli {

/// Dispatches `args` (argv[1..]) to a subcommand; writes results to `out`
/// and diagnostics to `err`. Returns a process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Top-level usage text.
[[nodiscard]] std::string usage();

}  // namespace ftsched::cli
