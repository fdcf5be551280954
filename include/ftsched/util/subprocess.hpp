// Minimal POSIX child-process spawning for the socket sweep backend's
// local worker fleet.
//
// `ChildProcess::spawn` fork/execs one command with stdout/stderr
// redirected to files, `wait()`/`try_wait()` reap it into a `ChildOutcome`
// that distinguishes the three failure shapes a dead worker can take —
// nonzero exit, termination by signal, unrunnable binary — so callers can
// name the cause instead of reporting a generic failure.  Output goes to
// files (no pipes to drain): workers talk to the coordinator over their
// socket, and their stderr is only read back, as a tail, once they die.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace ftsched {

/// How one child terminated.
struct ChildOutcome {
  bool exited = false;   ///< normal exit (vs. killed by a signal)
  int exit_code = -1;    ///< valid when `exited`
  int signal_number = 0; ///< valid when not `exited`

  [[nodiscard]] bool success() const noexcept {
    return exited && exit_code == 0;
  }
  /// "exited with status 3" / "killed by signal 9 (Killed)"; exec failures
  /// inside the child surface as status 127.
  [[nodiscard]] std::string describe() const;
};

/// One spawned child.  Move-only handle; the destructor does NOT reap —
/// reap every spawned child once via wait() or try_wait() (the backend
/// always does, so no zombie is left even on the error paths).
class ChildProcess {
 public:
  /// Fork/execs `argv` (argv[0] is the executable path, resolved via PATH
  /// when it contains no '/').  Non-empty `stdout_path`/`stderr_path`
  /// redirect the respective stream to that file (created/truncated);
  /// empty inherits the parent's stream.  Throws Error when the process
  /// cannot be created; a failed exec *inside* the child is reported by
  /// wait() as exit status 127 (the shell convention), with the reason on
  /// the child's stderr.
  [[nodiscard]] static ChildProcess spawn(const std::vector<std::string>& argv,
                                          const std::string& stdout_path,
                                          const std::string& stderr_path);

  /// Blocks until the child terminates and reports how.
  [[nodiscard]] ChildOutcome wait();

  /// Non-blocking reap (WNOHANG, EINTR-retried): the outcome when the
  /// child has terminated, nullopt while it is still running.  After a
  /// non-null return the handle is empty — do not also call wait().
  [[nodiscard]] std::optional<ChildOutcome> try_wait();

  /// Sends `sig` to the child (no-op on an empty handle — the child was
  /// already reaped).  The caller still reaps via wait()/try_wait().
  void kill(int sig) noexcept;

  [[nodiscard]] long pid() const noexcept { return pid_; }
  [[nodiscard]] bool running() const noexcept { return pid_ > 0; }

 private:
  long pid_ = -1;
};

/// Last ~`limit` bytes of `path`, whitespace-trimmed — enough child stderr
/// to make a worker-failure diagnostic actionable without dumping a log.
/// Empty when the file is missing or unreadable.  The socket backend quotes
/// it when a worker dies.
[[nodiscard]] std::string stderr_tail(const std::string& path,
                                      std::size_t limit = 400);

/// Absolute path of the running executable (/proc/self/exe); empty when it
/// cannot be resolved.  This is how ftsched_cli finds itself when spawning
/// socket-backend workers.
[[nodiscard]] std::string self_executable_path();

}  // namespace ftsched
