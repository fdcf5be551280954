// Minimal POSIX TCP sockets with length-prefixed message framing, for the
// sweep coordinator service (service/coordinator.hpp) and its workers.
//
// A *message* is an opaque byte payload framed by a 4-byte big-endian
// length prefix; the service puts one flat JSON-object line in each
// frame, followed in `sample` frames by shard-format lines.  The layer is
// deliberately tiny: loopback/LAN TCP, blocking workers, a poll()-driven
// coordinator — no TLS, no name resolution beyond numeric hosts, no
// portability shims beyond POSIX.  Every syscall is retried on EINTR and
// writes use MSG_NOSIGNAL, so a dying peer surfaces as an Error (or clean
// EOF), never as SIGPIPE or a spurious failure under signals — the
// coordinator reaps child workers with signals in flight, so this
// hardening is load-bearing, not cosmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ftsched {

/// Frames larger than this are protocol corruption, not data (the largest
/// legitimate frame is one coordinate's record line and declarations).
inline constexpr std::uint32_t kMaxNetFrameBytes = 1u << 26;  // 64 MiB

/// One connected stream socket.  Move-only; the destructor closes.
class Socket {
 public:
  Socket() = default;
  /// Adopts an already-connected file descriptor.
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Sends one framed message.  Handles short writes, EINTR and EAGAIN
  /// (waits for writability); throws Error when the peer is gone (EPIPE /
  /// ECONNRESET — never SIGPIPE).
  void send_message(std::string_view payload);

  /// Blocking receive of one framed message into `payload` (capacity
  /// reused).  Returns false on clean EOF at a frame boundary; throws
  /// Error on mid-frame EOF, oversized frames, or socket errors.  With
  /// `timeout_ms` >= 0, returns false *without consuming anything* when no
  /// frame byte arrives in time (distinguish via eof()).
  bool recv_message(std::string& payload, int timeout_ms = -1);

  /// True once recv_message observed end-of-stream.
  [[nodiscard]] bool eof() const noexcept { return eof_; }

  /// Switches O_NONBLOCK (the coordinator pumps connections non-blocking).
  void set_nonblocking(bool on);

  /// Non-blocking read of whatever is available, appended to `buf`.
  /// Returns the byte count (> 0), 0 when the read would block, or -1 on
  /// end-of-stream.  Throws Error on socket errors (ECONNRESET included —
  /// the caller treats both as a dead peer, but an error names the cause).
  int read_available(std::string& buf);

 private:
  int fd_ = -1;
  bool eof_ = false;
  std::string recv_scratch_;  ///< partial frame across timed-out receives
};

/// Incremental decoder of the length-prefixed framing over an append-only
/// byte buffer (one per coordinator connection).
class FrameDecoder {
 public:
  /// Appends raw bytes.
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  [[nodiscard]] std::string& buffer() noexcept { return buf_; }

  /// Extracts the next complete frame into `payload` (capacity reused).
  /// Returns false when no complete frame is buffered; throws Error on an
  /// oversized length prefix.
  bool next(std::string& payload);

  /// True when a partial frame is buffered (EOF here = truncation).
  [[nodiscard]] bool mid_frame() const noexcept { return !buf_.empty(); }

 private:
  std::string buf_;
};

/// Connects to `host`:`port` (numeric IPv4 host, e.g. "127.0.0.1").
/// Throws Error when the connection cannot be established.
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port);

/// A listening loopback TCP socket.  Binds 127.0.0.1 only: the service is
/// a single-host fleet coordinator, not an internet-facing daemon.
class Listener {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; see port()).
  explicit Listener(std::uint16_t port);
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port (the kernel's choice when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Accepts one pending connection, waiting up to `timeout_ms`
  /// (-1 = forever).  Returns an invalid Socket on timeout.
  [[nodiscard]] Socket accept(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// poll(2) for readability of `fd`, retrying EINTR.  Returns true when
/// readable (or in error/hup — a subsequent read reports the cause).
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

}  // namespace ftsched
