// Minimal POSIX fd helpers for the line-stream loop behind `rsat serve` and
// `rsat batch` (service/serve.hpp) and its tests: a non-blocking listener
// with ephemeral-port support, a blocking client connect (tests drive the
// server through it), one-shot reads and writes for sockets and for plain
// stream fds (pipes, files, terminals), and best-effort full writes.
//
// Everything here is deliberately poll-friendly: the listener, every
// accepted connection and, for the duration of one run, the caller's
// stdin/stdout are O_NONBLOCK, and a WakeFd lets other threads (solver
// workers finishing a request, shutdown()) interrupt the wait, so the loop
// multiplexes all of them with a single poll(2) and never blocks on a slow
// peer. Unsupported platforms fail loudly at construction (RS_REQUIRE), not
// at first use.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace rs::support {

/// A pollable wake-up handle, built on a non-blocking self-pipe: signal()
/// from any thread makes fd() readable until drain(). Signals coalesce:
/// however many arrive between two drains, only the first writes to the
/// pipe, so a wave of them costs one write and one read. No signal is
/// lost: one that races a drain is either covered by that drain or makes
/// fd() readable again after it.
class WakeFd {
 public:
  /// Throws support::PreconditionError when the fd cannot be created.
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  /// Poll this for POLLIN.
  int fd() const { return read_fd_; }

  /// Thread-safe; never blocks. Makes fd() readable unless a wake is
  /// already pending.
  void signal();

  /// Consumes the pending wake (if any), then re-arms signal(). Call from
  /// the polling thread before it looks at whatever the signals announce:
  /// everything a signaller did before a signal that this drain consumed
  /// or coalesced is then visible to it.
  void drain();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::atomic<bool> pending_{false};
};

/// Non-blocking TCP listener. Binding port 0 picks an ephemeral port;
/// port() reports the actual one. Closes the socket on destruction.
class ListenSocket {
 public:
  /// Binds and listens (backlog 64), throwing support::PreconditionError
  /// with the failing syscall + errno text on any failure.
  ListenSocket(const std::string& host, int port);
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  int fd() const { return fd_; }
  int port() const { return port_; }

  /// Accepts one pending connection as a non-blocking fd. Returns -1 when
  /// none is waiting (EAGAIN), -2 on any other accept failure (e.g.
  /// EMFILE) — the listener then typically stays readable, so callers
  /// should back off instead of re-polling it immediately. Never blocks.
  int accept_client();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Blocking client connect for tests and simple drivers. Returns the
/// connected fd; throws support::PreconditionError on failure.
int connect_tcp(const std::string& host, int port);

/// One non-blocking send attempt (SIGPIPE suppressed where supported). An
/// fd that is not a socket (pipe, file, terminal) gets a plain write(2)
/// instead, where a vanished reader raises SIGPIPE like any write. Returns
/// bytes written (>= 0), -1 when the fd's buffer is full (EAGAIN) or the
/// call was interrupted, -2 on a connection error (e.g. EPIPE).
long send_some(int fd, std::string_view data);

/// Writes all of `data`, retrying short writes; waits (poll) when the fd's
/// buffer is full. Returns false on a connection error (e.g. EPIPE).
bool send_all(int fd, std::string_view data);

/// Reads whatever is available into `out` (appends). Uses read(2), so any
/// stream fd works, sockets included. Returns the byte count, 0 on orderly
/// EOF, -1 when the read would block, -2 on error.
long recv_some(int fd, std::string* out);

/// Sets O_NONBLOCK; returns false on failure.
bool set_nonblocking(int fd);

void close_fd(int fd);

}  // namespace rs::support
