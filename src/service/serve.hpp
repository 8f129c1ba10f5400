// SocketServer: the poll-based line-stream loop behind `rsat serve` (TCP
// connections) and `rsat batch` (one stdin/stdout stream), speaking the
// service line protocol (service/protocol.hpp).
//
// One loop thread multiplexes the listener and every stream with poll(2);
// solves run on the shared AnalysisEngine thread pool, so a slow peer never
// blocks compute and a long solve never blocks the loop. Per stream the
// server keeps an ordered queue of response slots (a pre-rendered
// ack/error line, or the future of a submitted request) and writes result
// lines back in request order as each future resolves — an interactive
// client sees its result as soon as it is ready, not at end of input. A
// worker that finishes a solve signals the loop's wake handle, so the
// result leaves at once instead of at the next poll timeout.
//
// Protocol semantics (identical for every stream):
//  * analyze/reduce lines submit to the engine; unset id= takes a
//    server-wide sequence number (streams share one engine, one store,
//    and one id namespace — an explicit cancel id= therefore reaches a
//    matching request on any connection).
//  * cancel answers immediately with its ack.
//  * stats answers with a live telemetry line (AnalysisEngine::stats_line);
//    like every ack it is emitted in order behind this stream's earlier
//    slots, so the snapshot reflects at least everything the stream
//    already saw answered.
//  * drain is a barrier on the issuing stream: no further line of it is
//    read until the "drained" ack — emitted in order behind the stream's
//    earlier requests — has gone out, so every request submitted before
//    the drain has finished. Other streams are not stalled.
//  * malformed lines answer with a status=error result line; the stream
//    stays up.
//  * backpressure: a stream with max_pending_per_conn unanswered requests
//    stops being read until responses flush.
//  * end of input: a stream whose peer closed its write side is closed
//    once every complete line it sent has been answered and flushed.
//
// Shutdown (shutdown() from any thread, which wakes the loop at once, or
// the should_stop poll — wired to SIGINT by rsat serve and rsat batch; the
// ~20 ms poll timeout exists only to read it): stop accepting and reading,
// cooperatively cancel every in-flight solve, flush every pending result
// line (stop=cancelled), then close all connections and return from run().
// Peers that stop reading are given kDrainGraceSeconds before their
// connection is dropped. A stream server (no listener) also returns once
// its one stream is answered to the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/trace.hpp"
#include "support/socket.hpp"
#include "support/timer.hpp"

namespace rs::service {

struct ServeConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; SocketServer::port() reports the real one.
  int port = 0;
  EngineConfig engine;
  ProtocolOptions protocol;
  /// When non-empty, the bound port is written here (atomic write-rename)
  /// once the server is listening — scripts wait for this file instead of
  /// racing the log output.
  std::string port_file;
  /// Unanswered-request cap per stream before reads pause.
  std::size_t max_pending_per_conn = 256;
  /// When non-empty, enables engine trace spans and streams one JSONL
  /// event per request to this file (service/trace.hpp).
  std::string trace_file;
};

class SocketServer {
 public:
  /// Grace period for flushing pending results to unresponsive peers
  /// during shutdown.
  static constexpr double kDrainGraceSeconds = 5.0;

  /// Longest accepted request line (inline ddg= payloads included). A
  /// stream that exceeds it mid-line is answered with an error; its
  /// remaining input is read and discarded (so the error line arrives
  /// over an orderly close instead of being lost to a RST) — otherwise a
  /// newline-free byte stream would grow the input buffer without bound.
  static constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

  /// Binds and listens immediately (throws support::PreconditionError on
  /// bind failure) and writes port_file if configured; run() starts
  /// serving.
  explicit SocketServer(const ServeConfig& cfg);
  /// Serves one already-open stream — requests read from `in_fd`, lines
  /// written to `out_fd` (the same fd for a socket) — with no listener;
  /// host, port and port_file are ignored. The fds stay the caller's: they
  /// are never closed here, and any O_NONBLOCK run() sets on them is
  /// undone before run() returns.
  SocketServer(const ServeConfig& cfg, int in_fd, int out_fd);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port; 0 for a stream server.
  int port() const { return listener_ ? listener_->port() : 0; }
  AnalysisEngine& engine() { return engine_; }

  /// Serves until shutdown() is called or `should_stop` returns true, then
  /// performs the cancel-drain-close sequence described above. A stream
  /// server also returns once its stream is answered to the end. Call from
  /// one thread. The loop sleeps in poll(2) until a stream is ready, a
  /// solve finishes or shutdown() is called; `should_stop` is read every
  /// loop iteration and at least every ~20 ms, so a SIGINT-driven stop
  /// (which cannot signal the wake handle) starts within one such tick.
  void run(const std::function<bool()>& should_stop = {});

  /// Thread-safe: makes run() begin its drain-and-exit sequence at once.
  void shutdown() {
    stop_.store(true);
    wake_.signal();
  }

  /// Non-null when ServeConfig::trace_file is set.
  const TraceSink* trace_sink() const { return trace_sink_.get(); }

 private:
  struct Conn;

  // Concurrency discipline: the server holds no mutex on purpose. All
  // stream state (conns_, each Conn's buffers and slot queue, next_id_,
  // accept_backoff_, trace_sink_) is owned by the single thread inside
  // run(); the only
  // cross-thread channels are stop_ (an atomic flag set by shutdown()),
  // the engine's futures (resolved on pool workers, only *read* here), the
  // wake handle wake_ (signalled by pool workers after each future is set
  // and by shutdown(); drained only here, before the futures are swept),
  // and the lock-free metric references below. Adding a second network
  // thread means introducing support::Mutex + RSAT_GUARDED_BY here first —
  // do not reach for a bare std::mutex (lint rule `bare-mutex`).

  void add_conn(int fd, int out_fd);
  void accept_new();
  /// Below the slot cap and not held behind an unanswered drain.
  bool accepts_line(const Conn& c) const;
  void read_conn(Conn& c);
  void process_lines(Conn& c);
  void handle_line(Conn& c, const std::string& line);
  void emit_error_line(Conn& c, const std::string& msg);
  void pump_ready(Conn& c);
  void flush_conn(Conn& c);

  ServeConfig cfg_;
  /// Declared before engine_: the engine's destructor waits for its
  /// workers, whose completion hooks signal this handle.
  support::WakeFd wake_;
  AnalysisEngine engine_;
  std::optional<support::ListenSocket> listener_;  // empty: stream server
  /// The stream server's caller-owned fds (in, out); never closed here.
  std::vector<int> borrowed_fds_;
  std::unique_ptr<TraceSink> trace_sink_;
  std::atomic<bool> stop_{false};
  std::uint64_t next_id_ = 1;
  /// Started by an accept failure that leaves the connection queued (e.g.
  /// fd exhaustion); the listener stays out of the poll set until it reads
  /// one second, whatever wakes the loop in between.
  std::optional<support::Timer> accept_backoff_;
  std::vector<std::unique_ptr<Conn>> conns_;

  // serve.* registry entries (registered in the engine's registry so the
  // whole process shares one metrics namespace). All owned by engine_'s
  // registry; cached here once at construction.
  support::Counter& connections_;
  support::Gauge& open_conns_;
  support::Counter& requests_;
  support::Counter& responses_;
  support::Counter& parse_errors_;
  support::Counter& bytes_in_;
  support::Counter& bytes_out_;
  support::Counter& backpressure_stalls_;
};

}  // namespace rs::service
