#include "service/serve.hpp"

#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <sstream>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/fs.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RS_SERVE_POSIX 1
#include <fcntl.h>
#include <poll.h>
#else
#define RS_SERVE_POSIX 0
#endif

namespace rs::service {

/// One ordered response slot: a pre-rendered line (ack / parse error), the
/// future of a submitted request, or a deferred stats snapshot (rendered
/// at emission time, so it reflects everything answered before it).
struct Slot {
  std::string pre;
  std::future<Response> fut;
  bool stats = false;
  bool metrics = false;
  bool drain = false;  // the stream reads no further line until it is out
};

struct SocketServer::Conn {
  int fd = -1;      // read side
  int out_fd = -1;  // write side; == fd for a socket
  std::string in_buf;   // bytes read, split into lines as '\n' arrives
  std::string out_buf;  // rendered lines awaiting a writable fd
  /// First unsent byte of out_buf. An offset instead of erase-per-send:
  /// trimming the front of a multi-MB response on every partial send
  /// would memmove the remainder each time (quadratic on the network
  /// thread); the buffer is compacted once drained (or past 1 MiB sent).
  std::size_t out_off = 0;
  bool out_empty() const { return out_off >= out_buf.size(); }
  bool has_line() const { return in_buf.find('\n') != std::string::npos; }
  std::deque<Slot> slots;
  int lineno = 0;
  bool closed_read = false;  // peer EOF: finish answering, then close
  /// Rejected-line mode: keep reading and discarding the peer's bytes
  /// (closing with unread data queued would RST the connection and
  /// discard the error line before the peer could read it).
  bool discard_input = false;
  bool dead = false;         // unrecoverable socket error: drop now
  /// True while the slot cap keeps this connection out of the POLLIN set;
  /// each false->true edge counts one serve.backpressure_stalls.
  bool read_paused = false;
  /// Reset whenever bytes reach the peer; during drain, a connection is
  /// only given up on after kDrainGraceSeconds without *progress*, so a
  /// slow-but-reading peer still gets its full result lines.
  support::Timer last_progress;
};

namespace {

/// Unsent output past which pump_ready() stops rendering: the slots then
/// fill to the cap and reading pauses, so a peer (or a batch stdout) that
/// stops taking results bounds the server's memory.
constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

/// Trace spans are engine-produced; a configured trace_file turns their
/// collection on.
EngineConfig with_trace_enabled(EngineConfig engine, bool trace) {
  if (trace) engine.trace = true;
  return engine;
}

#if RS_SERVE_POSIX
/// Restores saved (fd, F_GETFL status flags) pairs on scope exit, last
/// first.
struct FlagRestore {
  std::vector<std::pair<int, int>> saved;
  ~FlagRestore() {
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      if (it->second >= 0) ::fcntl(it->first, F_SETFL, it->second);
    }
  }
};
#endif

}  // namespace

SocketServer::SocketServer(const ServeConfig& cfg, int in_fd, int out_fd)
    : cfg_(cfg),
      engine_(with_trace_enabled(cfg.engine, !cfg.trace_file.empty())),
      connections_(engine_.metrics().counter("serve.connections")),
      open_conns_(engine_.metrics().gauge("serve.open_conns")),
      requests_(engine_.metrics().counter("serve.requests")),
      responses_(engine_.metrics().counter("serve.responses")),
      parse_errors_(engine_.metrics().counter("serve.parse_errors")),
      bytes_in_(engine_.metrics().counter("serve.bytes_in")),
      bytes_out_(engine_.metrics().counter("serve.bytes_out")),
      backpressure_stalls_(
          engine_.metrics().counter("serve.backpressure_stalls")),
      slow_requests_(engine_.metrics().counter("serve.slow_requests")) {
  if (!cfg_.trace_file.empty()) {
    trace_sink_ = std::make_unique<TraceSink>(cfg_.trace_file);
  }
  if (in_fd >= 0) {
    borrowed_fds_ = {in_fd, out_fd};
    add_conn(in_fd, out_fd);
  }
}

SocketServer::SocketServer(const ServeConfig& cfg)
    : SocketServer(cfg, -1, -1) {
  listener_.emplace(cfg_.host, cfg_.port);
  if (!cfg_.port_file.empty()) {
    RS_REQUIRE(support::write_file_atomic(cfg_.port_file,
                                          std::to_string(port()) + "\n"),
               "cannot write port file " + cfg_.port_file);
  }
}

SocketServer::~SocketServer() {
  if (!listener_) return;  // a stream server's fds are the caller's
  for (auto& c : conns_) support::close_fd(c->fd);
}

void SocketServer::add_conn(int fd, int out_fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->out_fd = out_fd;
  conns_.push_back(std::move(conn));
  connections_.inc();
  open_conns_.add(1);
}

void SocketServer::accept_new() {
  for (;;) {
    const int fd = listener_->accept_client();
    if (fd == -1) return;  // nothing pending
    if (fd == -2) {
      // Accept failed but the connection stays queued (fd exhaustion and
      // the like), so the listener remains readable: stop polling it for
      // about a second instead of busy-spinning poll() at 100% CPU.
      accept_backoff_.emplace();
      return;
    }
    add_conn(fd, fd);
  }
}

bool SocketServer::accepts_line(const Conn& c) const {
  return c.slots.size() < cfg_.max_pending_per_conn &&
         (c.slots.empty() || !c.slots.back().drain);
}

void SocketServer::read_conn(Conn& c) {
  // Two bounds keep one peer from starving the shared poll thread: stop
  // past the line cap (anything more stays in the kernel buffer — TCP
  // backpressure — so in_buf is bounded at kMaxLineBytes plus one recv
  // chunk and an oversized line can never slip a late newline in before
  // the guard in process_lines() sees it), and stop after a per-round
  // byte budget — a peer flooding faster than we drain (notably in
  // discard_input mode, where in_buf never grows) yields the thread at
  // the next poll, it doesn't pin it.
  long long budget = 1 << 20;
  while (budget > 0 && (c.discard_input || c.in_buf.size() <= kMaxLineBytes)) {
    const long n = support::recv_some(c.fd, &c.in_buf);
    if (c.discard_input) c.in_buf.clear();
    if (n > 0) {
      budget -= n;
      bytes_in_.inc(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {
      c.closed_read = true;
      // EOF ends an unterminated final line (one within the line cap; a
      // longer one is left to the guard in process_lines()).
      const std::size_t tail = c.in_buf.size() - (c.in_buf.rfind('\n') + 1);
      if (tail > 0 && tail <= kMaxLineBytes) c.in_buf += '\n';
    }
    if (n == -2) c.dead = true;
    return;  // EOF, would-block, or error
  }
}

/// Queues a status=error result line (shared by parse failures and the
/// oversized-line guard, so the wire format cannot diverge between them).
void SocketServer::emit_error_line(Conn& c, const std::string& msg) {
  std::ostringstream os;
  os << "result id=" << next_id_++ << " status=error name=line" << c.lineno
     << " msg=" << escape_field(msg);
  Slot slot;
  slot.pre = os.str();
  c.slots.push_back(std::move(slot));
  parse_errors_.inc();
}

void SocketServer::handle_line(Conn& c, const std::string& line) {
  if (is_blank_or_comment(line)) return;
  Slot slot;
  try {
    support::Timer parse;
    Command cmd = parse_command_line(line, next_id_, cfg_.protocol);
    switch (cmd.kind) {
      case CommandKind::Submit:
        ++next_id_;
        cmd.request.parse_ms = parse.millis();
        slot.fut = engine_.submit(std::move(cmd.request),
                                  [wake = &wake_] { wake->signal(); });
        requests_.inc();
        break;
      case CommandKind::Cancel:
        slot.pre = render_cancel_ack(cmd.cancel_id,
                                     engine_.cancel(cmd.cancel_id));
        break;
      case CommandKind::Drain:
        // In-order emission behind this stream's earlier slots makes the
        // ack wait for every prior request; while it is the last slot,
        // accepts_line() holds the stream's later lines back.
        slot.pre = render_drain_ack();
        slot.drain = true;
        break;
      case CommandKind::Stats:
        slot.stats = true;  // snapshot taken when the slot is emitted
        break;
      case CommandKind::Metrics:
        slot.metrics = true;  // exposition rendered when the slot is emitted
        break;
    }
  } catch (const std::exception& e) {
    emit_error_line(c, e.what());
    return;
  }
  c.slots.push_back(std::move(slot));
}

void SocketServer::process_lines(Conn& c) {
  if (c.discard_input) return;  // rejected-line mode: input is drained only
  std::size_t start = 0;
  while (accepts_line(c)) {
    const std::size_t nl = c.in_buf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = c.in_buf.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = nl + 1;
    ++c.lineno;
    handle_line(c, line);
  }
  c.in_buf.erase(0, start);
  // The slot cap bounds *answered* lines but not a line that never ends:
  // a peer streaming newline-free bytes would otherwise grow in_buf until
  // OOM. Past the cap, answer with an error and stop reading the
  // stream (pending responses still flush). Only a genuinely
  // unterminated line counts — bytes kept back by the slot cap or a drain
  // still contain newlines and drain as responses flush.
  if (c.in_buf.size() > kMaxLineBytes &&
      c.in_buf.find('\n') == std::string::npos) {
    ++c.lineno;
    emit_error_line(c, "request line exceeds " +
                           std::to_string(kMaxLineBytes) + " bytes");
    c.in_buf.clear();
    c.in_buf.shrink_to_fit();
    // Keep reading (and discarding) the rest of the peer's stream so the
    // error line is delivered over an orderly close, not lost to a RST.
    c.discard_input = true;
  }
}

void SocketServer::pump_ready(Conn& c) {
  while (!c.slots.empty() && c.out_buf.size() - c.out_off < kMaxUnsentBytes) {
    Slot& s = c.slots.front();
    // The stall clock measures how long the peer has left bytes untaken,
    // so it starts when the write buffer goes from empty to non-empty —
    // waiting on our own solver is not the peer's stall.
    if (c.out_empty()) c.last_progress.reset();
    if (s.stats) {
      c.out_buf += engine_.stats_line();
      if (cfg_.slo_ms > 0) c.out_buf += render_slo_fields();
      c.out_buf += '\n';
    } else if (s.metrics) {
      // Multi-line body; to_prometheus() frames it with a terminating
      // "# EOF" line (and ends newline-terminated), so nothing to append.
      c.out_buf += engine_.metrics().to_prometheus();
    } else if (s.pre.empty()) {
      if (s.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return;  // preserve request order: stop at the first unresolved
      }
      const Response resp = s.fut.get();
      support::Timer encode;
      const std::string line = render_response(resp);
      c.out_buf += line;
      c.out_buf += '\n';
      if (cfg_.slow_ms > 0 && resp.millis >= cfg_.slow_ms) {
        slow_requests_.inc();
        std::fprintf(stderr,
                     "rsat serve: slow request id=%llu name=%s ms=%.3f "
                     "cached=%d\n",
                     static_cast<unsigned long long>(resp.id),
                     resp.name.c_str(), resp.millis, resp.cache_hit ? 1 : 0);
      }
      if (resp.trace != nullptr && trace_sink_ != nullptr) {
        resp.trace->encode_ms = encode.millis();
        resp.trace->bytes = line.size() + 1;
        trace_sink_->write(*resp.trace);
      }
      if (cfg_.slo_ms > 0) record_slo(resp);
    } else {
      c.out_buf += s.pre;
      c.out_buf += '\n';
    }
    c.slots.pop_front();
    responses_.inc();
  }
}

void SocketServer::record_slo(const Response& resp) {
  // Error payloads that never resolved an operation have nowhere to count.
  if (resp.payload == nullptr || resp.payload->op == nullptr) return;
  const std::string name(resp.payload->op->name());
  auto it = slo_.find(name);
  if (it == slo_.end()) {
    const std::string prefix = "slo." + name + ".";
    SloMetrics fresh;
    fresh.ok = &engine_.metrics().counter(prefix + "ok");
    fresh.breach = &engine_.metrics().counter(prefix + "breach");
    it = slo_.emplace(name, fresh).first;
  }
  (resp.millis > cfg_.slo_ms ? it->second.breach : it->second.ok)->inc();
}

std::string SocketServer::render_slo_fields() const {
  char buf[96];
  std::string out;
  std::snprintf(buf, sizeof buf, " slo_ms=%.3f", cfg_.slo_ms);
  out += buf;
  for (const auto& [name, m] : slo_) {  // std::map: name-sorted
    const std::uint64_t ok = m.ok->value();
    const std::uint64_t breach = m.breach->value();
    const double rate =
        ok + breach == 0
            ? 0.0
            : static_cast<double>(breach) / static_cast<double>(ok + breach);
    std::snprintf(buf, sizeof buf,
                  " slo.%s.ok=%llu slo.%s.breach=%llu slo.%s.breach_rate=%.3f",
                  name.c_str(), static_cast<unsigned long long>(ok),
                  name.c_str(), static_cast<unsigned long long>(breach),
                  name.c_str(), rate);
    out += buf;
  }
  return out;
}

void SocketServer::flush_conn(Conn& c) {
  while (!c.out_empty()) {
    const long n = support::send_some(
        c.out_fd, std::string_view(c.out_buf).substr(c.out_off));
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      bytes_out_.inc(static_cast<std::uint64_t>(n));
      c.last_progress.reset();
      continue;
    }
    if (n == -1 || n == 0) break;  // buffer full: POLLOUT will re-arm
    c.dead = true;
    return;
  }
  if (c.out_empty()) {
    c.out_buf.clear();
    c.out_off = 0;
  } else if (c.out_off > (std::size_t{1} << 20)) {
    c.out_buf.erase(0, c.out_off);
    c.out_off = 0;
  }
}

void SocketServer::run(const std::function<bool()>& should_stop) {
#if RS_SERVE_POSIX
  // The caller's fds go O_NONBLOCK for this run only. Every flag is saved
  // before any is set: stdin and stdout may share one file description.
  FlagRestore restore;
  for (const int fd : borrowed_fds_) {
    restore.saved.emplace_back(fd, ::fcntl(fd, F_GETFL, 0));
  }
  for (const int fd : borrowed_fds_) support::set_nonblocking(fd);
  bool draining = false;
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  for (;;) {
    // The timeout only paces should_stop. Zero when nothing new needs to
    // arrive for the loop to make progress: a stream holds a line it may
    // take, or the drain starts (streams with nothing left are reaped at
    // once). Lines held behind the slot cap or a drain wait for the
    // completion wake or POLLOUT that frees them.
    int timeout_ms = 20;
    if (!draining &&
        (stop_.load() || (should_stop && should_stop()))) {
      // Cancel-drain-shutdown: no new connections or lines; every
      // in-flight solve is cancelled cooperatively and still resolves its
      // future, so the pump below flushes a result line (stop=cancelled)
      // for everything already submitted.
      draining = true;
      engine_.cancel_all();
      // The stall clocks start at the drain: a connection idle since long
      // before SIGINT still deserves the full grace to consume its
      // pending results.
      for (auto& cp : conns_) cp->last_progress.reset();
      timeout_ms = 0;
    }

    // fds[0] is the wake handle: a finished solve (or shutdown()) ends the
    // poll at once. Entries with a null Conn are the wake handle and the
    // listener.
    fds.clear();
    polled.clear();
    fds.push_back(pollfd{wake_.fd(), POLLIN, 0});
    polled.push_back(nullptr);
    if (accept_backoff_ && accept_backoff_->seconds() >= 1.0) {
      accept_backoff_.reset();
    }
    if (listener_ && !draining && !accept_backoff_) {
      fds.push_back(pollfd{listener_->fd(), POLLIN, 0});
      polled.push_back(nullptr);
    }
    for (auto& cp : conns_) {
      Conn& c = *cp;
      const bool reading = !draining && !c.closed_read;
      if (reading && (c.discard_input || accepts_line(c))) {
        fds.push_back(pollfd{c.fd, POLLIN, 0});
        polled.push_back(&c);
        c.read_paused = false;
      } else if (reading && !c.read_paused &&
                 c.slots.size() >= cfg_.max_pending_per_conn) {
        // Slot cap reached: this stream leaves the POLLIN set until
        // responses flush. Count the edge, not the (per-iteration) state.
        c.read_paused = true;
        backpressure_stalls_.inc();
      }
      if (!c.out_empty()) {  // a second entry for the same socket is fine
        fds.push_back(pollfd{c.out_fd, POLLOUT, 0});
        polled.push_back(&c);
      }
      if (!draining && !c.discard_input && accepts_line(c) && c.has_line()) {
        timeout_ms = 0;
      }
    }

    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    // Drained before the sweep below, so every future whose completion
    // signal it consumed is seen ready there.
    if (fds[0].revents & POLLIN) wake_.drain();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (polled[i] == nullptr) {
        if (fds[i].revents & POLLIN) accept_new();
        continue;
      }
      Conn& c = *polled[i];
      if (fds[i].revents & (POLLERR | POLLNVAL)) c.dead = true;
      if (!c.dead && fds[i].events == POLLIN &&
          (fds[i].revents & (POLLIN | POLLHUP))) {
        read_conn(c);
      }
    }

    for (auto& cp : conns_) {
      Conn& c = *cp;
      if (c.dead) continue;
      if (!draining) process_lines(c);
      pump_ready(c);
      flush_conn(c);
    }

    // Reap: dead streams immediately; EOF'd streams once every line they
    // sent is answered (complete lines still in in_buf — held back by the
    // slot cap or a drain — are not); during shutdown, streams whose queue
    // has emptied — and peers that made no write progress for the whole
    // grace period.
    std::erase_if(conns_, [&](const std::unique_ptr<Conn>& cp) {
      const Conn& c = *cp;
      const bool flushed = c.slots.empty() && c.out_empty();
      // Stalled = bytes are waiting and the peer has taken none for the
      // whole grace period. A connection still waiting on its own solves
      // (empty out_buf) is never "stalled" — its results are about to be
      // cancelled-and-flushed, and the clock resets when they queue.
      const bool stalled = draining && !c.out_empty() &&
                           c.last_progress.seconds() > kDrainGraceSeconds;
      if (c.dead || (c.closed_read && flushed && !c.has_line()) ||
          (draining && flushed) || stalled) {
        if (listener_) support::close_fd(c.fd);
        open_conns_.sub(1);
        return true;
      }
      return false;
    });

    if (conns_.empty() && (draining || !listener_)) break;
  }
  // All result lines are out (or their peers gone); let solver threads
  // finish their cancelled epilogues before the engine is reused/queried.
  engine_.wait_idle();
  if (trace_sink_ != nullptr) trace_sink_->flush();
#else
  static_cast<void>(should_stop);
  RS_REQUIRE(false, "the line-stream loop requires POSIX poll(2)");
#endif
}

}  // namespace rs::service
