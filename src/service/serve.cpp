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
};

struct SocketServer::Conn {
  int fd = -1;
  std::string in_buf;   // bytes read, split into lines as '\n' arrives
  std::string out_buf;  // rendered lines awaiting a writable socket
  /// First unsent byte of out_buf. An offset instead of erase-per-send:
  /// trimming the front of a multi-MB response on every partial send
  /// would memmove the remainder each time (quadratic on the network
  /// thread); the buffer is compacted once drained (or past 1 MiB sent).
  std::size_t out_off = 0;
  bool out_empty() const { return out_off >= out_buf.size(); }
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

/// Trace spans are engine-produced; a configured trace_file turns their
/// collection on.
EngineConfig with_trace_enabled(EngineConfig engine, bool trace) {
  if (trace) engine.trace = true;
  return engine;
}

}  // namespace

SocketServer::SocketServer(const ServeConfig& cfg)
    : cfg_(cfg),
      engine_(with_trace_enabled(cfg.engine, !cfg.trace_file.empty())),
      listener_(cfg.host, cfg.port),
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
  if (!cfg_.port_file.empty()) {
    RS_REQUIRE(support::write_file_atomic(cfg_.port_file,
                                          std::to_string(port()) + "\n"),
               "cannot write port file " + cfg_.port_file);
  }
}

SocketServer::~SocketServer() {
  for (auto& c : conns_) support::close_fd(c->fd);
}

ServeStats SocketServer::serve_stats() const {
  ServeStats out;
  out.connections = connections_.value();
  out.requests = requests_.value();
  out.parse_errors = parse_errors_.value();
  out.responses = responses_.value();
  out.bytes_in = bytes_in_.value();
  out.bytes_out = bytes_out_.value();
  out.backpressure_stalls = backpressure_stalls_.value();
  out.slow_requests = slow_requests_.value();
  out.open_conns = open_conns_.value();
  return out;
}

void SocketServer::accept_new() {
  for (;;) {
    const int fd = listener_.accept_client();
    if (fd == -1) return;  // nothing pending
    if (fd == -2) {
      // Accept failed but the connection stays queued (fd exhaustion and
      // the like), so the listener remains readable: stop polling it for
      // ~1 s instead of busy-spinning poll() at 100% CPU.
      accept_backoff_ = 50;
      return;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    connections_.inc();
    open_conns_.add(1);
  }
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
    if (n == 0) c.closed_read = true;
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
        slot.fut = engine_.submit(std::move(cmd.request));
        requests_.inc();
        break;
      case CommandKind::Cancel:
        slot.pre = render_cancel_ack(cmd.cancel_id,
                                     engine_.cancel(cmd.cancel_id));
        break;
      case CommandKind::Drain:
        // In-order emission behind this connection's earlier slots IS the
        // drain barrier: by the time this ack renders, every prior request
        // on the connection has had its result line rendered first.
        slot.pre = render_drain_ack();
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
  while (c.slots.size() < cfg_.max_pending_per_conn) {
    const std::size_t nl = c.in_buf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = c.in_buf.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = nl + 1;
    ++c.lineno;
    handle_line(c, line);
  }
  c.in_buf.erase(0, start);
  // Peer EOF with an unterminated final line: answer it, matching `rsat
  // batch` (whose getline yields a trailing line without '\n').
  if (c.closed_read && !c.in_buf.empty() &&
      c.in_buf.find('\n') == std::string::npos &&
      c.in_buf.size() <= kMaxLineBytes &&
      c.slots.size() < cfg_.max_pending_per_conn) {
    std::string line = std::move(c.in_buf);
    c.in_buf.clear();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++c.lineno;
    handle_line(c, line);
  }
  // The slot cap bounds *answered* lines but not a line that never ends:
  // a peer streaming newline-free bytes would otherwise grow in_buf until
  // OOM. Past the cap, answer with an error and stop reading the
  // connection (pending responses still flush). Only a genuinely
  // unterminated line counts — bytes kept back by the slot cap still
  // contain newlines and drain as responses flush.
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
  while (!c.slots.empty()) {
    Slot& s = c.slots.front();
    // The stall clock measures how long the peer has left bytes untaken,
    // so it starts when the write buffer goes from empty to non-empty —
    // waiting on our own solver is not the peer's stall.
    if (c.out_empty()) c.last_progress.reset();
    if (s.stats) {
      c.out_buf += render_stats_line(engine_.stats());
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
        c.fd, std::string_view(c.out_buf).substr(c.out_off));
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
  bool draining = false;
  for (;;) {
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
    }

    std::vector<pollfd> fds;
    std::vector<Conn*> polled;
    if (accept_backoff_ > 0) --accept_backoff_;
    if (!draining && accept_backoff_ == 0) {
      fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
      polled.push_back(nullptr);
    }
    for (auto& cp : conns_) {
      Conn& c = *cp;
      short events = 0;
      if (!draining && !c.closed_read &&
          (c.discard_input ||
           c.slots.size() < cfg_.max_pending_per_conn)) {
        events |= POLLIN;
        c.read_paused = false;
      } else if (!draining && !c.closed_read && !c.read_paused) {
        // Slot cap reached: this connection leaves the POLLIN set until
        // responses flush. Count the edge, not the (per-iteration) state.
        c.read_paused = true;
        backpressure_stalls_.inc();
      }
      if (!c.out_empty()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{c.fd, events, 0});
      polled.push_back(&c);
    }

    // Short timeout: the poll also doubles as the future-completion sweep,
    // so a resolved solve waits at most ~20 ms before its line goes out.
    ::poll(fds.empty() ? nullptr : fds.data(),
           static_cast<nfds_t>(fds.size()), 20);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (polled[i] == nullptr) {
        if (fds[i].revents & POLLIN) accept_new();
        continue;
      }
      Conn& c = *polled[i];
      if (fds[i].revents & (POLLERR | POLLNVAL)) c.dead = true;
      if (!c.dead && (fds[i].revents & (POLLIN | POLLHUP))) read_conn(c);
    }

    for (auto& cp : conns_) {
      Conn& c = *cp;
      if (c.dead) continue;
      if (!draining) process_lines(c);
      pump_ready(c);
      flush_conn(c);
    }

    // Reap: dead sockets immediately; EOF'd connections once fully
    // answered; during drain, connections whose queue has emptied — and
    // peers that made no write progress for the whole grace period.
    std::erase_if(conns_, [&](const std::unique_ptr<Conn>& cp) {
      const Conn& c = *cp;
      const bool answered = c.slots.empty() && c.out_empty();
      // Stalled = bytes are waiting and the peer has taken none for the
      // whole grace period. A connection still waiting on its own solves
      // (empty out_buf) is never "stalled" — its results are about to be
      // cancelled-and-flushed, and the clock resets when they queue.
      const bool stalled = draining && !c.out_empty() &&
                           c.last_progress.seconds() > kDrainGraceSeconds;
      if (c.dead || (c.closed_read && answered) || (draining && answered) ||
          stalled) {
        support::close_fd(c.fd);
        open_conns_.sub(1);
        return true;
      }
      return false;
    });

    if (draining && conns_.empty()) break;
  }
  // All result lines are out (or their peers gone); let solver threads
  // finish their cancelled epilogues before the engine is reused/queried.
  engine_.wait_idle();
  if (trace_sink_ != nullptr) trace_sink_->flush();
#else
  static_cast<void>(should_stop);
  RS_REQUIRE(false, "rsat serve requires POSIX sockets");
#endif
}

}  // namespace rs::service
