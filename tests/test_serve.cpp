// SocketServer: the line protocol over TCP and over one pipe stream —
// ordered responses, cancel and drain acks, per-line error recovery,
// cross-connection cache sharing, end-of-input with lines held back by the
// slot cap, and the cancel-drain shutdown path.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ddg/canon.hpp"
#include "ddg/generators.hpp"
#include "ddg/io.hpp"
#include "service/operation.hpp"
#include "service/protocol.hpp"
#include "service/serve.hpp"
#include "support/fs.hpp"
#include "support/parse.hpp"
#include "support/random.hpp"
#include "support/socket.hpp"
#include "support/timer.hpp"

#include "test_util.hpp"

namespace rs {
namespace {

using service::ServeConfig;
using service::SocketServer;

/// Blocking line-at-a-time protocol client over a non-blocking socket.
class LineClient {
 public:
  explicit LineClient(int port)
      : fd_(support::connect_tcp("127.0.0.1", port)) {
    EXPECT_TRUE(support::set_nonblocking(fd_));
  }
  ~LineClient() { support::close_fd(fd_); }

  void send(const std::string& data) {
    ASSERT_TRUE(support::send_all(fd_, data));
  }

  /// Half-close: no more requests, but responses can still be read.
  void close_write() { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line (stripped), or "" after timeout_s.
  std::string next_line(double timeout_s = 30.0) {
    const support::Timer t;
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (t.seconds() > timeout_s) return "";
      pollfd p = {fd_, POLLIN, 0};
      ::poll(&p, 1, 100);
      if (support::recv_some(fd_, &buf_) == -2) return "";
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// Server running on a background thread; joined + shut down on scope exit.
class ServerFixture {
 public:
  explicit ServerFixture(ServeConfig cfg = {})
      : server_(std::move(cfg)), thread_([this] { server_.run(); }) {}
  ~ServerFixture() {
    server_.shutdown();
    thread_.join();
  }
  SocketServer& operator*() { return server_; }
  SocketServer* operator->() { return &server_; }

 private:
  SocketServer server_;
  std::thread thread_;
};

TEST(Serve, AnalyzeCancelDrainOverOneConnection) {
  ServeConfig cfg;
  cfg.engine.threads = 2;
  ServerFixture server(cfg);
  ASSERT_GT(server->port(), 0);

  LineClient client(server->port());
  client.send("analyze kernel=fir8\n# a comment\n\ncancel 999\ndrain\n");

  const auto result = service::parse_fields(client.next_line());
  EXPECT_EQ(result.at(""), "result");
  EXPECT_EQ(result.at("status"), "ok");
  EXPECT_EQ(result.at("kind"), "analyze");
  EXPECT_EQ(result.at("name"), "fir8");
  EXPECT_EQ(result.at("cached"), "0");
  EXPECT_TRUE(result.count("t0.rs"));

  EXPECT_EQ(client.next_line(), "cancelled id=999 found=0");
  EXPECT_EQ(client.next_line(), "drained");

  const service::CounterSnapshot c = server->engine().metrics().counters();
  EXPECT_EQ(c.at("serve.connections"), 1u);
  EXPECT_EQ(c.at("serve.requests"), 1u);
  EXPECT_EQ(c.at("serve.responses"), 3u);
  EXPECT_EQ(c.at("serve.parse_errors"), 0u);
}

TEST(Serve, StatsVerbReturnsLiveTilingTelemetry) {
  ServeConfig cfg;
  cfg.engine.threads = 2;
  ServerFixture server(cfg);
  LineClient client(server->port());

  // stats is emitted in order behind earlier slots, so this snapshot must
  // already see the analyze answered.
  client.send("analyze kernel=lin-ddot\nstats\n");
  EXPECT_EQ(service::parse_fields(client.next_line()).at("status"), "ok");
  const std::string cold_line = client.next_line();
  const auto cold = service::parse_fields(cold_line);
  EXPECT_EQ(cold.at(""), "stats");
  EXPECT_EQ(cold.at("completed"), "1");
  EXPECT_EQ(cold.at("misses"), "1");
  EXPECT_EQ(cold.at("op.analyze.submitted"), "1");
  EXPECT_EQ(support::parse_ll(cold.at("memory_hits"), "k") +
                support::parse_ll(cold.at("disk_hits"), "k") +
                support::parse_ll(cold.at("coalesced"), "k") +
                support::parse_ll(cold.at("misses"), "k"),
            support::parse_ll(cold.at("completed"), "k"));

  // Warm run over the same connection: identical key schema, fresh values.
  client.send("analyze kernel=lin-ddot\nstats\n");
  EXPECT_EQ(service::parse_fields(client.next_line()).at("cached"), "1");
  const auto warm = service::parse_fields(client.next_line());
  std::vector<std::string> cold_keys, warm_keys;
  for (const auto& [k, v] : cold) cold_keys.push_back(k);
  for (const auto& [k, v] : warm) warm_keys.push_back(k);
  EXPECT_EQ(cold_keys, warm_keys);
  EXPECT_EQ(warm.at("completed"), "2");
  EXPECT_EQ(warm.at("memory_hits"), "1");
  EXPECT_EQ(warm.at("op.analyze.hits"), "1");

  // The ack counts as a response but not a request, and the engine stats
  // behind the verb still tile after the session.
  const service::CounterSnapshot c = server->engine().metrics().counters();
  EXPECT_EQ(c.at("serve.requests"), 2u);
  EXPECT_EQ(c.at("serve.responses"), 4u);
  EXPECT_TRUE(service::counters_tile(c));
}

TEST(Serve, TraceFileCapturesOneEventPerRequest) {
  const auto path =
      std::filesystem::temp_directory_path() / "rs_serve_trace.jsonl";
  std::filesystem::remove(path);
  {
    ServeConfig cfg;
    cfg.engine.threads = 2;
    cfg.trace_file = path.string();
    ServerFixture server(cfg);
    ASSERT_NE(server->trace_sink(), nullptr);
    LineClient client(server->port());
    // The duplicate goes out only after the first result line arrived:
    // pipelined, it could coalesce onto the in-flight solve (cached=1
    // tier=none) instead of hitting the memory tier.
    client.send("analyze kernel=lin-ddot\n");
    EXPECT_EQ(service::parse_fields(client.next_line()).at("cached"), "0");
    client.send("analyze kernel=lin-ddot\ndrain\n");
    EXPECT_EQ(service::parse_fields(client.next_line()).at("cached"), "1");
    EXPECT_EQ(client.next_line(), "drained");
    EXPECT_EQ(server->trace_sink()->written(), 2u);
  }  // shutdown flushes the sink
  std::string text;
  ASSERT_TRUE(support::read_file_to_string(path.string(), &text));
  // Two JSONL events: a miss with a solve phase, then a mem-tier hit
  // without one; both carry the full required-key set, the input's shape
  // features and the wire cost.
  std::size_t lines = 0, at = 0;
  std::vector<std::string> features;  // each event's ddg_* block
  for (std::size_t nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', at)) {
    const std::string line = text.substr(at, nl - at);
    at = nl + 1;
    ++lines;
    const std::size_t f = line.find("\"ddg_ops\":");
    if (f != std::string::npos) {
      features.push_back(line.substr(f, line.find(",\"parse_ms\":") - f));
    }
    for (const char* key :
         {"\"ev\":\"request\"", "\"ts\":", "\"op\":\"analyze\"", "\"fp\":",
          "\"ok\":true", "\"tier\":", "\"stop\":\"proven\"", "\"nodes\":",
          "\"ddg_ops\":", "\"ddg_arcs\":", "\"ddg_cp\":", "\"ddg_width\":",
          "\"ddg_types\":", "\"parse_ms\":", "\"queue_ms\":",
          "\"encode_ms\":", "\"total_ms\":", "\"bytes\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << key << " missing in " << line;
    }
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(text.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(text.find("\"tier\":\"mem\""), std::string::npos);
  EXPECT_NE(text.find("\"solve_ms\":"), std::string::npos);
  // The hit describes the same input as the miss, and the input is real.
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features[0], features[1]);
  EXPECT_EQ(features[0].find("\"ddg_ops\":0,"), std::string::npos)
      << features[0];
  std::filesystem::remove(path);
}

/// Reads one full `metrics` scrape: every line through the "# EOF" frame.
std::vector<std::string> read_scrape(LineClient& client) {
  std::vector<std::string> lines;
  for (;;) {
    const std::string line = client.next_line();
    if (line.empty()) break;  // timeout — caller's EXPECTs will flag it
    lines.push_back(line);
    if (line == "# EOF") break;
  }
  return lines;
}

/// A sample line with its value dropped, comment lines verbatim — what must
/// stay byte-identical between two scrapes of one process.
std::string scrape_shape(const std::string& line) {
  if (!line.empty() && line.front() == '#') return line;
  const std::size_t sp = line.rfind(' ');
  return sp == std::string::npos ? line : line.substr(0, sp);
}

TEST(Serve, MetricsVerbRendersStablePrometheusExposition) {
  ServeConfig cfg;
  cfg.engine.threads = 2;
  ServerFixture server(cfg);
  LineClient client(server->port());

  // A cold scrape parses but is smaller: op.* families register lazily on
  // the first solve and sparse histogram ladders grow with observations.
  client.send("metrics\n");
  const std::vector<std::string> cold = read_scrape(client);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold.back(), "# EOF");

  // Warm the engine, then scrape twice in a row: consecutive warm scrapes
  // are byte-identical in shape — same families, same sample lines — with
  // only values free to differ (the scrape itself counts as a request).
  client.send("analyze kernel=lin-ddot\nmetrics\nmetrics\n");
  EXPECT_EQ(service::parse_fields(client.next_line()).at("status"), "ok");
  const std::vector<std::string> warm = read_scrape(client);
  const std::vector<std::string> warm2 = read_scrape(client);
  ASSERT_EQ(warm.size(), warm2.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(scrape_shape(warm[i]), scrape_shape(warm2[i])) << "line " << i;
  }
  EXPECT_GT(warm.size(), cold.size());

  // Exposition-format sanity over the warm scrape: every line is a typed
  // family header or a `name value` sample, names sorted, counters total'd.
  std::string prev_family;
  for (const std::string& line : warm) {
    if (line == "# EOF") break;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_LT(prev_family, family);  // global name sort
      prev_family = family;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), sp) << line;  // exactly `name value`
  }
  const std::string all = [&warm] {
    std::string s;
    for (const auto& l : warm) s += l + "\n";
    return s;
  }();
  EXPECT_NE(all.find("# TYPE rsat_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(all.find("rsat_engine_completed_total 1"), std::string::npos);
  EXPECT_NE(all.find("rsat_solver_"), std::string::npos);
}

TEST(Serve, MalformedLineAnswersErrorAndConnectionSurvives) {
  ServerFixture server;
  LineClient client(server->port());
  client.send("frobnicate kernel=fir8\nanalyze kernel=fir8\n");

  const auto err = service::parse_fields(client.next_line());
  EXPECT_EQ(err.at("status"), "error");
  EXPECT_EQ(err.at("name"), "line1");
  EXPECT_FALSE(err.at("msg").empty());

  const auto ok = service::parse_fields(client.next_line());
  EXPECT_EQ(ok.at("status"), "ok");
  EXPECT_EQ(test::counter(server->engine().metrics(), "serve.parse_errors"),
            1u);
}

TEST(Serve, ResultLeavesWhenItsSolveFinishes) {
  // One outstanding request at a time, each a cache miss that greedy
  // answers in well under a millisecond: the loop must learn of each
  // completion from its wake handle, not from a poll timeout (which would
  // add a ~20 ms tick per request, about a second for the 50). What is
  // timed is each answer's wait beyond its own solve (client latency minus
  // the line's ms=), so a slow build or a loaded box slows the solves
  // without eating into the bound.
  std::vector<std::string> lines;
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; lines.size() < 50; ++seed) {
    support::Rng rng(seed);
    ddg::LayeredDagParams p;
    p.layers = 3;
    p.min_width = 2;
    p.max_width = 4;
    const ddg::Ddg g = ddg::random_layered(rng, ddg::superscalar_model(), p);
    if (!seen.insert(ddg::fingerprint(g).hex()).second) continue;
    lines.push_back("analyze engine=greedy ddg=" +
                    service::escape_field(ddg::to_text(g)) + "\n");
  }
  ServerFixture server;
  LineClient client(server->port());
  double wait_ms = 0;
  for (const std::string& line : lines) {
    const support::Timer latency;
    client.send(line);
    const auto fields = service::parse_fields(client.next_line());
    ASSERT_EQ(fields.at("status"), "ok");
    EXPECT_EQ(fields.at("cached"), "0");
    wait_ms += latency.millis() - std::stod(fields.at("ms"));
  }
  EXPECT_LT(wait_ms, 500.0);
}

TEST(Serve, ConnectionsShareTheEngineCache) {
  ServerFixture server;
  std::string first, second;
  {
    LineClient a(server->port());
    a.send("analyze kernel=lin-ddot\n");
    first = a.next_line();
  }
  {
    LineClient b(server->port());
    b.send("analyze kernel=lin-ddot\n");
    second = b.next_line();
  }
  const auto f1 = service::parse_fields(first);
  const auto f2 = service::parse_fields(second);
  EXPECT_EQ(f1.at("cached"), "0");
  EXPECT_EQ(f2.at("cached"), "1");
  // Identical everything else — including the engine-assigned default ids
  // being distinct (server-wide sequence).
  EXPECT_EQ(f1.at("fp"), f2.at("fp"));
  EXPECT_EQ(f1.at("t0.rs"), f2.at("t0.rs"));
  EXPECT_NE(f1.at("id"), f2.at("id"));
  EXPECT_EQ(test::counter(server->engine().metrics(), "serve.connections"),
            2u);
}

TEST(Serve, EveryRegisteredOperationServesColdWarmAndDiskHit) {
  // The registry contract over TCP: each operation answers over a socket
  // cold, then memory-hit, then — across a server restart sharing the
  // cache dir — disk-hit, with byte-identical lines modulo cached=/ms=.
  const auto dir = std::filesystem::temp_directory_path() / "rs_serve_ops";
  std::filesystem::remove_all(dir);
  std::vector<std::string> lines;
  std::size_t id = 1;
  for (const service::Operation* op : service::operations()) {
    lines.push_back(test::request_line(*op) + " id=" + std::to_string(id++));
  }
  std::vector<std::string> cold(lines.size()), warm(lines.size());
  {
    ServeConfig cfg;
    cfg.engine.cache_dir = dir.string();
    ServerFixture server(cfg);
    LineClient client(server->port());
    for (const std::string& line : lines) client.send(line + "\n");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      cold[i] = client.next_line();
      ASSERT_NE(service::parse_fields(cold[i]).at("status"), "error")
          << lines[i] << " -> " << cold[i];
      EXPECT_EQ(service::parse_fields(cold[i]).at("cached"), "0") << lines[i];
    }
    for (const std::string& line : lines) client.send(line + "\n");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      warm[i] = client.next_line();
      EXPECT_EQ(service::parse_fields(warm[i]).at("cached"), "1") << lines[i];
      EXPECT_EQ(test::strip_delivery(cold[i]), test::strip_delivery(warm[i])) << lines[i];
    }
  }
  // Restarted server, fresh memory tier, same disk tier.
  ServeConfig cfg;
  cfg.engine.cache_dir = dir.string();
  ServerFixture server(cfg);
  LineClient client(server->port());
  for (const std::string& line : lines) client.send(line + "\n");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string hit = client.next_line();
    EXPECT_EQ(service::parse_fields(hit).at("cached"), "1") << lines[i];
    EXPECT_EQ(test::strip_delivery(cold[i]), test::strip_delivery(hit)) << lines[i];
  }
  EXPECT_GE(test::counter(server->engine().metrics(), "engine.disk_hits"),
            lines.size());
  std::filesystem::remove_all(dir);
}

TEST(Serve, PortFileIsWrittenOnceListening) {
  const auto path = std::filesystem::temp_directory_path() / "rs_serve_port";
  std::filesystem::remove(path);
  ServeConfig cfg;
  cfg.port_file = path.string();
  ServerFixture server(cfg);
  std::string text;
  ASSERT_TRUE(support::read_file_to_string(path.string(), &text));
  EXPECT_EQ(text, std::to_string(server->port()) + "\n");
  std::filesystem::remove(path);
}

TEST(Serve, UnterminatedFinalLineIsAnsweredAtEof) {
  // `printf 'analyze kernel=fir8' | nc host port` — no trailing newline.
  // The loop answers such a line at EOF, for serve and batch alike.
  ServerFixture server;
  LineClient client(server->port());
  client.send("analyze kernel=fir8");
  client.close_write();
  const auto fields = service::parse_fields(client.next_line());
  EXPECT_EQ(fields.at("status"), "ok");
  EXPECT_EQ(fields.at("name"), "fir8");
}

TEST(Serve, HalfCloseAnswersLinesHeldBackBySlotCap) {
  // More lines than the slot cap, then EOF: the lines the cap held back in
  // the input buffer must still be answered, in order, before the close.
  ServeConfig cfg;
  cfg.engine.threads = 2;
  cfg.max_pending_per_conn = 4;
  ServerFixture server(cfg);
  LineClient client(server->port());
  std::string lines;
  for (int i = 0; i < 20; ++i) lines += "analyze kernel=lin-ddot engine=greedy\n";
  client.send(lines);
  client.close_write();
  for (int i = 1; i <= 20; ++i) {
    const auto fields = service::parse_fields(client.next_line());
    ASSERT_EQ(fields.at("id"), std::to_string(i));
    EXPECT_EQ(fields.at("status"), "ok");
  }
  EXPECT_EQ(client.next_line(0.5), "");
}

TEST(Serve, DrainHoldsBackLaterLinesOfItsStream) {
  // The cancel after a drain is not read until the drain is answered, so
  // it cannot reach the minreg ahead of the drain: that one runs into its
  // budget, and the cancel finds nothing left to cancel.
  ServeConfig cfg;
  cfg.engine.threads = 2;
  ServerFixture server(cfg);
  LineClient client(server->port());
  client.send("minreg kernel=fir8 budget=0.3 id=1\ndrain\ncancel 1\n");
  const auto fields = service::parse_fields(client.next_line());
  EXPECT_EQ(fields.at("id"), "1");
  EXPECT_EQ(fields.at("stop"), "timeout");
  EXPECT_EQ(client.next_line(), "drained");
  EXPECT_EQ(client.next_line(), "cancelled id=1 found=0");
}

TEST(Serve, StreamServerAnswersAPipeAndRestoresFdFlags) {
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  // One fd blocking and one non-blocking beforehand: each gets its own
  // state back.
  ASSERT_TRUE(support::set_nonblocking(out[1]));
  const int in_flags = ::fcntl(in[0], F_GETFL);
  const int out_flags = ::fcntl(out[1], F_GETFL);
  ASSERT_EQ(in_flags & O_NONBLOCK, 0);
  ASSERT_NE(out_flags & O_NONBLOCK, 0);

  ASSERT_TRUE(support::send_all(in[1], "analyze kernel=fir8\ndrain\n"));
  support::close_fd(in[1]);
  {
    ServeConfig cfg;
    cfg.engine.threads = 1;
    SocketServer server(cfg, in[0], out[1]);
    EXPECT_EQ(server.port(), 0);
    server.run();  // returns at EOF once both lines are answered
    EXPECT_EQ(test::counter(server.engine().metrics(), "serve.connections"),
              1u);
    EXPECT_EQ(test::counter(server.engine().metrics(), "serve.responses"),
              2u);
  }
  EXPECT_EQ(::fcntl(in[0], F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(out[1], F_GETFL), out_flags);

  support::close_fd(out[1]);  // the server left its fds open
  std::string got;
  while (support::recv_some(out[0], &got) > 0) {
  }
  const std::size_t nl = got.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const auto fields = service::parse_fields(got.substr(0, nl));
  EXPECT_EQ(fields.at("status"), "ok");
  EXPECT_EQ(fields.at("name"), "fir8");
  EXPECT_EQ(got.substr(nl + 1), "drained\n");
  support::close_fd(in[0]);
  support::close_fd(out[0]);
}

TEST(Serve, OversizedLineIsRejectedInsteadOfBufferedForever) {
  ServerFixture server;
  LineClient client(server->port());
  // More than kMaxLineBytes with no newline: the server must answer with
  // an error and stop reading, not grow its input buffer without bound.
  client.send(std::string(SocketServer::kMaxLineBytes + 1000, 'x'));
  const auto fields = service::parse_fields(client.next_line(60));
  EXPECT_EQ(fields.at("status"), "error");
  EXPECT_NE(fields.at("msg").find("exceeds"), std::string::npos);
  EXPECT_EQ(test::counter(server->engine().metrics(), "serve.parse_errors"),
            1u);
}

TEST(Serve, ShutdownCancelsInFlightAndFlushesResultLines) {
  // A dense layered DAG whose exact RS solve runs for many seconds
  // unbudgeted: shutdown must cancel it cooperatively and still deliver
  // its (stop=cancelled) result line before closing.
  support::Rng rng(11);
  ddg::LayeredDagParams p;
  p.layers = 6;
  p.min_width = 4;
  p.max_width = 6;
  p.edge_prob = 0.8;
  const ddg::Ddg slow =
      ddg::random_layered(rng, ddg::superscalar_model(), p);

  ServeConfig cfg;
  cfg.engine.threads = 1;
  ServerFixture server(cfg);
  LineClient client(server->port());
  client.send("analyze ddg=" + service::escape_field(ddg::to_text(slow)) +
              "\n");
  // Give the worker a moment to actually start the solve, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server->shutdown();
  const auto fields = service::parse_fields(client.next_line());
  EXPECT_EQ(fields.at("status"), "ok");
  EXPECT_EQ(fields.at("stop"), "cancelled");
}

}  // namespace
}  // namespace rs

#endif  // __unix__ || __APPLE__
