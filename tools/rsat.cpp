// rsat — command-line front end for the register saturation library.
//
//   rsat <operation> <file.ddg | kernel=<name> | ...> [key=value ...]
//       one-shot protocol request for any registered service operation
//       (analyze, reduce, minreg, spill, schedule, ... — `rsat` with no
//       arguments lists them). Options are the protocol's own key=value
//       tokens (budget=<sec>, limits=, emit=1, ...), parsed by the same
//       parser batch and serve use, and the answer is the protocol result
//       line — byte-identical to what batch/serve emit for the same
//       request (modulo cached=/ms=). A bare path is shorthand for
//       file=<path>.
//   rsat dot <file.ddg>
//       Graphviz dump.
//   rsat kernels
//       list built-in reconstructed kernels.
//   rsat dump <kernel> [--vliw]
//       emit a built-in kernel in the .ddg text format.
//   rsat batch [manifest] [--threads N] [--cache-mb M] [--cache-dir D]
//       [--trace-file F] [--metrics-json F] [--vliw]
//       stream protocol requests (stdin or manifest file) through the
//       cached concurrent analysis engine; result lines on stdout, a
//       summary with hit rate (split by memory/disk tier) and latency
//       percentiles on stderr. The stream runs through serve's own
//       connection loop (service/serve.hpp), so batch and serve share the
//       cancel/drain/stats/metrics control verbs, backpressure and the
//       8 MiB line cap. Ctrl-C (SIGINT) stops reading, cancels in-flight
//       solves cooperatively, prints every pending result plus the
//       summary, and exits 0.
//   rsat serve [--host H] [--port P] [--port-file F] [--threads N]
//       [--cache-mb M] [--cache-dir D] [--trace-file F]
//       [--metrics-json F] [--metrics-interval-s N] [--slow-ms T]
//       [--slo-ms T] [--vliw]
//       the same loop over TCP, one stream per connection (port 0 =
//       ephemeral; the bound port goes to stderr and --port-file). SIGINT
//       cancels in-flight solves, flushes every pending result line, then
//       shuts down cleanly.
//   rsat top --port P [--host H] [--interval-s N] [--once]
//       poll a running serve's `stats` verb and render a refreshing
//       per-operation terminal table (requests, hit/miss split, p50, SLO
//       error budget when the server runs with --slo-ms). --once prints a
//       single snapshot without clearing the screen and exits.
//
// --cache-dir D enables the persistent on-disk result tier under D (shared
// by batch and serve; entries survive restarts and are keyed by the
// canonical DDG fingerprint + request options).
//
// Observability (batch and serve; see README "Observability"):
//   --trace-file F    one JSONL trace event per request (parse, queue,
//                     fingerprint, store lookup, solve, encode phases plus
//                     cache tier / stop cause / node count and the input's
//                     shape features: ops, arcs, critical path, width,
//                     per-type value counts) to F
//   --metrics-json F  full metrics-registry snapshot (counters, gauges,
//                     histogram quantiles) written to F at exit
//   --metrics-interval-s N  serve only: atomically rewrite --metrics-json
//                     every N seconds (temp + rename), so a crashed serve
//                     still leaves a recent snapshot on disk
//   --slow-ms T       serve only: log requests slower than T ms to stderr
//   --slo-ms T        serve only: per-op latency objective; completed
//                     responses count as slo.<op>.ok or slo.<op>.breach
//                     and the stats verb gains slo.* error-budget fields
// The `stats` protocol verb returns the same registry live, as one
// key=value line, over batch stdin or a serve connection; the `metrics`
// verb returns it in Prometheus text exposition format (terminated by a
// literal `# EOF` line).
//
// The .ddg text format is documented in src/ddg/io.hpp; the batch request/
// result protocol in src/service/protocol.hpp.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "cfg/generators.hpp"
#include "cfg/io.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "service/engine.hpp"
#include "service/operation.hpp"
#include "service/protocol.hpp"
#include "service/serve.hpp"
#include "service/trace.hpp"
#include "support/assert.hpp"
#include "support/fs.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"
#include "support/socket.hpp"
#include "support/timer.hpp"

namespace {

int usage() {
  // The operation roster and each operation's option grammar come from the
  // registry at runtime, so this help text cannot drift from the set of
  // operations batch/serve/one-shot actually accept.
  std::ostringstream os;
  os << "usage:\n"
        "  rsat <op>    <file.ddg | kernel=<k> | ddg=<esc>> [key=value ...]\n"
        "               one-shot protocol request; prints the result line\n"
        "               (a bare path means file=<path>). Program operations\n"
        "               take <file.prog | prog=<p>> payloads instead\n"
        "  rsat dot     <file.ddg>\n"
        "  rsat kernels\n"
        "  rsat programs\n"
        "  rsat dump <kernel> [--vliw]\n"
        "  rsat dumpprog <program> [--vliw]\n"
        "  rsat batch [manifest] [--threads N] [--cache-mb M] [--cache-dir D]\n"
        "             [--trace-file F] [--metrics-json F] [--vliw]\n"
        "             (stdin or the manifest, answered like one serve stream)\n"
        "  rsat serve [--host H] [--port P] [--port-file F] [--threads N]\n"
        "             [--cache-mb M] [--cache-dir D] [--trace-file F]\n"
        "             [--metrics-json F] [--metrics-interval-s N]\n"
        "             [--slow-ms T] [--slo-ms T] [--vliw]\n"
        "  rsat top   --port P [--host H] [--interval-s N] [--once]\n"
        "\n"
        "operations (one-shot <op> and batch/serve request lines: "
     << rs::service::operation_names("|")
     << "|cancel|drain|stats|metrics):\n";
  for (const rs::service::Operation* op : rs::service::operations()) {
    os << "  " << op->name();
    for (std::size_t pad = op->name().size(); pad < 9; ++pad) os << ' ';
    os << op->synopsis() << '\n';
  }
  os << "common request options: budget=<sec> id=<n> name=<str>; kernel=,\n"
        "prog= and file=<x>.prog payloads also take model=superscalar|vliw\n";
  std::fputs(os.str().c_str(), stderr);
  return 2;
}

/// `rsat <op> <payload> [key=value ...]`: one protocol request through a
/// single-threaded engine, answered with its protocol result line. The
/// option tokens are handed to the *protocol parser* verbatim, so the
/// one-shot path and batch/serve share one option grammar by construction.
int cmd_oneshot(const rs::service::Operation& op, int argc, char** argv) {
  if (argc < 3) return usage();
  std::string line{op.name()};
  // A bare path is shorthand for file=<path>; anything with '=' is a
  // protocol token already (kernel=..., ddg=..., or an option).
  const std::string payload = argv[2];
  if (payload.find('=') == std::string::npos) {
    line += " file=" + rs::service::escape_field(payload);
  } else {
    line += " " + payload;
  }
  for (int i = 3; i < argc; ++i) {
    line += " ";
    line += argv[i];
  }
  rs::service::EngineConfig cfg;
  cfg.threads = 1;
  rs::service::AnalysisEngine engine(cfg);
  const rs::service::Response resp =
      engine.run(rs::service::parse_request_line(line, 1));
  std::puts(rs::service::render_response(resp).c_str());
  return resp.payload->ok && resp.payload->success ? 0 : 1;
}

/// Reads and normalizes a .ddg file (`rsat dot`).
rs::ddg::Ddg load(const std::string& path) {
  std::string text;
  RS_REQUIRE(rs::support::read_file_to_string(path, &text),
             "cannot open " + path);
  return rs::ddg::from_text(text).normalized();
}

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_sigint(int) { g_interrupted = 1; }

/// Installs the SIGINT handler that sets g_interrupted; the line-stream loop
/// polls it at least every 20 ms, whichever thread took the signal.
/// SA_RESETHAND restores the default action after the first signal, so a
/// second Ctrl-C always terminates.
void install_sigint_handler() {
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa = {};
  sa.sa_handler = handle_sigint;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
#else
  std::signal(SIGINT, handle_sigint);
#endif
}

/// The summary tail batch and serve share after run(): the hit-rate line
/// split by store tier (plus the persistent-cache directory and its
/// counters when enabled), per-op rows, latency quantiles, the caller's
/// wall-time line, and the trace sink's counts.
void print_summary(rs::service::SocketServer& server,
                   const std::string& cache_dir, const std::string& wall) {
  const rs::service::EngineStats st = server.engine().stats();
  std::fprintf(stderr,
               "cache: %llu hits (%llu mem, %llu disk) + %llu coalesced / "
               "%llu lookups (%.1f%% hit rate), %zu entries, %zu bytes\n",
               static_cast<unsigned long long>(st.cache_hits),
               static_cast<unsigned long long>(st.memory_hits),
               static_cast<unsigned long long>(st.disk_hits),
               static_cast<unsigned long long>(st.coalesced),
               static_cast<unsigned long long>(st.cache_hits + st.coalesced +
                                               st.misses),
               100.0 * st.hit_rate(), st.cache_entries, st.cache_bytes);
  if (st.disk_enabled) {
    std::fprintf(stderr,
                 "cache dir: %s (%llu disk hits, %llu writes, %llu corrupt, "
                 "%llu write errors)\n",
                 cache_dir.c_str(),
                 static_cast<unsigned long long>(st.disk.hits),
                 static_cast<unsigned long long>(st.disk.insertions),
                 static_cast<unsigned long long>(st.disk.corrupt),
                 static_cast<unsigned long long>(st.disk.write_errors));
  }
  // One row per operation actually exercised (EngineStats::per_op).
  std::uint64_t op_hits = 0, op_misses = 0;
  for (const auto& [name, op] : st.per_op) {
    std::fprintf(stderr,
                 "op %s: %llu submitted, %llu hits, %llu misses, "
                 "p50 %.3f ms\n",
                 name.c_str(), static_cast<unsigned long long>(op.submitted),
                 static_cast<unsigned long long>(op.hits),
                 static_cast<unsigned long long>(op.misses), op.p50_ms);
    op_hits += op.hits;
    op_misses += op.misses;
  }
  // Tiling invariants (both front ends print summaries only at idle, when
  // they hold exactly): every completed response is exactly one of a
  // memory hit, disk hit, coalesce, or miss, and the per-op slices sum to
  // the aggregates. A violation is an accounting bug worth shouting about,
  // not worth killing a server that just answered its workload over.
  if (!st.counters_tile()) {
    std::fprintf(stderr,
                 "WARNING: cache counters do not tile: "
                 "%llu mem + %llu disk + %llu coalesced + %llu misses != "
                 "%llu completed\n",
                 static_cast<unsigned long long>(st.memory_hits),
                 static_cast<unsigned long long>(st.disk_hits),
                 static_cast<unsigned long long>(st.coalesced),
                 static_cast<unsigned long long>(st.misses),
                 static_cast<unsigned long long>(st.completed));
  }
  if (op_hits != st.cache_hits + st.coalesced || op_misses != st.misses) {
    std::fprintf(stderr,
                 "WARNING: per-op slices do not tile the engine totals: "
                 "hits %llu != %llu or misses %llu != %llu\n",
                 static_cast<unsigned long long>(op_hits),
                 static_cast<unsigned long long>(st.cache_hits + st.coalesced),
                 static_cast<unsigned long long>(op_misses),
                 static_cast<unsigned long long>(st.misses));
  }
  std::fprintf(stderr,
               "latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
               st.p50_ms, st.p95_ms, st.p99_ms, st.max_ms);
  std::fprintf(stderr, "wall: %s, %zu threads\n", wall.c_str(),
               server.engine().thread_count());
  if (const rs::service::TraceSink* sink = server.trace_sink()) {
    std::fprintf(stderr, "trace: %llu events to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(sink->written()),
                 sink->path().c_str(),
                 static_cast<unsigned long long>(sink->dropped()));
  }
}

/// --metrics-json: the whole registry (engine.*, op.*, store.*, pool.*,
/// serve.*, ...) as one JSON object, written atomically.
void write_metrics_json(const rs::support::MetricsRegistry& metrics,
                        const std::string& path, bool announce = true) {
  if (path.empty()) return;
  if (!rs::support::write_file_atomic(path, metrics.to_json() + "\n")) {
    std::fprintf(stderr, "warning: cannot write metrics json %s\n",
                 path.c_str());
    return;
  }
  if (announce) std::fprintf(stderr, "metrics json: %s\n", path.c_str());
}

/// The flags batch and serve share. Consumes argv[i] (and its value) and
/// returns true when it is one of them.
bool parse_engine_flag(int argc, char** argv, int& i,
                       rs::service::ServeConfig& cfg,
                       std::string& metrics_json) {
  if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
    const int threads = rs::support::parse_int(argv[++i], "--threads");
    RS_REQUIRE(threads >= 0, "--threads must be >= 0");
    cfg.engine.threads = static_cast<std::size_t>(threads);
  } else if (!std::strcmp(argv[i], "--cache-mb") && i + 1 < argc) {
    const int mb = rs::support::parse_int(argv[++i], "--cache-mb");
    RS_REQUIRE(mb >= 0, "--cache-mb must be >= 0");
    cfg.engine.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
  } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
    cfg.engine.cache_dir = argv[++i];
    RS_REQUIRE(!cfg.engine.cache_dir.empty(), "--cache-dir must not be empty");
  } else if (!std::strcmp(argv[i], "--trace-file") && i + 1 < argc) {
    cfg.trace_file = argv[++i];
    RS_REQUIRE(!cfg.trace_file.empty(), "--trace-file must not be empty");
  } else if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
    metrics_json = argv[++i];
    RS_REQUIRE(!metrics_json.empty(), "--metrics-json must not be empty");
  } else if (!std::strcmp(argv[i], "--vliw")) {
    cfg.protocol.default_model = rs::ddg::vliw_model();
  } else {
    return false;
  }
  return true;
}

int cmd_serve(int argc, char** argv) {
  rs::service::ServeConfig cfg;
  std::string metrics_json;
  double metrics_interval_s = 0;
  try {
    for (int i = 2; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--host") && i + 1 < argc) {
        cfg.host = argv[++i];
      } else if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
        cfg.port = rs::support::parse_int(argv[++i], "--port");
        RS_REQUIRE(cfg.port >= 0 && cfg.port <= 65535,
                   "--port must be in [0, 65535]");
      } else if (!std::strcmp(argv[i], "--port-file") && i + 1 < argc) {
        cfg.port_file = argv[++i];
      } else if (!std::strcmp(argv[i], "--metrics-interval-s") &&
                 i + 1 < argc) {
        metrics_interval_s = rs::support::parse_budget_seconds(
            argv[++i], "--metrics-interval-s");
        RS_REQUIRE(metrics_interval_s > 0,
                   "--metrics-interval-s must be > 0");
      } else if (!std::strcmp(argv[i], "--slow-ms") && i + 1 < argc) {
        cfg.slow_ms = rs::support::parse_budget_seconds(argv[++i], "--slow-ms");
      } else if (!std::strcmp(argv[i], "--slo-ms") && i + 1 < argc) {
        cfg.slo_ms = rs::support::parse_budget_seconds(argv[++i], "--slo-ms");
        RS_REQUIRE(cfg.slo_ms > 0, "--slo-ms must be > 0");
      } else if (!parse_engine_flag(argc, argv, i, cfg, metrics_json)) {
        RS_REQUIRE(false, std::string("unknown serve flag ") + argv[i]);
      }
    }
    RS_REQUIRE(metrics_interval_s == 0 || !metrics_json.empty(),
               "--metrics-interval-s requires --metrics-json");
  } catch (const rs::support::PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  install_sigint_handler();
#if defined(__unix__) || defined(__APPLE__)
  // Without this, platforms lacking MSG_NOSIGNAL (macOS) would let one
  // client that disconnects before reading its result kill the whole
  // server with SIGPIPE on the write-back.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  rs::service::SocketServer server(cfg);

  std::fprintf(stderr, "serve: listening on %s:%d\n", cfg.host.c_str(),
               server.port());
  if (!cfg.engine.cache_dir.empty()) {
    std::fprintf(stderr, "cache dir: %s\n", cfg.engine.cache_dir.c_str());
  }
  std::fflush(stderr);

  const rs::support::Timer wall;
  // --metrics-interval-s: the loop's stop poll (every <= 20 ms) also
  // re-snapshots --metrics-json atomically (temp + rename), so a crashed
  // or SIGKILLed serve leaves a recent metrics file on disk.
  rs::support::Timer since_snapshot;
  server.run([&] {
    if (metrics_interval_s > 0 &&
        since_snapshot.seconds() >= metrics_interval_s) {
      since_snapshot.reset();
      write_metrics_json(server.engine().metrics(), metrics_json,
                         /*announce=*/false);
    }
    return g_interrupted != 0;
  });

  const rs::service::ServeStats ss = server.serve_stats();
  std::fprintf(stderr,
               "serve: %llu connections, %llu requests, %llu responses "
               "(%llu parse errors)%s\n",
               static_cast<unsigned long long>(ss.connections),
               static_cast<unsigned long long>(ss.requests),
               static_cast<unsigned long long>(ss.responses),
               static_cast<unsigned long long>(ss.parse_errors),
               g_interrupted ? " [interrupted, drained]" : "");
  char wall_line[64];
  std::snprintf(wall_line, sizeof wall_line, "%.3f s", wall.seconds());
  print_summary(server, cfg.engine.cache_dir, wall_line);
  write_metrics_json(server.engine().metrics(), metrics_json);
  return 0;
}

int cmd_batch(int argc, char** argv) {
  std::string manifest_path;
  std::string metrics_json;
  rs::service::ServeConfig cfg;
  try {
    for (int i = 2; i < argc; ++i) {
      if (parse_engine_flag(argc, argv, i, cfg, metrics_json)) continue;
      if (argv[i][0] == '-') {
        RS_REQUIRE(false, std::string("unknown batch flag ") + argv[i]);
      } else if (manifest_path.empty()) {
        manifest_path = argv[i];
      } else {
        return usage();
      }
    }
  } catch (const rs::support::PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  int in_fd = STDIN_FILENO;
  if (!manifest_path.empty()) {
    in_fd = ::open(manifest_path.c_str(), O_RDONLY);
    if (in_fd < 0) {
      std::fprintf(stderr, "error: cannot open %s\n", manifest_path.c_str());
      return 2;
    }
  }

  install_sigint_handler();
  // The stream runs through serve's own loop, so batch and serve share
  // ordering, backpressure, the line cap, drain and the SIGINT drain.
  rs::service::SocketServer server(cfg, in_fd, STDOUT_FILENO);
  const rs::support::Timer wall;
  server.run([] { return g_interrupted != 0; });
  if (in_fd != STDIN_FILENO) rs::support::close_fd(in_fd);

  // Control-verb acks are not requests; parse errors are (and failed).
  // Cancelled and timed-out responses count as ok (they carry valid
  // witnessed bounds) and are tallied by cause too.
  const rs::service::ServeStats ss = server.serve_stats();
  const rs::service::EngineStats st = server.engine().stats();
  const std::uint64_t total = ss.requests + ss.parse_errors;
  const std::uint64_t failed = st.errors + ss.parse_errors;
  if (total == 0) {
    std::fprintf(stderr, "batch: 0 requests\n");
    write_metrics_json(server.engine().metrics(), metrics_json);
    return 0;
  }
  const double wall_s = wall.seconds();
  std::fprintf(stderr,
               "batch: %llu requests, %llu ok, %llu error "
               "(%llu cancelled, %llu timed out)%s\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(total - failed),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(st.cancelled),
               static_cast<unsigned long long>(st.timed_out),
               g_interrupted ? " [interrupted, drained]" : "");
  char wall_line[64];
  std::snprintf(wall_line, sizeof wall_line, "%.3f s (%.1f req/s)", wall_s,
                static_cast<double>(total) / wall_s);
  print_summary(server, cfg.engine.cache_dir, wall_line);
  write_metrics_json(server.engine().metrics(), metrics_json);
  if (g_interrupted) return 0;  // drained cleanly after Ctrl-C
  return failed == 0 ? 0 : 1;
}

/// One `rsat top` frame: the stats verb line rendered as a summary header
/// plus a per-operation table (and SLO columns when the server reports
/// slo_ms). Parsing reuses the protocol's own field splitter, so the view
/// cannot drift from what the stats verb actually emits.
void render_top_frame(const std::string& stats_line, const std::string& where,
                      bool clear) {
  const std::map<std::string, std::string> f =
      rs::service::parse_fields(stats_line);
  const auto field = [&f](const std::string& key) -> std::string {
    const auto it = f.find(key);
    return it == f.end() ? std::string("0") : it->second;
  };
  if (clear) std::fputs("\033[2J\033[H", stdout);  // clear + home
  std::printf("rsat top — %s\n", where.c_str());
  std::printf(
      "submitted %s  completed %s  errors %s  queue %s  hit_rate %s\n",
      field("submitted").c_str(), field("completed").c_str(),
      field("errors").c_str(), field("queue_depth").c_str(),
      field("hit_rate").c_str());
  std::printf("latency ms: p50 %s  p95 %s  p99 %s  max %s\n",
              field("p50_ms").c_str(), field("p95_ms").c_str(),
              field("p99_ms").c_str(), field("max_ms").c_str());
  const bool slo = f.count("slo_ms") != 0;
  if (slo) std::printf("slo_ms %s\n", field("slo_ms").c_str());
  std::printf("\n%-14s %10s %10s %10s %10s", "op", "submitted", "hits",
              "misses", "p50_ms");
  if (slo) std::printf(" %10s %10s %12s", "slo_ok", "slo_breach", "breach_rate");
  std::printf("\n");
  // Every op with a stats group has an op.<name>.submitted key; the map is
  // sorted, so rows come out name-ordered like the line itself.
  for (const auto& [key, value] : f) {
    static_cast<void>(value);
    const std::string prefix = "op.";
    const std::string suffix = ".submitted";
    if (key.rfind(prefix, 0) != 0 || key.size() <= prefix.size() + suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string name =
        key.substr(prefix.size(), key.size() - prefix.size() - suffix.size());
    std::printf("%-14s %10s %10s %10s %10s", name.c_str(),
                field("op." + name + ".submitted").c_str(),
                field("op." + name + ".hits").c_str(),
                field("op." + name + ".misses").c_str(),
                field("op." + name + ".p50_ms").c_str());
    if (slo) {
      std::printf(" %10s %10s %12s", field("slo." + name + ".ok").c_str(),
                  field("slo." + name + ".breach").c_str(),
                  field("slo." + name + ".breach_rate").c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

/// `rsat top`: poll a running serve's stats verb over one persistent
/// connection and render a refreshing per-op table.
int cmd_top(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  double interval_s = 2.0;
  bool once = false;
  try {
    for (int i = 2; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--host") && i + 1 < argc) {
        host = argv[++i];
      } else if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
        port = rs::support::parse_int(argv[++i], "--port");
        RS_REQUIRE(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
      } else if (!std::strcmp(argv[i], "--interval-s") && i + 1 < argc) {
        interval_s =
            rs::support::parse_budget_seconds(argv[++i], "--interval-s");
        RS_REQUIRE(interval_s > 0, "--interval-s must be > 0");
      } else if (!std::strcmp(argv[i], "--once")) {
        once = true;
      } else {
        RS_REQUIRE(false, std::string("unknown top flag ") + argv[i]);
      }
    }
    RS_REQUIRE(port >= 0, "rsat top requires --port");
  } catch (const rs::support::PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  const int fd = rs::support::connect_tcp(host, port);
  const std::string where = host + ":" + std::to_string(port);
  std::string buf;
  int ret = 0;
  for (;;) {
    if (!rs::support::send_all(fd, "stats\n")) {
      std::fprintf(stderr, "rsat top: connection lost to %s\n", where.c_str());
      ret = 1;
      break;
    }
    std::size_t nl;
    bool lost = false;
    while ((nl = buf.find('\n')) == std::string::npos) {
      const long n = rs::support::recv_some(fd, &buf);
      if (n == 0 || n == -2) {
        lost = true;
        break;
      }
      if (n == -1) {  // connect_tcp is blocking, but stay robust to EAGAIN
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (lost) {
      std::fprintf(stderr, "rsat top: connection lost to %s\n", where.c_str());
      ret = 1;
      break;
    }
    const std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    render_top_frame(line, where, !once);
    if (once) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long long>(interval_s * 1000)));
  }
  rs::support::close_fd(fd);
  return ret;
}

int cmd_dump(int argc, char** argv) {
  if (argc < 3) return usage();
  const bool vliw = argc > 3 && !std::strcmp(argv[3], "--vliw");
  const auto model = vliw ? rs::ddg::vliw_model() : rs::ddg::superscalar_model();
  std::fputs(rs::ddg::to_text(rs::ddg::build_kernel(argv[2], model)).c_str(),
             stdout);
  return 0;
}

int cmd_dumpprog(int argc, char** argv) {
  if (argc < 3) return usage();
  const bool vliw = argc > 3 && !std::strcmp(argv[3], "--vliw");
  const auto model = vliw ? rs::ddg::vliw_model() : rs::ddg::superscalar_model();
  std::fputs(rs::cfg::to_text(rs::cfg::build_program(argv[2], model)).c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (const auto* op = rs::service::find_operation(cmd)) {
      return cmd_oneshot(*op, argc, argv);
    }
    if (cmd == "dot") {
      if (argc < 3) return usage();
      std::fputs(load(argv[2]).to_dot().c_str(), stdout);
      return 0;
    }
    if (cmd == "kernels") {
      for (const auto& name : rs::ddg::kernel_names()) {
        std::puts(name.c_str());
      }
      return 0;
    }
    if (cmd == "programs") {
      for (const auto& name : rs::cfg::program_names()) {
        std::puts(name.c_str());
      }
      return 0;
    }
    if (cmd == "dump") return cmd_dump(argc, argv);
    if (cmd == "dumpprog") return cmd_dumpprog(argc, argv);
    if (cmd == "batch") return cmd_batch(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "top") return cmd_top(argc, argv);
    return usage();
  } catch (const rs::support::PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  }
}
