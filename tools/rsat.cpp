// rsat — command-line front end for the register saturation library.
//
//   rsat analyze <file.ddg> [--engine greedy|exact|ilp] [--budget S]
//       [--stats]
//       RS per register type, with witnesses proven or estimated.
//   rsat reduce <file.ddg> --limits N[,N...] [--exact] [--budget S]
//       [--stats] [-o out.ddg]
//       figure-1 pipeline; writes the register-safe DDG.
//   rsat <operation> <file.ddg | kernel=<name> | ...> [key=value ...]
//       one-shot protocol request for any registered service operation
//       (minreg, spill, schedule, ... — `rsat` with no arguments lists
//       them). Options are the protocol's own key=value tokens, parsed by
//       the same parser batch and serve use, and the answer is the
//       protocol result line — byte-identical to what batch/serve emit
//       for the same request (modulo cached=/ms=).
//   rsat dot <file.ddg>
//       Graphviz dump.
//   rsat kernels
//       list built-in reconstructed kernels.
//   rsat dump <kernel> [--vliw]
//       emit a built-in kernel in the .ddg text format.
//   rsat batch [manifest] [--threads N] [--cache-mb M] [--cache-dir D]
//       [--trace-file F] [--solve-log F] [--metrics-json F] [--vliw]
//       stream protocol requests (stdin or manifest file) through the
//       cached concurrent analysis engine; result lines on stdout, a
//       summary with hit rate (split by memory/disk tier) and latency
//       percentiles on stderr. Understands cancel/drain/stats/metrics
//       control verbs; Ctrl-C (SIGINT) stops reading, cancels in-flight
//       solves cooperatively, prints every pending result plus the
//       summary, and exits 0.
//   rsat serve [--host H] [--port P] [--port-file F] [--threads N]
//       [--cache-mb M] [--cache-dir D] [--trace-file F] [--solve-log F]
//       [--metrics-json F] [--metrics-interval-s N] [--slow-ms T]
//       [--slo-ms T] [--vliw]
//       poll-based TCP front end speaking the same line protocol, one
//       stream per connection (port 0 = ephemeral; the bound port goes to
//       stderr and --port-file). SIGINT cancels in-flight solves, flushes
//       every pending result line, then shuts down cleanly.
//   rsat top --port P [--host H] [--interval-s N] [--once]
//       poll a running serve's `stats` verb and render a refreshing
//       per-operation terminal table (requests, hit/miss split, p50, SLO
//       error budget when the server runs with --slo-ms). --once prints a
//       single snapshot without clearing the screen and exits.
//
// --cache-dir D enables the persistent on-disk result tier under D (shared
// by batch and serve; entries survive restarts and are keyed by the
// canonical DDG fingerprint + request options). --budget S bounds total
// solve seconds (0 = no deadline); S must be a finite non-negative number.
// --stats prints aggregate solver statistics (nodes, prunes, simplex
// iterations, stop cause).
//
// Observability (batch and serve; see README "Observability"):
//   --trace-file F    one JSONL trace event per request (parse, queue,
//                     fingerprint, store lookup, solve, encode phases plus
//                     cache tier / stop cause / node count) to F
//   --solve-log F     one JSONL solve-log record per request to F: cheap
//                     canonical input features (ops, arcs, critical path,
//                     width, type mix) plus the outcome (stop cause,
//                     nodes, per-phase ms, cache tier) — the
//                     training corpus for adaptive strategy prediction
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
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cfg/generators.hpp"
#include "cfg/io.hpp"
#include "core/saturation.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "graph/paths.hpp"
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
        "  rsat analyze <file.ddg> [--engine greedy|exact|ilp] [--budget S]\n"
        "               [--stats]\n"
        "  rsat reduce  <file.ddg> --limits N[,N...] [--exact] [--budget S]\n"
        "               [--stats] [-o out.ddg]\n"
        "  rsat <op>    <file.ddg | kernel=<k> | ddg=<esc>> [key=value ...]\n"
        "               one-shot protocol request; prints the result line\n"
        "               (analyze/reduce with a bare <file.ddg> keep the\n"
        "               flag forms above). Program operations take\n"
        "               <file.prog | prog=<p>> payloads instead\n"
        "  rsat dot     <file.ddg>\n"
        "  rsat kernels\n"
        "  rsat programs\n"
        "  rsat dump <kernel> [--vliw]\n"
        "  rsat dumpprog <program> [--vliw]\n"
        "  rsat batch [manifest] [--threads N] [--cache-mb M] [--cache-dir D]\n"
        "             [--trace-file F] [--solve-log F] [--metrics-json F]\n"
        "             [--vliw]\n"
        "  rsat serve [--host H] [--port P] [--port-file F] [--threads N]\n"
        "             [--cache-mb M] [--cache-dir D] [--trace-file F]\n"
        "             [--solve-log F] [--metrics-json F]\n"
        "             [--metrics-interval-s N] [--slow-ms T] [--slo-ms T]\n"
        "             [--vliw]\n"
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

double parse_budget(const std::string& s) {
  return rs::support::parse_budget_seconds(s, "--budget");
}

std::string read_file(const std::string& path) {
  std::string text;
  RS_REQUIRE(rs::support::read_file_to_string(path, &text),
             "cannot open " + path);
  return text;
}

rs::ddg::Ddg load(const std::string& path) {
  const rs::ddg::Ddg raw = rs::ddg::from_text(read_file(path));
  return raw.normalized();
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 3) return usage();
  rs::core::AnalyzeOptions opts;
  double budget = 30.0;  // seconds; 0 = no deadline
  bool want_stats = false;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--engine") && i + 1 < argc) {
      const std::string e = argv[++i];
      if (e == "greedy") opts.engine = rs::core::RsEngine::Greedy;
      else if (e == "exact") opts.engine = rs::core::RsEngine::ExactCombinatorial;
      else if (e == "ilp") opts.engine = rs::core::RsEngine::ExactIlp;
      else return usage();
    } else if (!std::strcmp(argv[i], "--budget") && i + 1 < argc) {
      try {
        budget = parse_budget(argv[++i]);
      } catch (const rs::support::PreconditionError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--stats")) {
      want_stats = true;
    }
  }
  const rs::ddg::Ddg dag = load(argv[2]);
  std::printf("%s: %d ops, %d arcs, critical path %lld\n",
              dag.name().c_str(), dag.op_count(), dag.graph().edge_count(),
              static_cast<long long>(rs::graph::critical_path(dag.graph())));
  const rs::core::SaturationReport report =
      rs::core::analyze(dag, opts, rs::support::SolveContext(budget));
  for (const auto& t : report.per_type) {
    std::printf("type %d: %d values, RS = %d (%s)\n", t.type, t.value_count,
                t.rs, t.proven ? "proven" : "estimate");
    if (want_stats) {
      std::printf("type %d stats: %s\n", t.type, t.stats.summary().c_str());
    }
  }
  if (want_stats) {
    std::printf("stats: %s\n", report.stats.summary().c_str());
  }
  return 0;
}

int cmd_reduce(int argc, char** argv) {
  if (argc < 3) return usage();
  std::vector<int> limits;
  std::string out_path;
  rs::core::PipelineOptions opts;
  double budget = 30.0;  // seconds; 0 = no deadline
  bool want_stats = false;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--limits") && i + 1 < argc) {
      try {
        limits = rs::support::parse_int_list(argv[++i], ',', "--limits");
      } catch (const rs::support::PreconditionError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--exact")) {
      opts.exact_reduction = true;
    } else if (!std::strcmp(argv[i], "--budget") && i + 1 < argc) {
      try {
        budget = parse_budget(argv[++i]);
      } catch (const rs::support::PreconditionError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--stats")) {
      want_stats = true;
    } else if (!std::strcmp(argv[i], "-o") && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const rs::ddg::Ddg dag = load(argv[2]);
  if (static_cast<int>(limits.size()) != dag.type_count()) {
    std::fprintf(stderr, "need %d comma-separated limits (one per type)\n",
                 dag.type_count());
    return 2;
  }
  const rs::core::PipelineResult result = rs::core::ensure_limits(
      dag, limits, opts, rs::support::SolveContext(budget));
  for (rs::ddg::RegType t = 0; t < dag.type_count(); ++t) {
    const auto& r = result.per_type[t];
    const char* status = "?";
    switch (r.status) {
      case rs::core::ReduceStatus::AlreadyFits: status = "fits"; break;
      case rs::core::ReduceStatus::Reduced: status = "reduced"; break;
      case rs::core::ReduceStatus::SpillNeeded: status = "SPILL NEEDED"; break;
      case rs::core::ReduceStatus::LimitHit: status = "budget exhausted"; break;
    }
    std::printf("type %d: %s (RS -> %d, +%d arcs, ILP loss %lld)\n", t, status,
                r.achieved_rs, r.arcs_added,
                static_cast<long long>(r.ilp_loss()));
  }
  if (want_stats) {
    std::printf("stats: %s\n", result.stats.summary().c_str());
  }
  if (!result.success) {
    std::fprintf(stderr, "pipeline incomplete: %s\n", result.note.c_str());
    return 1;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << rs::ddg::to_text(result.out);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_sigint(int) { g_interrupted = 1; }

/// Installs the SIGINT handler without SA_RESTART so a blocking stdin read
/// returns (with EINTR) instead of resuming, letting the reader loop notice
/// the interrupt and start the drain. SA_RESETHAND restores the default
/// action after the first signal, so a second Ctrl-C always terminates.
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

/// SIGINT is delivered to an arbitrary thread with it unblocked. The drain
/// design needs it on the *main* thread (whose blocking stdin read must
/// return EINTR), so SIGINT is masked around the creation of every helper
/// thread — engine workers, printer, watcher all inherit the blocked mask —
/// and unmasked in main afterwards.
void mask_sigint(bool block) {
#if defined(__unix__) || defined(__APPLE__)
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  pthread_sigmask(block ? SIG_BLOCK : SIG_UNBLOCK, &set, nullptr);
#else
  static_cast<void>(block);
#endif
}

/// Shared by batch and serve: the hit-rate line split by store tier, plus
/// the effective persistent-cache directory and its counters when enabled.
void print_cache_summary(const rs::service::EngineStats& st,
                         const std::string& cache_dir) {
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
}

/// --metrics-json: the whole registry (engine.*, op.*, store.*, pool.*, and
/// serve.* when serving) as one JSON object, written atomically at exit.
void write_metrics_json(const rs::support::MetricsRegistry& metrics,
                        const std::string& path) {
  if (path.empty()) return;
  if (!rs::support::write_file_atomic(path, metrics.to_json() + "\n")) {
    std::fprintf(stderr, "warning: cannot write metrics json %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(stderr, "metrics json: %s\n", path.c_str());
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
      } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        const int threads = rs::support::parse_int(argv[++i], "--threads");
        RS_REQUIRE(threads >= 0, "--threads must be >= 0");
        cfg.engine.threads = static_cast<std::size_t>(threads);
      } else if (!std::strcmp(argv[i], "--cache-mb") && i + 1 < argc) {
        const int mb = rs::support::parse_int(argv[++i], "--cache-mb");
        RS_REQUIRE(mb >= 0, "--cache-mb must be >= 0");
        cfg.engine.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
      } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
        cfg.engine.cache_dir = argv[++i];
        RS_REQUIRE(!cfg.engine.cache_dir.empty(),
                   "--cache-dir must not be empty");
      } else if (!std::strcmp(argv[i], "--trace-file") && i + 1 < argc) {
        cfg.trace_file = argv[++i];
        RS_REQUIRE(!cfg.trace_file.empty(), "--trace-file must not be empty");
      } else if (!std::strcmp(argv[i], "--solve-log") && i + 1 < argc) {
        cfg.solve_log_file = argv[++i];
        RS_REQUIRE(!cfg.solve_log_file.empty(),
                   "--solve-log must not be empty");
      } else if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
        metrics_json = argv[++i];
        RS_REQUIRE(!metrics_json.empty(), "--metrics-json must not be empty");
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
      } else if (!std::strcmp(argv[i], "--vliw")) {
        cfg.protocol.default_model = rs::ddg::vliw_model();
      } else {
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
  mask_sigint(true);  // engine workers spawn inside SocketServer
  rs::service::SocketServer server(cfg);

  // --metrics-interval-s: periodic atomic re-snapshot of --metrics-json
  // (write_file_atomic = temp + rename), so a crashed or SIGKILLed serve
  // leaves a recent metrics file on disk instead of nothing. Spawned while
  // SIGINT is still masked so only the main thread sees the interrupt.
  std::atomic<bool> snapshot_stop{false};
  std::thread snapshot_thread;
  if (metrics_interval_s > 0) {
    snapshot_thread = std::thread([&server, &snapshot_stop, &metrics_json,
                                   metrics_interval_s] {
      double since_write_s = 0;
      while (!snapshot_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        since_write_s += 0.1;
        if (since_write_s + 1e-9 < metrics_interval_s) continue;
        since_write_s = 0;
        if (!rs::support::write_file_atomic(
                metrics_json, server.engine().metrics().to_json() + "\n")) {
          std::fprintf(stderr, "warning: cannot write metrics json %s\n",
                       metrics_json.c_str());
        }
      }
    });
  }
  mask_sigint(false);

  std::fprintf(stderr, "serve: listening on %s:%d\n", cfg.host.c_str(),
               server.port());
  if (!cfg.engine.cache_dir.empty()) {
    std::fprintf(stderr, "cache dir: %s\n", cfg.engine.cache_dir.c_str());
  }
  std::fflush(stderr);

  const rs::support::Timer wall;
  server.run([] { return g_interrupted != 0; });
  snapshot_stop.store(true);
  if (snapshot_thread.joinable()) snapshot_thread.join();

  const rs::service::ServeStats ss = server.serve_stats();
  const rs::service::EngineStats st = server.engine().stats();
  std::fprintf(stderr,
               "serve: %llu connections, %llu requests, %llu responses "
               "(%llu parse errors)%s\n",
               static_cast<unsigned long long>(ss.connections),
               static_cast<unsigned long long>(ss.requests),
               static_cast<unsigned long long>(ss.responses),
               static_cast<unsigned long long>(ss.parse_errors),
               g_interrupted ? " [interrupted, drained]" : "");
  print_cache_summary(st, cfg.engine.cache_dir);
  std::fprintf(stderr,
               "latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
               st.p50_ms, st.p95_ms, st.p99_ms, st.max_ms);
  std::fprintf(stderr, "wall: %.3f s, %zu threads\n", wall.seconds(),
               server.engine().thread_count());
  if (const rs::service::TraceSink* sink = server.trace_sink()) {
    std::fprintf(stderr, "trace: %llu events to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(sink->written()),
                 sink->path().c_str(),
                 static_cast<unsigned long long>(sink->dropped()));
  }
  if (const rs::service::TraceSink* sink = server.solve_log_sink()) {
    std::fprintf(stderr, "solve log: %llu records to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(sink->written()),
                 sink->path().c_str(),
                 static_cast<unsigned long long>(sink->dropped()));
  }
  write_metrics_json(server.engine().metrics(), metrics_json);
  return 0;
}

int cmd_batch(int argc, char** argv) {
  std::string manifest_path;
  std::string trace_file;
  std::string solve_log_file;
  std::string metrics_json;
  rs::service::EngineConfig cfg;
  rs::service::ProtocolOptions popts;
  try {
    for (int i = 2; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
        const int threads = rs::support::parse_int(argv[++i], "--threads");
        RS_REQUIRE(threads >= 0, "--threads must be >= 0");
        cfg.threads = static_cast<std::size_t>(threads);
      } else if (!std::strcmp(argv[i], "--cache-mb") && i + 1 < argc) {
        const int mb = rs::support::parse_int(argv[++i], "--cache-mb");
        RS_REQUIRE(mb >= 0, "--cache-mb must be >= 0");
        cfg.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
      } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
        cfg.cache_dir = argv[++i];
        RS_REQUIRE(!cfg.cache_dir.empty(), "--cache-dir must not be empty");
      } else if (!std::strcmp(argv[i], "--trace-file") && i + 1 < argc) {
        trace_file = argv[++i];
        RS_REQUIRE(!trace_file.empty(), "--trace-file must not be empty");
      } else if (!std::strcmp(argv[i], "--solve-log") && i + 1 < argc) {
        solve_log_file = argv[++i];
        RS_REQUIRE(!solve_log_file.empty(), "--solve-log must not be empty");
      } else if (!std::strcmp(argv[i], "--metrics-json") && i + 1 < argc) {
        metrics_json = argv[++i];
        RS_REQUIRE(!metrics_json.empty(), "--metrics-json must not be empty");
      } else if (!std::strcmp(argv[i], "--vliw")) {
        popts.default_model = rs::ddg::vliw_model();
      } else if (argv[i][0] == '-') {
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

  std::ifstream manifest;
  if (!manifest_path.empty()) {
    manifest.open(manifest_path);
    if (!manifest.good()) {
      std::fprintf(stderr, "error: cannot open %s\n", manifest_path.c_str());
      return 2;
    }
  }
  std::istream& in = manifest_path.empty() ? std::cin : manifest;

  install_sigint_handler();
  mask_sigint(true);  // unmasked again after every helper thread exists

  // Tracing asks the engine to carry a span on every Response; the printer
  // (which renders the result line, the last phase of a request's life)
  // stamps encode_ms/bytes and hands the span to the sink.
  cfg.trace = !trace_file.empty();
  std::unique_ptr<rs::service::TraceSink> trace_sink;
  if (cfg.trace) {
    rs::service::TraceSink::Config tc;
    tc.path = trace_file;
    trace_sink = std::make_unique<rs::service::TraceSink>(tc);
  }
  // The solve log shares the sink machinery: one pre-rendered JSONL record
  // per request, written by the printer at delivery time.
  cfg.solve_log = !solve_log_file.empty();
  std::unique_ptr<rs::service::TraceSink> solve_log_sink;
  if (cfg.solve_log) {
    solve_log_sink = std::make_unique<rs::service::TraceSink>(solve_log_file);
  }

  rs::service::AnalysisEngine engine(cfg);
  const rs::support::Timer wall;

  // The reader loop only observes g_interrupted between lines, so a SIGINT
  // arriving after EOF (manifest fully read, solves still running, main
  // thread blocked in printer.join()) would otherwise be swallowed. This
  // watcher turns the flag into engine.cancel_all() no matter which phase
  // the batch is in; every future then resolves promptly and the normal
  // drain/summary path runs.
  std::atomic<bool> watcher_done{false};
  std::thread sigint_watcher([&] {
    while (!watcher_done.load()) {
      if (g_interrupted) {
        engine.cancel_all();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // One slot per request line: either a pre-rendered line (parse error or a
  // cancel/drain ack) or a pending response. A dedicated printer thread
  // emits result lines in request order as soon as each future resolves, so
  // a co-process driving stdin interactively sees its result without
  // waiting for EOF.
  struct Slot {
    std::string pre;
    bool stats = false;    // render a fresh stats snapshot at emission time
    bool metrics = false;  // render the Prometheus exposition at emission
    std::future<rs::service::Response> fut;
  };
  // Backpressure: each outstanding slot holds a parsed Request (with its
  // DDG) until printed, so cap how far the reader runs ahead of execution.
  constexpr std::size_t kMaxPending = 256;
  std::deque<Slot> pending;
  std::mutex mu;
  std::condition_variable cv;
  bool submitted_all = false;
  // Printer-owned tallies. Cancelled/timed-out responses count as ok (they
  // carry valid witnessed bounds) and are additionally tallied by cause.
  // Parse errors are reader-owned (parse_errors) and merged after join.
  std::uint64_t total = 0, ok = 0, failed = 0, parse_errors = 0;
  std::uint64_t cancelled = 0, timed_out = 0;

  std::thread printer([&] {
    for (;;) {
      Slot slot;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || submitted_all; });
        if (pending.empty()) return;
        slot = std::move(pending.front());
        pending.pop_front();
        cv.notify_all();  // wake the reader if it hit the pending cap
      }
      if (slot.stats) {
        // Rendered here, not at parse time: emission order means every
        // request ahead of this line in the stream has already been printed,
        // so the snapshot reflects at least all of them as completed.
        std::puts(rs::service::render_stats_line(engine.stats()).c_str());
      } else if (slot.metrics) {
        // Multi-line body, framed by its terminating "# EOF" line.
        std::fputs(engine.metrics().to_prometheus().c_str(), stdout);
      } else if (!slot.pre.empty()) {
        std::puts(slot.pre.c_str());
      } else {
        const rs::service::Response resp = slot.fut.get();
        (resp.payload->ok ? ok : failed)++;
        if (resp.payload->ok) {
          switch (resp.payload->stats.stop) {
            case rs::support::StopCause::Cancelled: ++cancelled; break;
            case rs::support::StopCause::TimedOut: ++timed_out; break;
            default: break;
          }
        }
        const rs::support::Timer encode;
        const std::string out_line = rs::service::render_response(resp);
        if (trace_sink != nullptr && resp.trace != nullptr) {
          resp.trace->encode_ms = encode.millis();
          resp.trace->bytes = out_line.size() + 1;  // + '\n'
          trace_sink->write(*resp.trace);
        }
        if (solve_log_sink != nullptr && resp.solve_log != nullptr) {
          solve_log_sink->write_line(rs::service::render_solve_log_json(
              *resp.solve_log, rs::support::unix_now_seconds()));
        }
        std::puts(out_line.c_str());
      }
      std::fflush(stdout);
    }
  });

  mask_sigint(false);  // all helper threads spawned; deliver to main only

  auto push_slot = [&](Slot slot) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return pending.size() < kMaxPending; });
      pending.push_back(std::move(slot));
    }
    cv.notify_all();
  };

  std::string line;
  int lineno = 0;
  std::uint64_t next_id = 1;
  while (!g_interrupted && std::getline(in, line)) {
    ++lineno;
    if (rs::service::is_blank_or_comment(line)) continue;
    Slot slot;
    bool counts = true;  // control-verb acks are not requests
    try {
      const rs::support::Timer parse;
      rs::service::Command cmd =
          rs::service::parse_command_line(line, next_id, popts);
      switch (cmd.kind) {
        case rs::service::CommandKind::Submit:
          ++next_id;
          cmd.request.parse_ms = parse.millis();
          slot.fut = engine.submit(std::move(cmd.request));
          break;
        case rs::service::CommandKind::Cancel:
          slot.pre = rs::service::render_cancel_ack(
              cmd.cancel_id, engine.cancel(cmd.cancel_id));
          counts = false;
          break;
        case rs::service::CommandKind::Drain:
          // Block further reading until everything submitted so far has
          // completed; the printer drains concurrently.
          engine.wait_idle();
          slot.pre = rs::service::render_drain_ack();
          counts = false;
          break;
        case rs::service::CommandKind::Stats:
          slot.stats = true;  // printer snapshots the registry at emission
          counts = false;
          break;
        case rs::service::CommandKind::Metrics:
          slot.metrics = true;  // printer renders the exposition at emission
          counts = false;
          break;
      }
    } catch (const std::exception& e) {
      std::ostringstream os;
      os << "result id=" << next_id++ << " status=error name=line" << lineno
         << " msg=" << rs::service::escape_field(e.what());
      slot.pre = os.str();
      ++parse_errors;  // printer never inspects pre-rendered slots
    }
    if (counts) ++total;
    push_slot(std::move(slot));
  }
  if (g_interrupted) {
    // Drain-then-summarize: cancel every in-flight solve cooperatively and
    // wait. Each one still resolves its future (stop=cancelled), so every
    // already-submitted request gets its result line before the summary.
    // (Idempotent with the watcher's cancel_all for post-EOF interrupts.)
    engine.cancel_all();
    engine.wait_idle();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitted_all = true;
  }
  cv.notify_all();
  printer.join();
  watcher_done.store(true);
  sigint_watcher.join();
  failed += parse_errors;
  if (trace_sink != nullptr) trace_sink->flush();
  if (solve_log_sink != nullptr) solve_log_sink->flush();

  if (total == 0) {
    std::fprintf(stderr, "batch: 0 requests\n");
    write_metrics_json(engine.metrics(), metrics_json);
    return 0;
  }
  const double wall_s = wall.seconds();
  const rs::service::EngineStats st = engine.stats();
  std::fprintf(stderr,
               "batch: %llu requests, %llu ok, %llu error "
               "(%llu cancelled, %llu timed out)%s\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(cancelled),
               static_cast<unsigned long long>(timed_out),
               g_interrupted ? " [interrupted, drained]" : "");
  print_cache_summary(st, cfg.cache_dir);
  std::fprintf(stderr,
               "latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
               st.p50_ms, st.p95_ms, st.p99_ms, st.max_ms);
  std::fprintf(stderr, "wall: %.3f s (%.1f req/s), %zu threads\n", wall_s,
               static_cast<double>(total) / wall_s, engine.thread_count());
  if (trace_sink != nullptr) {
    std::fprintf(stderr, "trace: %llu events to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(trace_sink->written()),
                 trace_sink->path().c_str(),
                 static_cast<unsigned long long>(trace_sink->dropped()));
  }
  if (solve_log_sink != nullptr) {
    std::fprintf(stderr, "solve log: %llu records to %s (%llu dropped)\n",
                 static_cast<unsigned long long>(solve_log_sink->written()),
                 solve_log_sink->path().c_str(),
                 static_cast<unsigned long long>(solve_log_sink->dropped()));
  }
  write_metrics_json(engine.metrics(), metrics_json);
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
    // A protocol-token payload (kernel=..., ddg=...) selects the generic
    // one-shot path even for analyze/reduce, so every registered operation
    // accepts every payload form; a bare <file.ddg> keeps their legacy
    // human-readable flag commands.
    const bool proto_payload =
        argc >= 3 && std::strchr(argv[2], '=') != nullptr;
    if ((cmd != "analyze" && cmd != "reduce") || proto_payload) {
      if (const auto* op = rs::service::find_operation(cmd)) {
        return cmd_oneshot(*op, argc, argv);
      }
    }
    if (cmd == "analyze") return cmd_analyze(argc, argv);
    if (cmd == "reduce") return cmd_reduce(argc, argv);
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
