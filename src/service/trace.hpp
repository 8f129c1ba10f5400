// Per-request trace spans and the JSONL trace sink — the request-lifecycle
// half of the telemetry spine (the aggregate half is support/metrics.hpp).
//
// A TraceSpan records one request's full lifecycle as fixed phase slots
// (parse, queue wait, fingerprint, store lookup, solve, encode) plus the
// delivery metadata a latency investigation needs: operation, display
// name, fingerprint, cache disposition (cached flag + serving tier), stop
// cause and search-node count. The engine fills the phases it owns while
// processing (EngineConfig::trace enables span collection; the span rides
// back on Response::trace); the front end that renders the result line
// fills encode_ms/bytes and hands the span to the sink. Exactly one JSONL
// event is therefore emitted per request, by the layer that delivered it.
//
// TraceSink is a bounded, lock-light JSONL writer: write() renders the
// event *outside* the lock, appends it to an in-memory buffer under a
// short critical section, and flushes the buffer to the file outside the
// lock when it passes flush_threshold (only one thread flushes at a time;
// others keep appending). If the buffer hits max_buffer while a flush is
// stalled on a slow disk, events are dropped and counted — tracing
// degrades, it never backpressures the serving path.
//
// Event schema (one JSON object per line; see README "Observability" for
// the field table). Keys always present:
//   ev ts id op name fp ok cached tier stop nodes total_ms
// Phase keys (parse_ms queue_ms fp_ms lookup_ms solve_ms encode_ms) and
// bytes/err appear when measured: a phase a request never entered (e.g.
// solve_ms on a cache hit) is omitted rather than written as 0, so
// consumers can tell "skipped" from "fast". tier is mem|disk|none; a
// coalesced request reports cached=1 tier=none. Conditional solve key:
// blocks_parallel (blocks fanned onto the pool, program ops only).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace rs::service {

/// One request's lifecycle. Phase slots are -1 until measured (negative
/// slots are omitted from the rendered event).
struct TraceSpan {
  std::uint64_t id = 0;
  std::string op;    // operation name; "" when it never resolved
  std::string name;  // display name
  std::string fp;    // hex fingerprint; "" when fingerprinting failed
  bool ok = true;
  bool cached = false;
  const char* tier = "none";    // store_tier_token of the serving tier
  const char* stop = "proven";  // stop_cause_token of the solve
  long long nodes = 0;
  /// Blocks fanned onto the pool by a program op; 0 (omitted) otherwise.
  long long blocks_parallel = 0;
  double parse_ms = -1;   // protocol parse (front end)
  double queue_ms = -1;   // submit -> worker pickup
  double fp_ms = -1;      // normalize + fingerprint
  double lookup_ms = -1;  // store probe (memory + disk tiers)
  double solve_ms = -1;   // compute under the SolveContext (owners only)
  double encode_ms = -1;  // result-line render (front end)
  double total_ms = -1;   // submit -> payload resolved
  std::uint64_t bytes = 0;  // rendered result-line length
  std::string error;        // error payload message, when !ok
};

/// Renders the span as one JSON object (no trailing newline). `ts` is the
/// event timestamp in fractional Unix seconds (the sink stamps write time).
std::string render_trace_json(const TraceSpan& span, double ts);

/// One request's solve-log record (--solve-log): cheap canonical input
/// features plus the solve outcome — the training corpus for the ROADMAP's
/// adaptive strategy prediction. Schema-versioned ("v":1) and
/// byte-stable-keyed like trace events; exactly one JSONL record is emitted
/// per completed request by the front end that delivered it.
///
/// Feature semantics by payload kind: DDG operations report the normalized
/// DAG (op/arc counts, critical path, peak unit-depth level width, per-type
/// value counts); program operations report block-level aggregates
/// (statement/operand counts, width = block count, cp = 0 — not computed).
struct SolveLogRecord {
  std::uint64_t id = 0;
  std::string op;   // operation name; "" when it never resolved
  std::string fp;   // hex fingerprint of the canonical input
  // Input features (the ddg_* keys of the record).
  long long ddg_ops = 0;    // operations (or program statements)
  long long ddg_arcs = 0;   // arcs (or program operand references)
  long long ddg_cp = 0;     // critical path of the normalized DAG
  long long ddg_width = 0;  // peak ops per unit-depth level (or block count)
  std::string ddg_types;    // per-type value counts, comma-joined by type
  // Outcome.
  bool ok = true;
  bool cached = false;
  const char* tier = "none";    // store_tier_token of the serving tier
  const char* stop = "proven";  // stop_cause_token of the solve
  long long nodes = 0;
  double parse_ms = -1;  // omitted when unmeasured (< 0), like trace phases
  double solve_ms = -1;
  double total_ms = -1;  // always rendered (0 when unmeasured)
};

/// Renders the record as one JSON object (no trailing newline); `ts` as in
/// render_trace_json. Key order is fixed and byte-stable.
std::string render_solve_log_json(const SolveLogRecord& rec, double ts);

/// Bounded, lock-light JSONL writer (see header comment).
class TraceSink {
 public:
  struct Config {
    std::string path;
    /// Buffer size that triggers an (out-of-lock) flush to the file.
    std::size_t flush_threshold = std::size_t{64} << 10;
    /// Hard buffer cap: events arriving while the buffer is this full are
    /// dropped (and counted) instead of blocking the caller.
    std::size_t max_buffer = std::size_t{8} << 20;
  };

  /// Opens (truncates) the file; throws support::PreconditionError when it
  /// cannot be created.
  explicit TraceSink(const std::string& path) : TraceSink(Config{path}) {}
  explicit TraceSink(const Config& cfg);
  ~TraceSink();  // flushes

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Renders and enqueues one event. Thread-safe; never blocks on file I/O
  /// unless this thread is the one elected to flush. RSAT_EXCLUDES encodes
  /// the render-outside-lock discipline: write() acquires mu_ itself (for
  /// the short buffer append only), so no caller may already hold it.
  void write(const TraceSpan& span) RSAT_EXCLUDES(mu_);

  /// Enqueues one pre-rendered JSONL line (no trailing newline — the sink
  /// appends it). The write() path renders a TraceSpan and lands here; the
  /// solve-log path (--solve-log) renders a SolveLogRecord and shares the
  /// same bounded buffer/flush/drop machinery through a second sink
  /// instance. Same locking contract as write().
  void write_line(std::string line) RSAT_EXCLUDES(mu_);

  /// Drains the buffer to the file and flushes the stream.
  void flush() RSAT_EXCLUDES(mu_);

  std::uint64_t written() const RSAT_EXCLUDES(mu_);
  std::uint64_t dropped() const RSAT_EXCLUDES(mu_);
  const std::string& path() const { return cfg_.path; }

 private:
  Config cfg_;
  /// Deliberately NOT guarded by mu_: the flusher-election protocol
  /// (flushing_ flag) guarantees at most one thread touches out_ at a
  /// time, and it does so with mu_ released so file I/O never serializes
  /// writers. Single-owner-by-protocol, not by lock.
  std::ofstream out_;
  mutable support::Mutex mu_;
  support::CondVar flushed_;
  std::string buf_ RSAT_GUARDED_BY(mu_);
  bool flushing_ RSAT_GUARDED_BY(mu_) = false;
  std::uint64_t written_ RSAT_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ RSAT_GUARDED_BY(mu_) = 0;
};

}  // namespace rs::service
