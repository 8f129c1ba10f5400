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
// TraceSink is a buffered JSONL writer owned by one thread, like the rest
// of the serve loop's stream state: the loop thread (SocketServer::run) is
// its only writer in serve and batch. write() renders the event into a
// buffer that goes to the file once it passes kFlushThreshold; flush() and
// the destructor write the rest. It takes no lock, so a second writing
// thread would need one.
//
// Event schema (one JSON object per line; see README "Observability" for
// the field table). Keys always present:
//   ev ts id op name fp ok cached tier stop nodes total_ms
// Phase keys (parse_ms queue_ms fp_ms lookup_ms solve_ms encode_ms) and
// bytes/err appear when measured: a phase a request never entered (e.g.
// solve_ms on a cache hit) is omitted rather than written as 0, so
// consumers can tell "skipped" from "fast". tier is mem|disk|none; a
// coalesced request reports cached=1 tier=none. Conditional solve key:
// blocks_parallel (blocks fanned onto the pool, program ops only). Input
// feature block (ddg_ops ddg_arcs ddg_cp ddg_width ddg_types): present
// exactly when fp is, right after nodes/blocks_parallel.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

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
  // Input shape features, rendered whenever fp is non-empty. DDG ops
  // report the normalized DAG (op/arc counts, latency-weighted critical
  // path, peak unit-depth level width, per-type value counts); program ops
  // report block-level aggregates (statements, operand references,
  // cp = 0, width = block count, per-type result counts).
  long long ddg_ops = 0;
  long long ddg_arcs = 0;
  long long ddg_cp = 0;
  long long ddg_width = 0;
  std::string ddg_types;  // per-type counts joined by commas, type order
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

/// Single-owner buffered JSONL writer (see header comment).
class TraceSink {
 public:
  /// Buffered bytes past which write() hands the buffer to the file.
  static constexpr std::size_t kFlushThreshold = std::size_t{64} << 10;

  /// Opens (truncates) the file; throws support::PreconditionError when it
  /// cannot be created.
  explicit TraceSink(const std::string& path);
  ~TraceSink();  // flushes

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Renders and buffers one event (the sink appends the newline).
  void write(const TraceSpan& span);

  /// Writes the buffer to the file and flushes the stream.
  void flush();

  std::uint64_t written() const { return written_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string buf_;
  std::uint64_t written_ = 0;
};

}  // namespace rs::service
