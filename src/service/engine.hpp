// AnalysisEngine: a long-lived, concurrent, cached, operation-agnostic
// front end over the registered service operations (service/operation.hpp).
//
// Callers submit batches of requests — each naming a registered
// service::Operation (analyze, reduce, minreg, spill, schedule, ...) — and
// the engine runs them on a shared rs::support::ThreadPool, memoizing
// results in a service::TieredStore (service/store.hpp): a sharded
// in-memory LRU over an optional persistent on-disk tier
// (EngineConfig::cache_dir), keyed by the canonical DDG fingerprint
// (ddg/canon.hpp) extended with the operation's tag and option digest.
// Renumbered or renamed copies of the same DAG therefore hit the same
// entry — across processes and restarts when the disk tier is enabled.
// Identical requests arriving while the first is still computing are
// coalesced onto its in-flight result (single-flight), so a burst of
// duplicates costs one solve.
//
// Results are immutable shared payloads carrying only renumbering-invariant
// data (scalar metrics, solver statistics, and emitted DDG text), never
// node-indexed witnesses — which is what makes serving them across
// isomorphic inputs sound. The engine never inspects an operation's data:
// everything op-specific lives behind the Operation interface, so a new
// workload touches only its own src/service/ops/ file.
//
// Every request solves under a support::SolveContext: its budget_seconds
// becomes the deadline, and a per-request CancelToken enables cancel(id) /
// cancel_all() / drain() from other threads. A cancelled solve still
// resolves its future — the payload reports stop == Cancelled and is
// excluded from the cache (coalesced waiters of a cancelled owner receive
// the cancelled payload; a later identical request recomputes).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ddg/canon.hpp"
#include "ddg/ddg.hpp"
#include "service/operation.hpp"
#include "service/store.hpp"
#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/solve_context.hpp"
#include "support/thread_annotations.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace rs::cfg {
// Program payloads ride Request behind a shared_ptr; only the sites that
// build or consume one (protocol.cpp, engine.cpp, the program ops) need
// the full cfg headers.
class Cfg;
}  // namespace rs::cfg

namespace rs::service {

struct TraceSpan;  // service/trace.hpp

struct Request {
  std::uint64_t id = 0;
  /// The operation to run — a registry pointer (service/operation.hpp).
  /// Must be non-null by the time the request reaches the engine;
  /// parse_request_line() always sets it.
  const Operation* op = nullptr;
  /// Input DAG for PayloadKind::Ddg operations; ignored when `program` is
  /// set.
  ddg::Ddg ddg;
  /// Input program for PayloadKind::Program operations (globalrs,
  /// globalreduce, ...). When set, the request is fingerprinted with
  /// cfg::fingerprint (order/rename-invariant over blocks) instead of the
  /// DDG fingerprint, and `ddg` is ignored. Shared and immutable so
  /// Requests stay cheap to copy.
  std::shared_ptr<const cfg::Cfg> program;
  /// Display name in responses; defaults to the program's or DDG's own
  /// name when empty.
  std::string name;
  /// The operation's option values, one per OpSpec::options row, filled
  /// by parse_options() (service/operation.hpp); empty means the
  /// operation's defaults.
  std::vector<OptionValue> options;
  /// > 0 bounds this request's *total* solve time: one SolveContext with
  /// this deadline is threaded through every solver layer (per-type budget
  /// splitting included). <= 0 selects the engine default
  /// (kDefaultBudgetSeconds) so no request holds a worker indefinitely.
  double budget_seconds = 0;
  /// Intra-request concurrency cap (per-block fan-out of program
  /// operations): <= 0 means the pool's thread count. A pure execution
  /// knob — results are byte-identical for any value, so it is *not* part
  /// of the cache key.
  int jobs = 0;
  /// Ask the protocol renderer to include the operation's output DDG text
  /// in the result line (ops that emit one). The text is always computed
  /// and cached, so this flag does not split the cache key.
  bool want_ddg = false;
  /// Time the front end spent parsing the protocol line for this request
  /// (< 0 = not measured). Copied into the request's trace span when
  /// tracing is enabled; never part of the cache key.
  double parse_ms = -1;
};

/// The cacheable part of a response: everything except per-delivery state.
/// Deliberately name-free — a cache hit from a renamed isomorphic DDG must
/// not leak the first requester's display name.
struct ResultPayload {
  bool ok = true;
  std::string error;  // set when !ok (and for diagnostics when !success)
  /// The operation that produced this payload (registry pointer; stable
  /// for the process lifetime). Null only on error payloads that failed
  /// before an operation was resolved.
  const Operation* op = nullptr;
  /// Operation-defined "achieved its objective" flag (e.g. reduce: every
  /// type within its limit; minreg: every type proven).
  bool success = true;
  /// Output DDG text for operations that emit a transformed DAG (reduce,
  /// minreg, spill); empty otherwise.
  std::string out_ddg;
  /// Operation result data, laid out by the operation's result schema.
  std::shared_ptr<const OpData> data;
  /// Aggregate solver statistics (nodes, prunes, stop cause) for the
  /// request. stop == Cancelled payloads are never admitted to the cache.
  support::SolveStats stats;
  /// Blocks the run that produced this payload fanned onto the pool
  /// (program operations only). Depends on jobs= and the pool, not on the
  /// input, so it is neither encoded nor rendered — it only feeds the
  /// op.<name>.parallel_blocks counter and trace spans, and is zero on
  /// cache hits.
  long long blocks_parallel = 0;

  bool cancelled() const {
    return stats.stop == support::StopCause::Cancelled;
  }

  /// Approximate heap footprint, used for cache byte accounting.
  std::size_t bytes() const;
};

struct Response {
  std::uint64_t id = 0;
  std::string name;        // this request's display name
  bool cache_hit = false;  // served from a store tier or coalesced
  /// Which tier served a cache_hit (Memory or Disk); None for computed and
  /// coalesced responses.
  StoreTier tier = StoreTier::None;
  bool include_ddg = false;  // echo of Request::want_ddg, for the renderer
  double millis = 0;       // queue wait + compute (or lookup) time
  ddg::Fingerprint fingerprint;  // structural fingerprint of the input
  std::shared_ptr<const ResultPayload> payload;
  /// Lifecycle trace span (EngineConfig::trace only). The engine fills the
  /// phases it owns (queue, fingerprint, lookup, solve); the front end
  /// delivering the response fills encode_ms/bytes and hands the span to
  /// the TraceSink.
  std::shared_ptr<TraceSpan> trace;
};

struct EngineConfig {
  /// Worker threads; 0 means hardware_concurrency.
  std::size_t threads = 0;
  MemoryStore::Config cache;
  /// Non-empty enables the persistent disk tier rooted here (created if
  /// absent). Cancelled and timed-out payloads are never persisted.
  std::string cache_dir;
  /// Collect a per-request TraceSpan on every Response (service/trace.hpp).
  /// Off by default: a span costs an allocation, a handful of clock reads
  /// and one walk of the normalized input (its shape features) per
  /// request, which only pays off when a --trace-file sink consumes it.
  bool trace = false;
};

/// Wall-clock cap applied to requests that carry no budget_seconds.
inline constexpr double kDefaultBudgetSeconds = 30.0;

/// A registry counter snapshot (support::MetricsRegistry::counters()).
using CounterSnapshot = std::map<std::string, std::uint64_t>;

/// The operations that have completed at least one response, name-sorted:
/// the <name> of every op.<name>.submitted counter in the snapshot. Per-op
/// hits count responses served without computing (store tiers +
/// coalesced) and misses count computed solves (error payloads included),
/// exactly the events the aggregate engine.* buckets count, so the per-op
/// slices tile them.
std::vector<std::string> counted_ops(const CounterSnapshot& counters);

/// The summary-counter tiling invariant: every completed response was
/// served from exactly one bucket — a memory hit, a disk hit, a coalesce
/// (detached waiters included), or a computed miss (errors included).
/// Only meaningful on an idle engine: the buckets and engine.completed are
/// updated in separate atomic steps, so a snapshot taken mid-request may
/// transiently disagree.
bool counters_tile(const CounterSnapshot& counters);

class AnalysisEngine {
 public:
  explicit AnalysisEngine(const EngineConfig& cfg = {});
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Enqueues a request on the pool; the future resolves to its response.
  /// Never throws through the future: failures come back as payloads with
  /// ok == false. A non-empty `on_done` runs on the worker once the future
  /// is ready, the request has left the in-flight table (so cancel() no
  /// longer finds it) and the pool has counted the task (so a metrics
  /// snapshot taken on the signal sees all of it); it must not throw or
  /// block.
  std::future<Response> submit(Request req, std::function<void()> on_done = {})
      RSAT_EXCLUDES(flights_mu_);

  /// Runs a request synchronously on the caller's thread (same cache and
  /// single-flight path as submit()).
  Response run(Request req) RSAT_EXCLUDES(flights_mu_, flight_mu_);

  /// Blocks until every submitted request has completed.
  void wait_idle();

  /// Requests cooperative cancellation of every in-flight (pending or
  /// running) request with this id. The request still produces a response:
  /// its solvers stop at the next poll, the payload reports stop ==
  /// Cancelled, and the result is not cached. Returns false when no
  /// in-flight request carries the id (already completed, or never seen).
  /// RSAT_EXCLUDES: cancel verbs take the flight-table mutex themselves, so
  /// they must never be called from code already holding it (a solver
  /// callback running under register/mark/forget would self-deadlock).
  bool cancel(std::uint64_t id) RSAT_EXCLUDES(flights_mu_);

  /// Cancels every in-flight request; returns how many were signalled.
  std::size_t cancel_all() RSAT_EXCLUDES(flights_mu_);

  /// Graceful drain: cancels requests that have not *started* computing,
  /// lets already-running solves finish, and blocks until the queue is
  /// empty. A cancelled-but-queued request still runs its (cheap,
  /// uncancellable) setup when a worker reaches it — cache hits are served
  /// normally, misses return at the first solver poll as Cancelled — so
  /// drain latency is the running solves plus a small per-queued-request
  /// constant, not zero.
  void drain() RSAT_EXCLUDES(flights_mu_);

  /// The `stats` protocol verb line (service/protocol.hpp), rendered from
  /// one registry snapshot plus the store's resident size.
  std::string stats_line() const;

  /// The result store, for its resident size and tier set.
  const TieredStore& store() const { return store_; }

  /// The registry every engine/store/pool counter lives in — the only
  /// place one is kept, read by the `stats` and `metrics` verbs, the front
  /// ends' summaries and the --metrics-json snapshot. Front ends may
  /// register their own metrics here (serve.* names) so one snapshot
  /// covers the whole process.
  support::MetricsRegistry& metrics() { return metrics_; }
  const support::MetricsRegistry& metrics() const { return metrics_; }

  std::size_t thread_count() const { return pool_.thread_count(); }

 private:
  using SharedPayload = std::shared_ptr<const ResultPayload>;

  /// Tracks one submitted-but-not-completed request for cancel/drain.
  struct Flight {
    std::uint64_t id = 0;
    support::CancelToken token;
    bool started = false;  // a worker has begun processing it
  };

  support::CancelToken register_flight(std::uint64_t seq, std::uint64_t id)
      RSAT_EXCLUDES(flights_mu_);
  void mark_started(std::uint64_t seq) RSAT_EXCLUDES(flights_mu_);
  void forget_flight(std::uint64_t seq) RSAT_EXCLUDES(flights_mu_);

  /// The whole request lifecycle. flight_mu_ (single-flight table) is
  /// taken in short scopes around inflight_ only; the store probe, the
  /// solve, and the payload publication all run with no engine-wide lock
  /// held — declared here so a refactor cannot silently move work under
  /// the single-flight mutex.
  Response process(Request req, support::Timer started,
                   support::CancelToken token) RSAT_EXCLUDES(flight_mu_);
  SharedPayload compute(const Request& req, const ddg::Ddg& normalized,
                        const support::CancelToken& token);
  void record_op(const Operation* op, const Response& resp, bool counted_hit,
                 bool counted_miss) RSAT_EXCLUDES(op_mu_);

  EngineConfig cfg_;
  /// Declared before store_/pool_: both register their metrics here during
  /// construction, and the registry must be destroyed last.
  support::MetricsRegistry metrics_;
  TieredStore store_;
  support::ThreadPool pool_;

  // Engine counters, registry-backed (engine.*). References are stable for
  // the registry's lifetime; Counter::inc is one relaxed atomic RMW.
  support::Counter& submitted_;
  support::Counter& completed_;
  support::Counter& errors_;
  support::Counter& memory_hits_;
  support::Counter& disk_hits_;
  support::Counter& coalesced_;
  support::Counter& misses_;
  support::Counter& cancelled_;
  support::Counter& timed_out_;
  support::Histogram& latency_ms_;  // engine.latency_ms, hits included
  /// Solver-interior instrumentation (solver.* metrics), resolved once at
  /// construction and threaded to every solve through the SolveContext.
  /// All fields are registry-backed lock-free metrics, so sharing one
  /// profile across workers is safe.
  support::SolverProfile profile_;

  mutable support::Mutex flights_mu_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::unordered_map<std::uint64_t, Flight> flights_
      RSAT_GUARDED_BY(flights_mu_);  // keyed by seq

  mutable support::Mutex flight_mu_;
  std::unordered_map<CacheKey, std::shared_future<SharedPayload>,
                     CacheKeyHash>
      inflight_ RSAT_GUARDED_BY(flight_mu_);

  /// Per-operation registry entries (op.<name>.*), keyed by the operation's
  /// (process-lifetime-stable) registry pointer. The mutex guards the map;
  /// the metrics themselves are lock-free.
  struct PerOpMetrics {
    support::Counter* submitted = nullptr;
    support::Counter* hits = nullptr;
    support::Counter* misses = nullptr;
    support::Histogram* ms = nullptr;
  };
  support::Mutex op_mu_;
  std::map<const Operation*, PerOpMetrics> per_op_ RSAT_GUARDED_BY(op_mu_);
};

/// The cache key for a request: canonical fingerprint of the normalized DDG
/// extended with a digest of the operation tag, budget and the operation's
/// option digest (digest_options()). Exposed for tests and for
/// future remote/persistent cache tiers.
CacheKey request_key(const Request& req, const ddg::Fingerprint& fp);

}  // namespace rs::service
