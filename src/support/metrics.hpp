// Process-wide telemetry primitives: cheap atomic counters, gauges, and
// log-bucketed histograms behind a named registry.
//
// Design constraints, in order:
//
//  * Hot-path cost is one relaxed atomic RMW. Counter::inc, Gauge::add and
//    Histogram::observe never take a lock, never allocate, and never touch
//    the clock; instrumented code paths (engine workers, store shards, the
//    serve network thread) pay nanoseconds, not microseconds. The registry
//    mutex guards *name lookup only* — instrumentation sites resolve their
//    metrics once and cache the returned reference (registered metrics are
//    never deleted, so the references are stable for the registry's
//    lifetime).
//
//  * Histograms answer p50/p95/p99 without storing samples. Values land in
//    log-spaced buckets (kSubBuckets per power of two), so a histogram is a
//    fixed ~3 KiB of atomics regardless of how many observations it has
//    seen, and quantile(q) walks the bucket counts to the q-th rank. The
//    answer is the bucket midpoint clamped to the exact observed [min, max]
//    — relative error is bounded by the bucket width (≤ ~9% with the
//    default 8 sub-buckets), which is exact enough for latency SLO
//    reporting while staying O(1) memory and wait-free on the write side.
//
//  * Snapshots are machine-readable. MetricsRegistry::to_json() renders
//    every metric (name-sorted, so byte-stable for a given set of values)
//    for the `--metrics-json` exit artifact; counters()/gauges()/
//    histograms() serve programmatic consumers (EngineStats, the `stats`
//    protocol verb).
//
// Concurrent readers see each atomic individually; a snapshot taken while
// writers are active is a per-metric-consistent (not globally consistent)
// view, which is the usual contract for live telemetry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace rs::support {

/// Monotonic event count. Wait-free, relaxed ordering.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, open connections, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed distribution of non-negative doubles (latencies, sizes).
/// Fixed memory, wait-free observe, quantiles exact to within one bucket
/// (≤ ~9% relative error) and clamped to the exact observed min/max.
class Histogram {
 public:
  /// Buckets per power of two. 8 keeps relative quantile error under ~9%.
  static constexpr int kSubBuckets = 8;
  /// Covered value range: [2^kMinExp, 2^kMaxExp). Values below land in the
  /// underflow bucket (reported as 0), values above in the overflow bucket
  /// (reported as the exact observed max).
  static constexpr int kMinExp = -20;  // ~1e-6: sub-microsecond ms values
  static constexpr int kMaxExp = 31;   // ~2e9: > three weeks in ms
  static constexpr int kBucketCount =
      (kMaxExp - kMinExp) * kSubBuckets + 2;  // + underflow + overflow

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;
  /// Exact smallest/largest observed value; 0 when empty.
  double min() const;
  double max() const;
  /// Nearest-rank quantile over the bucket counts, q in [0, 1]. Returns the
  /// matched bucket's midpoint clamped to [min(), max()]; 0 when empty.
  double quantile(double q) const;

  /// Per-bucket observation count (relaxed snapshot). `bucket` must be in
  /// [0, kBucketCount): 0 is the underflow bucket, kBucketCount-1 overflow.
  std::uint64_t bucket_count(int bucket) const;
  /// Exclusive upper edge of a bucket's value range: 2^kMinExp for the
  /// underflow bucket, +infinity for the overflow bucket. Strictly
  /// increasing in `bucket` — the cumulative `le` ladder used by the
  /// Prometheus text exposition renderer.
  static double bucket_upper(int bucket);

 private:
  static int bucket_of(double v);
  static double bucket_mid(int bucket);

  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  // Double-valued accumulators as CAS'd bit patterns (no std::atomic<double>
  // fetch_add before C++20 libstdc++ support everywhere).
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;

 public:
  Histogram();
};

/// Named metric registry. Lookup is mutex-guarded and intended to run once
/// per instrumentation site (cache the returned reference); the metrics
/// themselves are lock-free. Names are dot-separated paths by convention
/// (e.g. "engine.misses", "store.disk.read_ms", "op.analyze.ms"); the three
/// metric kinds have independent namespaces.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. The returned reference is stable until the registry
  /// is destroyed (metrics are never removed). The mutex guards this name
  /// lookup only — incrementing through a returned reference is lock-free,
  /// which is why instrumentation sites resolve once and cache. RSAT_EXCLUDES
  /// makes the other half of that contract compile-checked: lookups must
  /// never run under the registry mutex (no re-entrant registration).
  Counter& counter(const std::string& name) RSAT_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) RSAT_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) RSAT_EXCLUDES(mu_);

  /// Point-in-time summary of one histogram.
  struct HistogramView {
    std::uint64_t count = 0;
    double sum = 0, mean = 0, min = 0, max = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };

  /// Name-sorted snapshots (per-metric consistent; see header comment).
  std::map<std::string, std::uint64_t> counters() const RSAT_EXCLUDES(mu_);
  std::map<std::string, std::int64_t> gauges() const RSAT_EXCLUDES(mu_);
  std::map<std::string, HistogramView> histograms() const RSAT_EXCLUDES(mu_);

  /// The whole registry as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{"x":{"count":...}}}
  /// Keys are sorted, numeric formats fixed — byte-stable for given values.
  std::string to_json() const RSAT_EXCLUDES(mu_);

  /// The whole registry in Prometheus text exposition format: one `# TYPE`
  /// line per metric, counters suffixed `_total`, histograms rendered as a
  /// cumulative `_bucket{le="..."}` ladder over the non-empty native buckets
  /// plus `+Inf`, `_sum` and `_count`. Metric names are prefixed `rsat_`
  /// with dots mapped to underscores; blocks are name-sorted and the body
  /// ends with a `# EOF` line so line-oriented protocol clients can frame
  /// the multi-line response. Byte-stable for a given set of values.
  std::string to_prometheus() const RSAT_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;  // guards the name->metric maps, never the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_
      RSAT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ RSAT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      RSAT_GUARDED_BY(mu_);
};

/// Solver-interior instrumentation bundle: one pre-resolved metric pointer
/// per solver-layer counter/histogram, attached once at the service boundary
/// and threaded down the call chain via SolveContext::with_profile(). A null
/// profile (or default-constructed bundle) means profiling is off. Solvers
/// accumulate effort in stack locals and flush once per solve next to their
/// SolveContext::record() call, so the per-node hot path pays nothing and a
/// whole solve pays a handful of relaxed RMWs. The `solver.*` name literals
/// live only in metrics.cpp (make_solver_profile), preserving the
/// metric-literal lint invariant of one registration site per prefix.
struct SolverProfile {
  // lp/simplex.cpp (flushed by the branch-and-bound driver)
  Counter* simplex_phase1_iterations = nullptr;
  Counter* simplex_phase2_iterations = nullptr;
  // lp/branch_bound.cpp
  Counter* bb_nodes = nullptr;
  Counter* bb_bound_improvements = nullptr;
  Histogram* bb_max_depth = nullptr;
  Histogram* bb_nodes_per_sec = nullptr;
  // core/rs_exact.cpp
  Counter* exact_expansions = nullptr;
  Histogram* exact_max_depth = nullptr;
  // core/greedy_k.cpp
  Counter* greedy_refine_passes = nullptr;
  Counter* greedy_trials = nullptr;
  // core/reduce.cpp
  Counter* reduce_rounds = nullptr;
  Counter* reduce_candidates = nullptr;
};

/// Resolves the full `solver.*` metric family in `registry` once. The
/// returned bundle's pointers stay valid for the registry's lifetime
/// (metrics are never removed); callers resolve at construction and attach
/// the bundle to each request's SolveContext.
SolverProfile make_solver_profile(MetricsRegistry& registry);

}  // namespace rs::support
