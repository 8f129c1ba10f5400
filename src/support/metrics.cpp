#include "support/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace rs::support {

namespace {

double bits_to_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t double_to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// fetch_add for a double carried in an atomic bit pattern.
void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t next = double_to_bits(bits_to_double(cur) + delta);
    if (bits.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

void atomic_min_double(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v < bits_to_double(cur)) {
    if (bits.compare_exchange_weak(cur, double_to_bits(v),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

void atomic_max_double(std::atomic<std::uint64_t>& bits, double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (v > bits_to_double(cur)) {
    if (bits.compare_exchange_weak(cur, double_to_bits(v),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Fixed-format double for JSON / stats lines: %.6g is compact, stable, and
/// round-trips the precision the bucket math actually has.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Prometheus metric name: dots become underscores under an rsat_ prefix.
std::string prom_name(const std::string& name) {
  std::string out = "rsat_";
  for (const char c : name) out += c == '.' || c == '-' ? '_' : c;
  return out;
}

}  // namespace

Histogram::Histogram()
    : min_bits_(double_to_bits(std::numeric_limits<double>::infinity())),
      max_bits_(double_to_bits(-std::numeric_limits<double>::infinity())) {}

int Histogram::bucket_of(double v) {
  if (!(v > 0)) return 0;  // <= 0 and NaN land in the underflow bucket
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
  // mantissa in [0.5, 1): sub-bucket within the power of two.
  const int sub = static_cast<int>((mantissa - 0.5) * 2 * kSubBuckets);
  const long long idx =
      static_cast<long long>(exp - 1 - kMinExp) * kSubBuckets + sub + 1;
  if (idx < 1) return 0;                        // underflow
  if (idx >= kBucketCount - 1) return kBucketCount - 1;  // overflow
  return static_cast<int>(idx);
}

double Histogram::bucket_mid(int bucket) {
  if (bucket <= 0) return 0;
  const int b = bucket - 1;
  const int exp = kMinExp + b / kSubBuckets;       // value in [2^exp, 2^(exp+1))
  const int sub = b % kSubBuckets;
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exp);
}

std::uint64_t Histogram::bucket_count(int bucket) const {
  return buckets_[bucket].load(std::memory_order_relaxed);
}

double Histogram::bucket_upper(int bucket) {
  if (bucket <= 0) return std::ldexp(1.0, kMinExp);  // underflow upper edge
  if (bucket >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();  // overflow bucket
  }
  const int b = bucket - 1;
  const int exp = kMinExp + b / kSubBuckets;
  const int sub = b % kSubBuckets;
  return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, exp);
}

void Histogram::observe(double v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, v);
  atomic_min_double(min_bits_, v);
  atomic_max_double(max_bits_, v);
}

double Histogram::sum() const {
  return count() == 0 ? 0.0
                      : bits_to_double(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const {
  return count() == 0 ? 0.0
                      : bits_to_double(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  return count() == 0 ? 0.0
                      : bits_to_double(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::quantile(double q) const {
  // Snapshot the buckets and rank against the snapshot's own total, so a
  // quantile taken under concurrent observes is internally consistent.
  std::uint64_t counts[kBucketCount];
  std::uint64_t total = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest rank: the ceil(q * total)-th smallest observation (1-based).
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  int bucket = kBucketCount - 1;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      bucket = i;
      break;
    }
  }
  double v = bucket == kBucketCount - 1 ? max() : bucket_mid(bucket);
  // Clamp to the exact observed range: keeps p95 <= max and p50 >= min even
  // though bucket midpoints are approximations.
  const double lo = min();
  const double hi = max();
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return v;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  LockGuard lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  LockGuard lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  LockGuard lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  LockGuard lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::gauges() const {
  LockGuard lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, MetricsRegistry::HistogramView>
MetricsRegistry::histograms() const {
  LockGuard lock(mu_);
  std::map<std::string, HistogramView> out;
  for (const auto& [name, h] : histograms_) {
    HistogramView v;
    v.count = h->count();
    v.sum = h->sum();
    v.mean = h->mean();
    v.min = h->min();
    v.max = h->max();
    v.p50 = h->quantile(0.50);
    v.p95 = h->quantile(0.95);
    v.p99 = h->quantile(0.99);
    out.emplace(name, v);
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const auto cs = counters();
  const auto gs = gauges();
  const auto hs = histograms();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : cs) {
    os << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gs) {
    os << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, v] : hs) {
    os << (first ? "" : ",") << '"' << name << "\":{\"count\":" << v.count
       << ",\"sum\":" << fmt_double(v.sum) << ",\"mean\":" << fmt_double(v.mean)
       << ",\"min\":" << fmt_double(v.min) << ",\"max\":" << fmt_double(v.max)
       << ",\"p50\":" << fmt_double(v.p50) << ",\"p95\":" << fmt_double(v.p95)
       << ",\"p99\":" << fmt_double(v.p99) << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_prometheus() const {
  const auto cs = counters();
  const auto gs = gauges();
  // Histograms need raw bucket access, not the summary view: snapshot the
  // stable metric pointers under the lock, render outside it (metrics are
  // never removed, so the pointers outlive the lock).
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    LockGuard lock(mu_);
    hs.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) hs.emplace_back(name, h.get());
  }

  // One block per metric, keyed and emitted by mangled name so the whole
  // body is name-sorted regardless of metric kind.
  std::map<std::string, std::string> blocks;
  for (const auto& [name, v] : cs) {
    const std::string n = prom_name(name) + "_total";
    std::string b;
    b += "# TYPE " + n + " counter\n";
    b += n + ' ' + std::to_string(v) + '\n';
    blocks.emplace(n, std::move(b));
  }
  for (const auto& [name, v] : gs) {
    const std::string n = prom_name(name);
    std::string b;
    b += "# TYPE " + n + " gauge\n";
    b += n + ' ' + std::to_string(v) + '\n';
    blocks.emplace(n, std::move(b));
  }
  for (const auto& [name, h] : hs) {
    const std::string n = prom_name(name);
    std::string b;
    b += "# TYPE " + n + " histogram\n";
    // Cumulative ladder over the non-empty native buckets only: a fully
    // materialized 410-bucket ladder per histogram would dominate the
    // scrape body while adding no information (Prometheus permits sparse
    // `le` ladders as long as +Inf is present).
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBucketCount - 1; ++i) {
      const std::uint64_t c = h->bucket_count(i);
      if (c == 0) continue;
      cum += c;
      b += n + "_bucket{le=\"" + fmt_double(Histogram::bucket_upper(i)) +
           "\"} " + std::to_string(cum) + '\n';
    }
    cum += h->bucket_count(Histogram::kBucketCount - 1);
    b += n + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + '\n';
    b += n + "_sum " + fmt_double(h->sum()) + '\n';
    b += n + "_count " + std::to_string(h->count()) + '\n';
    blocks.emplace(n, std::move(b));
  }

  std::string out;
  for (const auto& [n, b] : blocks) out += b;
  out += "# EOF\n";
  return out;
}

SolverProfile make_solver_profile(MetricsRegistry& registry) {
  SolverProfile p;
  p.simplex_phase1_iterations =
      &registry.counter("solver.simplex.phase1_iterations");
  p.simplex_phase2_iterations =
      &registry.counter("solver.simplex.phase2_iterations");
  p.bb_nodes = &registry.counter("solver.bb.nodes");
  p.bb_bound_improvements = &registry.counter("solver.bb.bound_improvements");
  p.bb_max_depth = &registry.histogram("solver.bb.max_depth");
  p.bb_nodes_per_sec = &registry.histogram("solver.bb.nodes_per_sec");
  p.exact_expansions = &registry.counter("solver.exact.expansions");
  p.exact_max_depth = &registry.histogram("solver.exact.max_depth");
  p.greedy_refine_passes = &registry.counter("solver.greedy.refine_passes");
  p.greedy_trials = &registry.counter("solver.greedy.trials");
  p.reduce_rounds = &registry.counter("solver.reduce.rounds");
  p.reduce_candidates = &registry.counter("solver.reduce.candidates");
  return p;
}

}  // namespace rs::support
