#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "cfg/canon.hpp"
#include "cfg/cfg.hpp"
#include "graph/paths.hpp"
#include "graph/topo.hpp"
#include "service/trace.hpp"
#include "support/assert.hpp"

namespace rs::service {

namespace {

/// Critical path (latency-weighted, as graph::critical_path) and peak
/// level width (most operations sharing one unit-depth level) in a single
/// topological sweep — this runs per traced request, so the graph is
/// walked once, not once per feature.
void shape_features(const graph::Digraph& g, long long* cp, long long* width) {
  *cp = 0;
  *width = 0;
  const auto order = graph::topo_order(g);
  if (!order.has_value()) {  // circuit: cp still defined, depth levels not
    *cp = graph::critical_path(g);
    return;
  }
  const auto n = static_cast<std::size_t>(g.node_count());
  if (n == 0) return;
  std::vector<std::int64_t> dist(n, 0);
  std::vector<int> level(n, 0);
  int max_level = 0;
  for (const graph::NodeId v : *order) {
    for (const graph::EdgeId e : g.in_edges(v)) {
      const graph::Edge& ed = g.edge(e);
      dist[v] = std::max(dist[v], dist[ed.src] + ed.latency);
      level[v] = std::max(level[v], level[ed.src] + 1);
    }
    *cp = std::max<long long>(*cp, dist[v]);
    max_level = std::max(max_level, level[v]);
  }
  std::vector<long long> per_level(static_cast<std::size_t>(max_level) + 1, 0);
  for (std::size_t v = 0; v < n; ++v) ++per_level[level[v]];
  *width = *std::max_element(per_level.begin(), per_level.end());
}

/// DDG operations report the normalized DAG: op/arc counts, critical path,
/// peak level width, and per-type value counts.
void fill_ddg_features(const ddg::Ddg& normalized, TraceSpan* span) {
  span->ddg_ops = normalized.op_count();
  span->ddg_arcs = normalized.graph().edge_count();
  shape_features(normalized.graph(), &span->ddg_cp, &span->ddg_width);
  std::string types;
  for (int t = 0; t < normalized.type_count(); ++t) {
    if (t > 0) types += ',';
    types += std::to_string(normalized.values_of_type(t).size());
  }
  span->ddg_types = std::move(types);
}

/// Program operations report block-level aggregates: statement/operand
/// counts, width = block count, cp = 0 (not computed across blocks), and
/// per-type result counts.
void fill_program_features(const cfg::Cfg& program, TraceSpan* span) {
  long long statements = 0;
  long long operand_refs = 0;
  std::vector<long long> per_type(
      static_cast<std::size_t>(program.type_count()), 0);
  for (int b = 0; b < program.block_count(); ++b) {
    for (const cfg::Statement& s : program.block(b).statements) {
      ++statements;
      operand_refs += static_cast<long long>(s.operands.size());
      if (!s.result.empty()) ++per_type[static_cast<std::size_t>(s.type)];
    }
  }
  span->ddg_ops = statements;
  span->ddg_arcs = operand_refs;
  span->ddg_cp = 0;
  span->ddg_width = program.block_count();
  std::string types;
  for (std::size_t t = 0; t < per_type.size(); ++t) {
    if (t > 0) types += ',';
    types += std::to_string(per_type[t]);
  }
  span->ddg_types = std::move(types);
}

}  // namespace

std::size_t ResultPayload::bytes() const {
  return sizeof(ResultPayload) + error.size() + out_ddg.size() +
         (data != nullptr ? data->bytes() : 0);
}

CacheKey request_key(const Request& req, const ddg::Fingerprint& fp) {
  RS_REQUIRE(req.op != nullptr, "request names no operation");
  OptionDigest d;
  d.add(req.op->digest_tag());
  d.add_double(req.budget_seconds);
  digest_options(req, &d);
  return ddg::extend(fp, d.value());
}

AnalysisEngine::AnalysisEngine(const EngineConfig& cfg)
    : cfg_(cfg),
      store_(std::make_unique<MemoryStore>(cfg.cache, &metrics_),
             cfg.cache_dir.empty()
                 ? std::unique_ptr<DiskStore>()
                 : std::make_unique<DiskStore>(
                       DiskStore::Config{cfg.cache_dir}, &metrics_),
             &metrics_),
      pool_(cfg.threads, &metrics_),
      submitted_(metrics_.counter("engine.submitted")),
      completed_(metrics_.counter("engine.completed")),
      errors_(metrics_.counter("engine.errors")),
      memory_hits_(metrics_.counter("engine.memory_hits")),
      disk_hits_(metrics_.counter("engine.disk_hits")),
      coalesced_(metrics_.counter("engine.coalesced")),
      misses_(metrics_.counter("engine.misses")),
      cancelled_(metrics_.counter("engine.cancelled")),
      timed_out_(metrics_.counter("engine.timed_out")),
      latency_ms_(metrics_.histogram("engine.latency_ms")),
      profile_(support::make_solver_profile(metrics_)) {}

AnalysisEngine::~AnalysisEngine() { pool_.wait_idle(); }

support::CancelToken AnalysisEngine::register_flight(std::uint64_t seq,
                                                     std::uint64_t id) {
  Flight flight;
  flight.id = id;
  support::LockGuard lock(flights_mu_);
  support::CancelToken token = flight.token;
  flights_.emplace(seq, std::move(flight));
  return token;
}

void AnalysisEngine::mark_started(std::uint64_t seq) {
  support::LockGuard lock(flights_mu_);
  const auto it = flights_.find(seq);
  if (it != flights_.end()) it->second.started = true;
}

void AnalysisEngine::forget_flight(std::uint64_t seq) {
  support::LockGuard lock(flights_mu_);
  flights_.erase(seq);
}

bool AnalysisEngine::cancel(std::uint64_t id) {
  support::LockGuard lock(flights_mu_);
  bool found = false;
  for (auto& [seq, flight] : flights_) {
    static_cast<void>(seq);
    if (flight.id == id) {
      flight.token.request_cancel();
      found = true;
    }
  }
  return found;
}

std::size_t AnalysisEngine::cancel_all() {
  support::LockGuard lock(flights_mu_);
  for (auto& [seq, flight] : flights_) {
    static_cast<void>(seq);
    flight.token.request_cancel();
  }
  return flights_.size();
}

void AnalysisEngine::drain() {
  {
    support::LockGuard lock(flights_mu_);
    for (auto& [seq, flight] : flights_) {
      static_cast<void>(seq);
      if (!flight.started) flight.token.request_cancel();
    }
  }
  pool_.wait_idle();
}

std::future<Response> AnalysisEngine::submit(Request req,
                                             std::function<void()> on_done) {
  submitted_.inc();
  const std::uint64_t seq = next_seq_++;
  support::CancelToken token = register_flight(seq, req.id);
  auto prom = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = prom->get_future();
  support::Timer started;
  pool_.submit(
      [this, prom, started, seq, token, req = std::move(req)]() mutable {
        mark_started(seq);
        prom->set_value(process(std::move(req), started, token));
        forget_flight(seq);
      },
      std::move(on_done));
  return fut;
}

Response AnalysisEngine::run(Request req) {
  submitted_.inc();
  const std::uint64_t seq = next_seq_++;
  support::CancelToken token = register_flight(seq, req.id);
  mark_started(seq);
  Response resp = process(std::move(req), support::Timer(), token);
  forget_flight(seq);
  return resp;
}

void AnalysisEngine::wait_idle() { pool_.wait_idle(); }

Response AnalysisEngine::process(Request req, support::Timer started,
                                 support::CancelToken token) {
  // Normalize before the cache key is computed: an explicit budget=30 and
  // an unset budget are the same bounded solve, so they must share a cache
  // entry and coalesce with each other.
  if (req.budget_seconds <= 0) req.budget_seconds = kDefaultBudgetSeconds;

  Response resp;
  resp.id = req.id;
  resp.name = req.name.empty()
                  ? (req.program != nullptr ? req.program->name()
                                            : req.ddg.name())
                  : req.name;
  resp.include_ddg = req.want_ddg;

  // Span collection is opt-in (EngineConfig::trace): one allocation, a
  // handful of Timer reads and one feature walk of the input per request
  // when on, nothing when off.
  std::shared_ptr<TraceSpan> span;
  if (cfg_.trace) {
    span = std::make_shared<TraceSpan>();
    span->id = req.id;
    span->name = resp.name;
    if (req.op != nullptr) span->op = req.op->name();
    span->parse_ms = req.parse_ms;
    // `started` began at submit(); process() entry is worker pickup.
    span->queue_ms = started.millis();
  }

  SharedPayload payload;
  bool owner = false;
  bool counted_hit = false;   // mirrors the hit/coalesce counters (per-op)
  bool counted_miss = false;  // mirrors misses_ for the per-op slice
  std::promise<SharedPayload> own_promise;
  std::shared_future<SharedPayload> flight;
  CacheKey key;

  try {
    RS_REQUIRE(req.op != nullptr, "request names no operation");
    // Program payloads are fingerprinted over the whole CFG (cfg/canon);
    // DDG payloads keep the normalized-DAG fingerprint. Either way the
    // fingerprint is order/rename-invariant, so isomorphic inputs share a
    // cache entry.
    support::Timer phase;
    ddg::Ddg normalized;
    if (req.program != nullptr) {
      resp.fingerprint = cfg::fingerprint(*req.program);
    } else {
      normalized = req.ddg.normalized();
      resp.fingerprint = ddg::fingerprint(normalized);
    }
    key = request_key(req, resp.fingerprint);
    if (span != nullptr) {
      span->fp_ms = phase.millis();
      // The feature block renders exactly when fp does, so both are set
      // together, before the store probe (cache hits carry them too).
      span->fp = resp.fingerprint.hex();
      if (req.program != nullptr) {
        fill_program_features(*req.program, span.get());
      } else {
        fill_ddg_features(normalized, span.get());
      }
    }

    // Fast path: probe the store (sharded memory LRU, then the disk tier)
    // without touching the global single-flight mutex, so concurrent hits
    // only contend per shard.
    phase.reset();
    StoreHit hit = store_.get(key);
    if (span != nullptr) span->lookup_ms = phase.millis();
    payload = hit.payload;
    if (payload != nullptr) {
      (hit.tier == StoreTier::Disk ? disk_hits_ : memory_hits_).inc();
      counted_hit = true;
      resp.cache_hit = true;
      resp.tier = hit.tier;
    } else {
      support::LockGuard lock(flight_mu_);
      // Re-check under the lock: the owner publishes to the store *before*
      // erasing its in-flight entry, so a request that misses both here
      // raced nothing and can safely become the owner. Memory tier only —
      // this runs on every cold miss while holding the engine-wide
      // single-flight mutex, so file I/O is off-limits; a disk-only entry
      // missed here just recomputes (and the disk probe above already ran
      // outside the lock).
      hit = store_.probe_memory(key);
      payload = hit.payload;
      if (payload != nullptr) {
        memory_hits_.inc();  // probe_memory never reports the disk tier
        counted_hit = true;
        resp.cache_hit = true;
        resp.tier = StoreTier::Memory;
      } else {
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          flight = it->second;
        } else {
          owner = true;
          inflight_[key] = own_promise.get_future().share();
        }
      }
    }

    if (payload == nullptr && !owner) {
      // An identical request is computing right now; ride its result. The
      // computing task never waits on another, so this cannot deadlock.
      // The owner's solve never polls *our* token, so keep observing it
      // here: a cancelled waiter detaches with a Cancelled payload instead
      // of blocking until the owner finishes.
      for (;;) {
        if (flight.wait_for(std::chrono::milliseconds(20)) ==
            std::future_status::ready) {
          payload = flight.get();
          coalesced_.inc();
          counted_hit = true;
          resp.cache_hit = true;
          break;
        }
        if (token.cancelled()) {
          auto aborted = std::make_shared<ResultPayload>();
          aborted->op = req.op;
          aborted->success = false;
          aborted->stats.stop = support::StopCause::Cancelled;
          payload = std::move(aborted);
          // A detached waiter still *was* coalesced onto the in-flight
          // solve — count it there too, so the hit/coalesce/miss buckets
          // tile completed responses (service::counters_tile). The
          // response itself stays cache_hit == false: nothing was served
          // from a cache.
          cancelled_.inc();
          coalesced_.inc();
          counted_hit = true;
          break;
        }
      }
    }

    if (owner) {
      phase.reset();
      payload = compute(req, normalized, token);
      if (span != nullptr) span->solve_ms = phase.millis();
      // Cancelled results are never stored: a cancel is an explicit "this
      // answer is unwanted", so the next identical request must recompute.
      // Timed-out results ARE cached in memory: the budget is part of the
      // cache key, and re-running the same hopeless solve on every lookup
      // would burn the whole budget each time for a (modestly
      // wall-clock-dependent) re-derivation of the same best-effort bound.
      // The store keeps them off the *disk* tier, which outlives this
      // process (TieredStore::put).
      if (payload->ok && !payload->cancelled()) {
        store_.put(key, payload, payload->bytes());
      }
      misses_.inc();
      counted_miss = true;
      if (payload->ok) {
        if (payload->cancelled()) cancelled_.inc();
        if (payload->stats.stop == support::StopCause::TimedOut) {
          timed_out_.inc();
        }
      }
      // Fan-out observability: only computed solves fan out (cache hits
      // carry zero). A lazy, name-hashed registry lookup is fine off the
      // cache-hit fast path.
      if (payload->blocks_parallel > 0) {
        metrics_
            .counter("op." + std::string(req.op->name()) + ".parallel_blocks")
            .inc(static_cast<std::uint64_t>(payload->blocks_parallel));
      }
      own_promise.set_value(payload);
      support::LockGuard lock(flight_mu_);
      inflight_.erase(key);
    }
  } catch (...) {
    auto failed = std::make_shared<ResultPayload>();
    failed->ok = false;
    failed->op = req.op;
    try {
      throw;
    } catch (const std::exception& e) {
      failed->error = e.what();
    } catch (...) {
      failed->error = "unknown error";
    }
    payload = std::move(failed);
    // A failure before any bucket was counted (bad operation, fingerprint
    // or option error) is still a completed response that computed nothing
    // from a cache: count it as a miss so the buckets keep tiling
    // `completed` (service::counters_tile).
    if (!counted_hit && !counted_miss) {
      misses_.inc();
      counted_miss = true;
    }
    if (owner) {
      try {
        own_promise.set_value(payload);
      } catch (const std::future_error&) {
        // Already resolved before the failure; waiters are fine.
      }
      support::LockGuard lock(flight_mu_);
      inflight_.erase(key);
    }
  }

  resp.payload = std::move(payload);
  if (!resp.payload->ok) errors_.inc();
  resp.millis = started.millis();
  latency_ms_.observe(resp.millis);
  record_op(req.op, resp, counted_hit, counted_miss);
  completed_.inc();
  if (span != nullptr) {
    span->ok = resp.payload->ok;
    span->error = resp.payload->error;
    span->cached = resp.cache_hit;
    span->tier = store_tier_token(resp.tier);
    span->stop = support::stop_cause_token(resp.payload->stats.stop);
    span->nodes = resp.payload->stats.nodes;
    span->blocks_parallel = resp.payload->blocks_parallel;
    span->total_ms = resp.millis;
    resp.trace = std::move(span);
  }
  return resp;
}

AnalysisEngine::SharedPayload AnalysisEngine::compute(
    const Request& req, const ddg::Ddg& normalized,
    const support::CancelToken& token) {
  auto payload = std::make_shared<ResultPayload>();
  payload->op = req.op;
  // One context for the whole request: the deadline and the cancel token
  // thread through every solver layer below. process() has already
  // normalized an unset budget to the engine default, so no request can
  // pin a worker past the structural node limits' worst case.
  const support::SolveContext solve =
      support::SolveContext(req.budget_seconds, token).with_profile(&profile_);
  // Operations that fan out (per-block solves) borrow the engine's own pool
  // via nested-task submission; this worker participates through
  // TaskGroup::wait, so handing it our pool cannot deadlock.
  const RunEnv env{&pool_, req.jobs};
  try {
    req.op->run(req, normalized, env, solve, payload.get());
  } catch (const std::exception& e) {
    payload->ok = false;
    payload->error = e.what();
    payload->data.reset();
    payload->out_ddg.clear();
  }
  return payload;
}

void AnalysisEngine::record_op(const Operation* op, const Response& resp,
                               bool counted_hit, bool counted_miss) {
  if (op == nullptr) return;  // failed before an operation was resolved
  PerOpMetrics m;
  {
    support::LockGuard lock(op_mu_);
    auto it = per_op_.find(op);
    if (it == per_op_.end()) {
      const std::string prefix = "op." + std::string(op->name()) + ".";
      PerOpMetrics fresh;
      fresh.submitted = &metrics_.counter(prefix + "submitted");
      fresh.hits = &metrics_.counter(prefix + "hits");
      fresh.misses = &metrics_.counter(prefix + "misses");
      fresh.ms = &metrics_.histogram(prefix + "ms");
      it = per_op_.emplace(op, fresh).first;
    }
    m = it->second;
  }
  m.submitted->inc();
  // Exactly mirror the aggregate counters (hits wherever a tier-hit or
  // coalesce counter fired — detached waiters included; misses wherever
  // misses_ was incremented, error payloads included), so the per-op
  // slices always tile the cache summary.
  if (counted_hit) {
    m.hits->inc();
  } else if (counted_miss) {
    m.misses->inc();
  }
  m.ms->observe(resp.millis);
}

std::vector<std::string> counted_ops(const CounterSnapshot& counters) {
  static const std::string prefix = "op.";
  static const std::string suffix = ".submitted";
  std::vector<std::string> names;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.starts_with(prefix); ++it) {
    const std::string& key = it->first;
    if (key.size() > prefix.size() + suffix.size() && key.ends_with(suffix)) {
      names.push_back(key.substr(
          prefix.size(), key.size() - prefix.size() - suffix.size()));
    }
  }
  // Key order is not name order once a name contains a byte below '.'.
  std::sort(names.begin(), names.end());
  return names;
}

namespace {

std::uint64_t count_of(const CounterSnapshot& counters,
                       const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

bool counters_tile(const CounterSnapshot& counters) {
  return count_of(counters, "engine.memory_hits") +
             count_of(counters, "engine.disk_hits") +
             count_of(counters, "engine.coalesced") +
             count_of(counters, "engine.misses") ==
         count_of(counters, "engine.completed");
}

std::string AnalysisEngine::stats_line() const {
  // Deterministic key order (see the protocol header's spec row): the key
  // schema of two snapshots from the same operation mix is identical, only
  // values differ — consumers can diff schemas across cold/warm runs.
  const CounterSnapshot c = metrics_.counters();
  const auto h = metrics_.histograms();
  const auto n = [&](const std::string& name) { return count_of(c, name); };
  const auto f = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  const std::uint64_t submitted = n("engine.submitted");
  const std::uint64_t completed = n("engine.completed");
  const std::uint64_t served =
      n("engine.memory_hits") + n("engine.disk_hits") + n("engine.coalesced");
  const std::uint64_t lookups = served + n("engine.misses");
  const ResidentSize resident = store_.resident();
  const support::MetricsRegistry::HistogramView& latency =
      h.at("engine.latency_ms");
  const std::vector<std::string> ops = counted_ops(c);
  std::ostringstream os;
  os << "stats submitted=" << submitted << " completed=" << completed
     << " errors=" << n("engine.errors")
     << " memory_hits=" << n("engine.memory_hits")
     << " disk_hits=" << n("engine.disk_hits")
     << " coalesced=" << n("engine.coalesced")
     << " misses=" << n("engine.misses")
     << " cancelled=" << n("engine.cancelled")
     << " timed_out=" << n("engine.timed_out")
     << " queue_depth=" << submitted - std::min(submitted, completed)
     << " hit_rate="
     << f(lookups == 0 ? 0.0 : static_cast<double>(served) / lookups)
     << " entries=" << resident.entries << " bytes=" << resident.bytes
     << " disk=" << (store_.has_disk() ? 1 : 0)
     << " p50_ms=" << f(latency.p50) << " p95_ms=" << f(latency.p95)
     << " p99_ms=" << f(latency.p99) << " max_ms=" << f(latency.max)
     << " ops=" << ops.size();
  for (const std::string& name : ops) {
    // An op's metrics register one by one on its first response, so a
    // concurrent snapshot may hold its counters but not yet its histogram.
    const std::string op = "op." + name + ".";
    const auto ms = h.find(op + "ms");
    os << ' ' << op << "submitted=" << n(op + "submitted") << ' ' << op
       << "hits=" << n(op + "hits") << ' ' << op << "misses="
       << n(op + "misses") << ' ' << op << "p50_ms="
       << f(ms == h.end() ? 0.0 : ms->second.p50);
  }
  return os.str();
}

}  // namespace rs::service
