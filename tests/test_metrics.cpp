// Telemetry spine: the metrics registry primitives (support/metrics.hpp)
// and the trace span / JSONL sink (service/trace.hpp), including the
// engine-integration contract (EngineConfig::trace -> Response::trace).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ddg/kernels.hpp"
#include "graph/paths.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/trace.hpp"
#include "support/metrics.hpp"

namespace rs::support {
namespace {

TEST(Counter, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("t.counter");
  constexpr int kThreads = 8;
  constexpr int kIncs = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(Gauge, ConcurrentAddSubBalancesToZero) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("t.gauge");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 50000; ++i) {
        g.add(3);
        g.sub(3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 0);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(Histogram, QuantilesWithinBucketErrorOfExactRanks) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.hist");
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Bucket midpoints are within ~9% relative error of the true rank value
  // (kSubBuckets = 8); allow 15% slack for the rank falling at bucket edges.
  EXPECT_NEAR(h.quantile(0.5), 500.0, 75.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 145.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 150.0);
  // Quantiles are clamped to the exact observed range and ordered.
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(Histogram, EmptyReportsZeroes) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, UnderflowAndOverflowStayWithinObservedRange) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.extreme");
  h.observe(1e-9);  // below 2^kMinExp: underflow bucket
  h.observe(1e12);  // above 2^kMaxExp: overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_GE(h.quantile(0.01), h.min());
  EXPECT_LE(h.quantile(0.99), h.max());
  // The overflow bucket reports the exact observed max, not a midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e12);
}

TEST(Histogram, ConcurrentObserversLoseNoSamples) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.conc");
  constexpr int kThreads = 8;
  constexpr int kObs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(0.5 + static_cast<double>((t * kObs + i) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 99.5);
}

TEST(Registry, ReferencesAreStableAndNamespacesIndependent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same.name");
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);  // find-or-create returns the same object
  // The three metric kinds have independent namespaces.
  Gauge& g = reg.gauge("same.name");
  Histogram& h = reg.histogram("same.name");
  a.inc(5);
  g.set(-3);
  h.observe(1.0);
  EXPECT_EQ(reg.counters().at("same.name"), 5u);
  EXPECT_EQ(reg.gauges().at("same.name"), -3);
  EXPECT_EQ(reg.histograms().at("same.name").count, 1u);
}

TEST(Registry, ConcurrentLookupAndUseIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("shared.c").inc();
        reg.histogram("shared.h").observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counters().at("shared.c"), 8000u);
  EXPECT_EQ(reg.histograms().at("shared.h").count, 8000u);
}

TEST(Histogram, BucketGeometryIsMonotoneAndCovering) {
  // Underflow bucket tops out at 2^kMinExp; overflow is unbounded.
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(0),
                   std::ldexp(1.0, Histogram::kMinExp));
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBucketCount - 1)));
  for (int b = 1; b + 1 < Histogram::kBucketCount; ++b) {
    const double lo = Histogram::bucket_upper(b - 1);
    const double hi = Histogram::bucket_upper(b);
    EXPECT_LT(lo, hi) << "bucket " << b;
    // Log-spaced with kSubBuckets per octave: adjacent edges never more
    // than 9/8 apart, which is what bounds the midpoint quantile error.
    EXPECT_LE(hi / lo, 9.0 / 8.0 + 1e-12) << "bucket " << b;
  }
}

TEST(Histogram, BucketCountsTileObservations) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.tile");
  const double values[] = {1e-9, 0.25, 1.0, 1.5, 333.0, 1e12};
  for (double v : values) h.observe(v);
  std::uint64_t total = 0;
  for (int b = 0; b < Histogram::kBucketCount; ++b) total += h.bucket_count(b);
  EXPECT_EQ(total, h.count());
  // Each observation sits in the first bucket whose upper edge covers it.
  for (double v : values) {
    int b = 0;
    while (b + 1 < Histogram::kBucketCount && v >= Histogram::bucket_upper(b)) {
      ++b;
    }
    EXPECT_GE(h.bucket_count(b), 1u) << "value " << v << " bucket " << b;
  }
}

TEST(Histogram, QuantileMidpointErrorStaysWithinDocumentedBound) {
  // Property: with kSubBuckets = 8 a bucket's midpoint is within ~9%
  // relative error of any value in the bucket (exact bound 1/17 ≈ 5.9%
  // inside an octave, smaller across octave edges). Sweep a geometric
  // range so the probe value crosses every sub-bucket phase and many
  // exponent boundaries; the flanking outliers keep the median off the
  // min/max clamp so the midpoint path is what answers the query.
  for (double v = 1e-4; v < 1e7; v *= 1.33) {
    MetricsRegistry reg;
    Histogram& h = reg.histogram("t.q");
    h.observe(v / 4);
    h.observe(v * 4);
    for (int i = 0; i < 8; ++i) h.observe(v);
    const double q = h.quantile(0.5);
    EXPECT_LE(std::abs(q - v) / v, 0.09) << "value " << v << " got " << q;
  }
}

TEST(Registry, ToPrometheusRendersSortedTypedTerminated) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first-part").inc(1);
  reg.gauge("mid.depth").set(-4);
  reg.histogram("lat.ms").observe(2.0);
  reg.histogram("lat.ms").observe(3.0);
  const std::string p1 = reg.to_prometheus();
  EXPECT_EQ(p1, reg.to_prometheus());  // byte-stable for fixed values
  // Names are mangled (prefix + [._-] -> _), counters suffixed _total,
  // every family typed.
  EXPECT_NE(p1.find("# TYPE rsat_a_first_part_total counter\n"
                    "rsat_a_first_part_total 1\n"),
            std::string::npos);
  EXPECT_NE(p1.find("# TYPE rsat_mid_depth gauge\nrsat_mid_depth -4\n"),
            std::string::npos);
  EXPECT_NE(p1.find("# TYPE rsat_lat_ms histogram\n"), std::string::npos);
  // Global name sort: a_* before lat_* before mid_* before z_*.
  EXPECT_LT(p1.find("rsat_a_first_part_total"), p1.find("rsat_lat_ms"));
  EXPECT_LT(p1.find("rsat_lat_ms"), p1.find("rsat_mid_depth"));
  EXPECT_LT(p1.find("rsat_mid_depth"), p1.find("rsat_z_last_total"));
  // Histogram ladder is cumulative and closes with +Inf == _count.
  EXPECT_NE(p1.find("rsat_lat_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(p1.find("rsat_lat_ms_sum 5\n"), std::string::npos);
  EXPECT_NE(p1.find("rsat_lat_ms_count 2\n"), std::string::npos);
  // The exposition frames itself for line-oriented transports.
  EXPECT_EQ(p1.substr(p1.size() - 6), "# EOF\n");
}

TEST(Registry, ToPrometheusHistogramLadderIsCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t.ladder");
  for (int i = 1; i <= 64; ++i) h.observe(static_cast<double>(i));
  const std::string p = reg.to_prometheus();
  // Walk every bucket sample line; cumulative counts never decrease.
  std::uint64_t prev = 0;
  std::size_t at = 0;
  int lines = 0;
  const std::string needle = "rsat_t_ladder_bucket{le=\"";
  while ((at = p.find(needle, at)) != std::string::npos) {
    const std::size_t sp = p.find(' ', at);
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t cum = std::stoull(p.substr(sp + 1));
    EXPECT_GE(cum, prev);
    prev = cum;
    ++lines;
    at = sp;
  }
  EXPECT_GT(lines, 2);  // sparse ladder: non-empty buckets plus +Inf
  EXPECT_EQ(prev, 64u);  // +Inf closes at the total count
}

TEST(Registry, ToJsonIsByteStableAndSorted) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("mid").set(4);
  reg.histogram("lat").observe(2.0);
  const std::string j1 = reg.to_json();
  const std::string j2 = reg.to_json();
  EXPECT_EQ(j1, j2);  // byte-stable for fixed values
  // Name-sorted within each section.
  EXPECT_LT(j1.find("\"a.first\":1"), j1.find("\"z.last\":2"));
  EXPECT_NE(j1.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(j1.find("\"gauges\":{\"mid\":4}"), std::string::npos);
  EXPECT_NE(j1.find("\"histograms\":{\"lat\":{\"count\":1"),
            std::string::npos);
}

}  // namespace
}  // namespace rs::support

namespace rs::service {
namespace {

/// Minimal structural JSONL check without a JSON parser: balanced braces on
/// one line, and every required key present in order of first appearance.
void expect_required_keys(const std::string& line) {
  EXPECT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  std::size_t pos = 0;
  for (const char* key :
       {"\"ev\":", "\"ts\":", "\"id\":", "\"op\":", "\"name\":", "\"fp\":",
        "\"ok\":", "\"cached\":", "\"tier\":", "\"stop\":", "\"nodes\":"}) {
    const std::size_t at = line.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << line;
    pos = at;
  }
  EXPECT_NE(line.find("\"total_ms\":"), std::string::npos);
}

TEST(TraceRender, RequiredKeysAlwaysPresent) {
  TraceSpan span;
  span.id = 7;
  span.op = "analyze";
  span.name = "k1";
  span.fp = "abcd";
  const std::string line = render_trace_json(span, 1234.5);
  expect_required_keys(line);
  EXPECT_NE(line.find("\"ev\":\"request\""), std::string::npos);
  EXPECT_NE(line.find("\"ts\":1234.500000"), std::string::npos);
  EXPECT_NE(line.find("\"id\":7"), std::string::npos);
  // Unmeasured total_ms still renders (as 0); unmeasured phases do not.
  EXPECT_NE(line.find("\"total_ms\":0.000"), std::string::npos);
  EXPECT_EQ(line.find("\"solve_ms\":"), std::string::npos);
  EXPECT_EQ(line.find("\"bytes\":"), std::string::npos);
  EXPECT_EQ(line.find("\"err\":"), std::string::npos);
}

TEST(TraceRender, FeatureBlockFollowsNodesWhenFingerprinted) {
  TraceSpan span;
  span.id = 42;
  span.op = "globalrs";
  span.name = "k";
  span.fp = "cafe";
  span.nodes = 2;
  span.blocks_parallel = 3;
  span.ddg_ops = 10;
  span.ddg_arcs = 17;
  span.ddg_cp = 11;
  span.ddg_width = 4;
  span.ddg_types = "4,5";
  span.parse_ms = 0.5;
  span.total_ms = 2.0;
  const std::string line = render_trace_json(span, 1234.5);
  EXPECT_EQ(line, render_trace_json(span, 1234.5));  // byte-stable
  std::size_t pos = 0;
  for (const char* key :
       {"\"ev\":\"request\"", "\"ts\":1234.500000", "\"id\":42",
        "\"op\":\"globalrs\"", "\"name\":\"k\"", "\"fp\":\"cafe\"",
        "\"ok\":true", "\"cached\":false", "\"tier\":\"none\"",
        "\"stop\":\"proven\"", "\"nodes\":2", "\"blocks_parallel\":3",
        "\"ddg_ops\":10", "\"ddg_arcs\":17", "\"ddg_cp\":11",
        "\"ddg_width\":4", "\"ddg_types\":\"4,5\"", "\"parse_ms\":0.500",
        "\"total_ms\":2.000"}) {
    const std::size_t at = line.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << line;
    pos = at;
  }

  // No fingerprint (the request failed before it): no feature block, even
  // when feature fields happen to be set.
  span.fp.clear();
  const std::string bare = render_trace_json(span, 0);
  EXPECT_EQ(bare.find("\"ddg_"), std::string::npos) << bare;
  expect_required_keys(bare);
}

TEST(TraceRender, MeasuredPhasesAppearOmittedOnesDoNot) {
  TraceSpan span;
  span.queue_ms = 0.25;
  span.solve_ms = 3.5;
  span.total_ms = 4.0;
  span.bytes = 128;
  const std::string line = render_trace_json(span, 0);
  EXPECT_NE(line.find("\"queue_ms\":0.250"), std::string::npos);
  EXPECT_NE(line.find("\"solve_ms\":3.500"), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\":4.000"), std::string::npos);
  EXPECT_NE(line.find("\"bytes\":128"), std::string::npos);
  EXPECT_EQ(line.find("\"parse_ms\":"), std::string::npos);
  EXPECT_EQ(line.find("\"lookup_ms\":"), std::string::npos);
  EXPECT_EQ(line.find("\"encode_ms\":"), std::string::npos);
}

TEST(TraceRender, EscapesStringsAndCarriesErrors) {
  TraceSpan span;
  span.ok = false;
  span.name = "a \"b\"\\c\nd\te";
  span.error = std::string("ctl:") + '\x01';
  const std::string line = render_trace_json(span, 0);
  EXPECT_NE(line.find("\"name\":\"a \\\"b\\\"\\\\c\\nd\\te\""),
            std::string::npos);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"err\":\"ctl:\\u0001\""), std::string::npos);
}

TEST(TraceSink, WritesEveryEventWholeAndInIdOrder) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rs_test_trace.jsonl")
          .string();
  // Enough events to pass the flush threshold several times, so both the
  // threshold writes and the final flush are exercised.
  const std::string name(200, 'w');
  const std::uint64_t events =
      4 * TraceSink::kFlushThreshold / (name.size() + 100) + 7;
  {
    TraceSink sink(path);
    for (std::uint64_t id = 1; id <= events; ++id) {
      TraceSpan span;
      span.id = id;
      span.op = "analyze";
      span.name = name;
      span.total_ms = 0.5;
      sink.write(span);
    }
    EXPECT_EQ(sink.written(), events);
  }  // the destructor flushes the tail
  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    expect_required_keys(line);
    EXPECT_NE(line.find("\"id\":" + std::to_string(lines) + ","),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"name\":\"" + name + "\""), std::string::npos);
  }
  EXPECT_EQ(lines, events);
  std::filesystem::remove(path);
}

TEST(TraceEngine, SpansRideOnResponsesWhenEnabled) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.trace = true;
  AnalysisEngine engine(cfg);
  const auto dag = ddg::build_kernel("lin-ddot", ddg::superscalar_model());

  Request first = make_request("analyze", dag);
  first.id = 1;
  first.name = "cold";
  first.parse_ms = 0.125;
  const Response cold = engine.run(first);
  ASSERT_NE(cold.trace, nullptr);
  EXPECT_EQ(cold.trace->id, 1u);
  EXPECT_EQ(cold.trace->op, "analyze");
  EXPECT_EQ(cold.trace->name, "cold");
  EXPECT_EQ(cold.trace->fp, cold.fingerprint.hex());
  EXPECT_TRUE(cold.trace->ok);
  EXPECT_FALSE(cold.trace->cached);
  EXPECT_STREQ(cold.trace->tier, "none");
  EXPECT_DOUBLE_EQ(cold.trace->parse_ms, 0.125);
  EXPECT_GE(cold.trace->queue_ms, 0.0);
  EXPECT_GE(cold.trace->fp_ms, 0.0);
  EXPECT_GE(cold.trace->lookup_ms, 0.0);
  EXPECT_GE(cold.trace->solve_ms, 0.0);  // owners measure the solve
  EXPECT_GE(cold.trace->total_ms, 0.0);
  // Input shape features describe the normalized DAG.
  const ddg::Ddg normalized = dag.normalized();
  EXPECT_EQ(cold.trace->ddg_ops, normalized.op_count());
  EXPECT_EQ(cold.trace->ddg_arcs, normalized.graph().edge_count());
  EXPECT_EQ(cold.trace->ddg_cp, graph::critical_path(normalized.graph()));
  EXPECT_GT(cold.trace->ddg_width, 0);
  EXPECT_LE(cold.trace->ddg_width, cold.trace->ddg_ops);
  std::string types;
  for (int t = 0; t < normalized.type_count(); ++t) {
    if (t > 0) types += ',';
    types += std::to_string(normalized.values_of_type(t).size());
  }
  EXPECT_EQ(cold.trace->ddg_types, types);

  Request second = make_request("analyze", dag);
  second.id = 2;
  const Response warm = engine.run(second);
  ASSERT_NE(warm.trace, nullptr);
  EXPECT_TRUE(warm.trace->cached);
  EXPECT_STREQ(warm.trace->tier, "mem");
  EXPECT_LT(warm.trace->solve_ms, 0.0);  // cache hits never enter solve
  // Cache hits carry the same features: they describe the input, not the
  // solve.
  EXPECT_EQ(warm.trace->ddg_ops, cold.trace->ddg_ops);
  EXPECT_EQ(warm.trace->ddg_arcs, cold.trace->ddg_arcs);
  EXPECT_EQ(warm.trace->ddg_cp, cold.trace->ddg_cp);
  EXPECT_EQ(warm.trace->ddg_width, cold.trace->ddg_width);
  EXPECT_EQ(warm.trace->ddg_types, cold.trace->ddg_types);
}

TEST(TraceEngine, ProgramSpansCarryBlockLevelFeatures) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.trace = true;
  AnalysisEngine engine(cfg);
  const Response resp =
      engine.run(parse_request_line("globalrs prog=diamond", 1));
  ASSERT_TRUE(resp.payload->ok) << resp.payload->error;
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_EQ(resp.trace->op, "globalrs");
  EXPECT_EQ(resp.trace->fp, resp.fingerprint.hex());
  // Program features: width = block count, cp not computed across blocks.
  EXPECT_EQ(resp.trace->ddg_width, 4);
  EXPECT_EQ(resp.trace->ddg_cp, 0);
  EXPECT_GT(resp.trace->ddg_ops, 0);
  EXPECT_GT(resp.trace->ddg_arcs, 0);
  EXPECT_FALSE(resp.trace->ddg_types.empty());
}

TEST(TraceEngine, NoSpansWhenDisabled) {
  EngineConfig cfg;
  cfg.threads = 1;
  AnalysisEngine engine(cfg);
  const Response resp = engine.run(
      make_request("analyze", ddg::build_kernel("lin-ddot",
                                                ddg::superscalar_model())));
  EXPECT_EQ(resp.trace, nullptr);
}

}  // namespace
}  // namespace rs::service
