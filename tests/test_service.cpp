// Batch analysis engine: canonical fingerprints, the sharded LRU cache, the
// line protocol, and AnalysisEngine end-to-end — including the acceptance
// bar that engine results are byte-identical to the equivalent one-shot
// core::analyze / core::ensure_limits calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cfg/canon.hpp"
#include "cfg/cfg.hpp"
#include "core/saturation.hpp"
#include "ddg/canon.hpp"
#include "ddg/generators.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "service/engine.hpp"
#include "service/operation.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"
#include "support/random.hpp"
#include "support/solve_context.hpp"

#include "test_util.hpp"

namespace rs {
namespace {

using ddg::Ddg;
using ddg::Fingerprint;
using service::AnalysisEngine;
using service::CacheKey;
using service::EngineConfig;
using service::MemoryStore;
using service::Request;
using service::Response;
using service::ResultPayload;
using service::StoreTier;

// ---------------------------------------------------------------------------
// .ddg text round-tripping

TEST(Io, RoundTripEveryKernelBothModels) {
  for (const auto model : {ddg::superscalar_model, ddg::vliw_model}) {
    for (const std::string& name : ddg::kernel_names()) {
      const Ddg d = ddg::build_kernel(name, model());
      const std::string text = ddg::to_text(d);
      const Ddg back = ddg::from_text(text);
      EXPECT_EQ(ddg::to_text(back), text) << name;
      // The bottom marker survives, so normalization stays idempotent and
      // the fingerprint is path-independent (built vs parsed).
      ASSERT_TRUE(back.bottom().has_value()) << name;
      EXPECT_EQ(back.op_count(), d.op_count()) << name;
      EXPECT_EQ(ddg::to_text(back.normalized()), text) << name;
      EXPECT_EQ(ddg::fingerprint(back), ddg::fingerprint(d)) << name;
    }
  }
}

TEST(Io, BottomMarkerRejectsUnknownOp) {
  EXPECT_THROW(
      ddg::from_text("ddg t types=1 bottom=zz\nop a class=ialu lat=1 dr=0 dw=0\n"),
      support::PreconditionError);
}

TEST(Io, BottomMarkerRejectsNonNormalizedShape) {
  // Marked ⊥ has an outgoing arc: not a sink.
  EXPECT_THROW(
      ddg::from_text("ddg t types=1 bottom=a\n"
                     "op a class=ialu lat=1 dr=0 dw=0\n"
                     "op b class=ialu lat=1 dr=0 dw=0\n"
                     "serial a b lat=1\n"),
      support::PreconditionError);
  // An op with no arc into the marked ⊥: normalization would have added one.
  EXPECT_THROW(
      ddg::from_text("ddg t types=1 bottom=b\n"
                     "op a class=ialu lat=1 dr=0 dw=0\n"
                     "op b class=nop lat=0 dr=0 dw=0\n"),
      support::PreconditionError);
}

TEST(Io, MalformedNumbersReportPrecondition) {
  EXPECT_THROW(ddg::from_text("ddg t types=x\n"), support::PreconditionError);
  EXPECT_THROW(
      ddg::from_text("ddg t types=1\nop a class=ialu lat=zap dr=0 dw=0\n"),
      support::PreconditionError);
}

// ---------------------------------------------------------------------------
// canonical fingerprints

TEST(Canon, InvariantUnderRenumberingAndRenaming) {
  for (const std::string& name : ddg::kernel_names()) {
    const Ddg d = ddg::build_kernel(name, ddg::superscalar_model());
    const Fingerprint fp = ddg::fingerprint(d);
    const Ddg renumbered = test::permuted_copy(d, test::reversed_order(d), false);
    EXPECT_EQ(ddg::fingerprint(renumbered), fp) << name;
    const Ddg renamed = test::permuted_copy(d, test::reversed_order(d), true);
    EXPECT_EQ(ddg::fingerprint(renamed), fp) << name;
    // And the permuted copy still serializes to *different* text, so the
    // fingerprint is doing real work.
    EXPECT_NE(ddg::to_text(renumbered), ddg::to_text(d)) << name;
  }
}

TEST(Canon, DistinguishesCorpusKernels) {
  std::set<std::string> seen;
  for (const auto model : {ddg::superscalar_model, ddg::vliw_model}) {
    for (const std::string& name : ddg::kernel_names()) {
      const Ddg d = ddg::build_kernel(name, model());
      EXPECT_TRUE(seen.insert(ddg::fingerprint(d).hex()).second)
          << name << " collided";
    }
  }
}

TEST(Canon, SensitiveToAttributes) {
  Ddg a(1, "g");
  ddg::Operation op;
  op.name = "x";
  op.cls = ddg::OpClass::Load;
  op.latency = 3;
  op.writes = {0};
  const auto v = a.add_op(op);
  ddg::Operation op2;
  op2.name = "y";
  op2.cls = ddg::OpClass::IntAlu;
  const auto w = a.add_op(op2);
  a.add_flow(v, w, 0, 3);

  Ddg b = a;  // identical copy
  EXPECT_EQ(ddg::fingerprint(a), ddg::fingerprint(b));

  Ddg c(1, "g");
  op.latency = 4;  // one latency changed
  const auto cv = c.add_op(op);
  const auto cw = c.add_op(op2);
  c.add_flow(cv, cw, 0, 3);
  EXPECT_NE(ddg::fingerprint(c), ddg::fingerprint(a));
}

TEST(Canon, ExtendSeparatesSalts) {
  const Ddg d = ddg::build_kernel("fir8", ddg::superscalar_model());
  const Fingerprint fp = ddg::fingerprint(d);
  EXPECT_NE(ddg::extend(fp, 1), ddg::extend(fp, 2));
  EXPECT_NE(ddg::extend(fp, 1), fp);
}

// ---------------------------------------------------------------------------
// cache

std::shared_ptr<const ResultPayload> payload_named(const std::string& n) {
  auto p = std::make_shared<ResultPayload>();
  p->out_ddg = n;  // any field; tests only need distinct live payloads
  return p;
}

TEST(Cache, HitMissAndLruEviction) {
  MemoryStore::Config cfg;
  cfg.shards = 1;
  cfg.max_entries = 2;
  support::MetricsRegistry metrics;
  MemoryStore cache(cfg, &metrics);
  const CacheKey k1{1, 10}, k2{2, 20}, k3{3, 30};
  EXPECT_EQ(cache.get(k1).payload, nullptr);
  EXPECT_EQ(cache.get(k1).tier, StoreTier::None);
  cache.put(k1, payload_named("a"), 100);
  cache.put(k2, payload_named("b"), 100);
  ASSERT_NE(cache.get(k1).payload, nullptr);  // refresh k1: k2 is now LRU
  EXPECT_EQ(cache.get(k1).tier, StoreTier::Memory);
  cache.put(k3, payload_named("c"), 100);
  EXPECT_EQ(cache.get(k2).payload, nullptr)
      << "LRU entry should have been evicted";
  EXPECT_NE(cache.get(k1).payload, nullptr);
  EXPECT_NE(cache.get(k3).payload, nullptr);
  EXPECT_EQ(cache.resident().entries, 2u);
  EXPECT_EQ(test::counter(metrics, "store.mem.evictions"), 1u);
  EXPECT_EQ(test::counter(metrics, "store.mem.insertions"), 3u);
}

TEST(Cache, ByteCapacityEvictsAndRejectsOversized) {
  MemoryStore::Config cfg;
  cfg.shards = 1;
  cfg.max_bytes = 1000;
  MemoryStore cache(cfg);
  cache.put(CacheKey{1, 1}, payload_named("a"), 600);
  cache.put(CacheKey{2, 2}, payload_named("b"), 600);  // evicts the first
  EXPECT_EQ(cache.get(CacheKey{1, 1}).payload, nullptr);
  EXPECT_NE(cache.get(CacheKey{2, 2}).payload, nullptr);
  cache.put(CacheKey{3, 3}, payload_named("c"), 5000);  // larger than budget
  EXPECT_EQ(cache.get(CacheKey{3, 3}).payload, nullptr);
  EXPECT_LE(cache.resident().bytes, 1000u);
}

TEST(Cache, ZeroCapacityDisables) {
  MemoryStore::Config cfg;
  cfg.max_bytes = 0;
  MemoryStore cache(cfg);
  EXPECT_FALSE(cache.enabled());
  cache.put(CacheKey{1, 1}, payload_named("a"), 10);
  EXPECT_EQ(cache.get(CacheKey{1, 1}).payload, nullptr);
}

// ---------------------------------------------------------------------------
// protocol

TEST(Protocol, EscapeRoundTrip) {
  const std::string raw = "a b\tc\nd%e\r=f#g";
  const std::string esc = service::escape_field(raw);
  EXPECT_EQ(esc.find(' '), std::string::npos);
  EXPECT_EQ(esc.find('\n'), std::string::npos);
  EXPECT_EQ(service::unescape_field(esc), raw);
  EXPECT_EQ(service::unescape_field("plain"), "plain");
  EXPECT_THROW(service::unescape_field("bad%zz"), support::PreconditionError);
  EXPECT_THROW(service::unescape_field("trunc%2"), support::PreconditionError);
}

TEST(Protocol, ParseAnalyzeAndReduceRequests) {
  const Request a = service::parse_request_line(
      "analyze kernel=lin-ddot engine=greedy budget=2.5 name=dd", 7);
  EXPECT_EQ(a.op, service::find_operation("analyze"));
  EXPECT_EQ(a.id, 7u);
  EXPECT_EQ(a.name, "dd");
  EXPECT_EQ(service::option_value(a, "engine"),
            static_cast<long long>(core::RsEngine::Greedy));
  EXPECT_DOUBLE_EQ(a.budget_seconds, 2.5);

  const Request r = service::parse_request_line(
      "reduce kernel=fir8 limits=4,8 exact=1 verify=0 emit=1 id=42", 1);
  EXPECT_EQ(r.op, service::find_operation("reduce"));
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(service::option_list(r, "limits"), (std::vector<int>{4, 8}));
  EXPECT_EQ(service::option_value(r, "exact"), 1);
  EXPECT_EQ(service::option_value(r, "verify"), 0);
  EXPECT_TRUE(r.want_ddg);
}

TEST(Protocol, ParseInlineDdgPayload) {
  const Ddg d = ddg::build_kernel("horner8", ddg::superscalar_model());
  const std::string line =
      "analyze ddg=" + service::escape_field(ddg::to_text(d));
  const Request req = service::parse_request_line(line, 1);
  EXPECT_EQ(ddg::fingerprint(req.ddg), ddg::fingerprint(d));
}

TEST(Protocol, RejectsMalformedRequests) {
  using support::PreconditionError;
  EXPECT_THROW(service::parse_request_line("frobnicate kernel=fir8", 1),
               PreconditionError);
  EXPECT_THROW(service::parse_request_line("analyze", 1), PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("analyze kernel=fir8 file=x.ddg", 1),
      PreconditionError);
  EXPECT_THROW(service::parse_request_line("analyze kernel=nope", 1),
               PreconditionError);
  EXPECT_THROW(service::parse_request_line("reduce kernel=fir8", 1),
               PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("reduce kernel=fir8 limits=4,x", 1),
      PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("analyze kernel=fir8 engine=magic", 1),
      PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("analyze kernel=fir8 budget=-1", 1),
      PreconditionError);
  // Typo'd or misplaced options are rejected, not silently defaulted.
  EXPECT_THROW(
      service::parse_request_line("analyze kernel=fir8 buget=5", 1),
      PreconditionError);
  EXPECT_THROW(service::parse_request_line("analyze kernel=fir8 emit=1", 1),
               PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("reduce kernel=fir8 limits=4,4 emitt=1", 1),
      PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("analyze file=x.ddg model=vliw", 1),
      PreconditionError);
  // Duplicate fields must not silently collapse to the last occurrence.
  EXPECT_THROW(
      service::parse_request_line("reduce kernel=fir8 limits=4,4 limits=8,8", 1),
      PreconditionError);
  EXPECT_THROW(
      service::parse_request_line("analyze kernel=fir8 kernel=horner8", 1),
      PreconditionError);
}

TEST(Protocol, RenderedResultParsesBack) {
  AnalysisEngine engine{EngineConfig{}};
  Request req = service::parse_request_line("analyze kernel=lin-ddot", 3);
  const Response resp = engine.run(std::move(req));
  const std::string line = service::render_response(resp);
  const auto fields = service::parse_fields(line);
  EXPECT_EQ(fields.at(""), "result");
  EXPECT_EQ(fields.at("id"), "3");
  EXPECT_EQ(fields.at("status"), "ok");
  EXPECT_EQ(fields.at("kind"), "analyze");
  EXPECT_EQ(fields.at("name"), "lin-ddot");
  EXPECT_EQ(fields.at("fp"), resp.fingerprint.hex());
  EXPECT_EQ(fields.at("cached"), "0");
  ASSERT_TRUE(fields.count("t1.rs"));
}

TEST(Protocol, NameWithWhitespaceRoundTrips) {
  // A kernel/file display name containing spaces (or worse) must not
  // corrupt the key=value token stream: escaped on render, unescaped on
  // parse, symmetrically.
  AnalysisEngine engine{EngineConfig{}};
  Request req = service::parse_request_line(
      "analyze kernel=fir8 name=my%20noisy%09loop", 1);
  EXPECT_EQ(req.name, "my noisy\tloop");
  const Response resp = engine.run(std::move(req));
  const std::string line = service::render_response(resp);
  // Every token still splits cleanly at whitespace into key=value form.
  for (const std::string& tok : support::split_ws(line)) {
    EXPECT_TRUE(tok == "result" || tok.find('=') != std::string::npos)
        << "corrupted token '" << tok << "' in: " << line;
  }
  const auto fields = service::parse_fields(line);
  EXPECT_EQ(fields.at("name"), "my noisy\tloop");
  EXPECT_EQ(fields.at("status"), "ok");

  // The error path escapes the echoed name the same way.
  Request bad = service::parse_request_line(
      "reduce kernel=fir8 limits=4 name=spaced%20name", 2);
  const Response err = engine.run(std::move(bad));
  ASSERT_FALSE(err.payload->ok);
  const auto efields = service::parse_fields(service::render_response(err));
  EXPECT_EQ(efields.at("name"), "spaced name");
  EXPECT_EQ(efields.at("status"), "error");
}

// ---------------------------------------------------------------------------
// engine

TEST(Engine, AnalyzeMatchesOneShotCoreCall) {
  for (const std::string& name : {std::string("lin-ddot"), std::string("horner8"),
                                  std::string("estrin8")}) {
    const Ddg d = ddg::build_kernel(name, ddg::superscalar_model());
    const core::AnalyzeOptions opts;  // defaults: exact combinatorial
    const core::SaturationReport want = core::analyze(d.normalized(), opts);

    AnalysisEngine engine{EngineConfig{}};
    const Response resp = engine.run(service::make_request("analyze", d));
    ASSERT_TRUE(resp.payload->ok) << resp.payload->error;
    const service::OpData& got = *resp.payload->data;
    ASSERT_EQ(got.rows(), want.per_type.size()) << name;
    for (std::size_t t = 0; t < want.per_type.size(); ++t) {
      EXPECT_EQ(got.type(t), want.per_type[t].type);
      EXPECT_EQ(got.cell(t, "vals"), want.per_type[t].value_count);
      EXPECT_EQ(got.cell(t, "rs"), want.per_type[t].rs) << name;
      EXPECT_EQ(got.cell(t, "proven"), want.per_type[t].proven ? 1 : 0);
    }
  }
}

TEST(Engine, ReduceMatchesOneShotCoreCallByteForByte) {
  const Ddg d = ddg::build_kernel("fir8", ddg::superscalar_model());
  const std::vector<int> limits{6, 6};
  const core::PipelineOptions opts;
  const core::PipelineResult want =
      core::ensure_limits(d.normalized(), limits, opts);

  AnalysisEngine engine{EngineConfig{}};
  const Response resp =
      engine.run(service::make_request("reduce limits=6,6", d));
  ASSERT_TRUE(resp.payload->ok) << resp.payload->error;
  EXPECT_EQ(resp.payload->success, want.success);
  // Byte-identical reduced DDG.
  EXPECT_EQ(resp.payload->out_ddg, ddg::to_text(want.out));
  const service::OpData& got = *resp.payload->data;
  ASSERT_EQ(got.rows(), want.per_type.size());
  for (std::size_t t = 0; t < want.per_type.size(); ++t) {
    EXPECT_EQ(got.cell(t, "status"),
              static_cast<long long>(want.per_type[t].status));
    EXPECT_EQ(got.cell(t, "rs"), want.per_type[t].achieved_rs);
    EXPECT_EQ(got.cell(t, "arcs"), want.per_type[t].arcs_added);
    EXPECT_EQ(got.cell(t, "loss"), want.per_type[t].ilp_loss());
  }
}

TEST(Engine, DuplicateRequestHitsCacheWithIdenticalBytes) {
  AnalysisEngine engine{EngineConfig{}};
  Request req = service::parse_request_line("analyze kernel=liv-loop7", 1);
  const Response first = engine.run(Request(req));
  const Response second = engine.run(Request(req));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.payload, first.payload) << "hit must share the payload";
  // Rendered lines agree on everything except delivery metadata.
  auto a = service::parse_fields(service::render_response(first));
  auto b = service::parse_fields(service::render_response(second));
  a.erase("cached"), a.erase("ms");
  b.erase("cached"), b.erase("ms");
  EXPECT_EQ(a, b);
  const support::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(test::counter(m, "engine.memory_hits") +
                test::counter(m, "engine.disk_hits"),
            1u);
  EXPECT_EQ(test::counter(m, "engine.misses"), 1u);
  EXPECT_NE(service::parse_fields(engine.stats_line()).at("hit_rate"),
            "0.000");
}

TEST(Engine, RenumberedAndRenamedInputHitsSameEntry) {
  const Ddg d = ddg::build_kernel("liv-loop5", ddg::superscalar_model());
  AnalysisEngine engine{EngineConfig{}};
  const Response first = engine.run(service::make_request("analyze", d));
  Request perm = service::make_request(
      "analyze",
      test::permuted_copy(d, test::reversed_order(d), /*rename=*/true));
  perm.name = "permuted";
  const Response second = engine.run(std::move(perm));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  const service::OpData& fa = *first.payload->data;
  const service::OpData& sa = *second.payload->data;
  ASSERT_EQ(sa.rows(), fa.rows());
  for (std::size_t t = 0; t < fa.rows(); ++t) {
    EXPECT_EQ(sa.cell(t, "rs"), fa.cell(t, "rs"));
  }
}

TEST(Engine, DifferentOptionsMissSeparately) {
  AnalysisEngine engine{EngineConfig{}};
  Request exact = service::parse_request_line("analyze kernel=liv-loop1", 1);
  Request greedy =
      service::parse_request_line("analyze kernel=liv-loop1 engine=greedy", 2);
  engine.run(std::move(exact));
  const Response r = engine.run(std::move(greedy));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(test::counter(engine.metrics(), "engine.misses"), 2u);
}

TEST(Engine, CacheKeysArePinned) {
  // --cache-dir entries are addressed by request_key, so any change to an
  // operation's option digest orphans every entry already on disk. These
  // keys must only change together with a deliberate cache-format bump.
  const std::pair<const char*, const char*> cases[] = {
      {"reduce kernel=lin-ddot limits=6,6",
       "c87b0cf6d6bba7ba0c2541d86636aa41"},
      {"reduce kernel=lin-ddot limits=6,6 exact=1",
       "eb718c6b721d820eb2c2c999ae0e6f6b"},
      {"minreg kernel=lin-ddot",
       "a3aebef965ad40f3a43edf166a324d11"},
      {"analyze kernel=lin-ddot",
       "dfd70706a8ea2b72b2e9fffa4303bf0b"},
      {"analyze kernel=lin-ddot engine=greedy",
       "a163b2448e61756382b3c82c6ceaae0d"},
      {"spill kernel=lin-ddot limits=2,2 max_spills=2",
       "a73920a18c806bf5edbaff37802d3142"},
      {"schedule kernel=lin-ddot width=2",
       "aca52c28738c339c3267fb4c690bf19e"},
      {"minreg kernel=lin-ddot cp=40",
       "9ed4209e3f535a8be01b4036e068c76f"},
      {"globalrs prog=diamond",
       "82a3d47dfbbf3346382bedf10aa1ec48"},
      {"globalrs prog=diamond engine=greedy",
       "ea80d3bb09b0ae3e2ce6883d867737e0"},
      {"globalreduce prog=diamond limits=8,8 margin=2",
       "2940c07811b43100c7b3068448c12e7c"},
      {"globalreduce prog=diamond limits=8,8 margin=2 engine=greedy",
       "19bd034f652cac448df710fe2953f867"},
  };
  for (const auto& [line, hex] : cases) {
    const Request req = service::parse_request_line(line, 1);
    // Program requests are fingerprinted with cfg::canon, DDG requests
    // with ddg::canon — the same split the engine makes.
    const ddg::Fingerprint fp = req.program != nullptr
                                    ? cfg::fingerprint(*req.program)
                                    : ddg::fingerprint(req.ddg.normalized());
    const CacheKey key = service::request_key(req, fp);
    EXPECT_EQ(key.hex(), hex) << line;
  }
}

TEST(Engine, ConcurrentDuplicatesComputeOnce) {
  EngineConfig cfg;
  cfg.threads = 4;
  AnalysisEngine engine(cfg);
  const std::vector<std::string> names{"lin-ddot", "fir8", "horner8"};
  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& n : names) {
      futures.push_back(
          engine.submit(service::parse_request_line("analyze kernel=" + n, 1)));
    }
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_TRUE(r.payload->ok) << r.payload->error;
  }
  const support::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(test::counter(m, "engine.completed"), futures.size());
  EXPECT_EQ(test::counter(m, "engine.misses"), names.size())
      << "single-flight must collapse concurrent duplicates";
  EXPECT_EQ(test::counter(m, "engine.memory_hits") +
                test::counter(m, "engine.disk_hits") +
                test::counter(m, "engine.coalesced"),
            futures.size() - names.size());
  EXPECT_EQ(service::parse_fields(engine.stats_line()).at("queue_depth"),
            "0");
}

TEST(Engine, ErrorsAreReportedAndNotCached) {
  AnalysisEngine engine{EngineConfig{}};
  const Request bad = service::make_request(
      "reduce limits=4",  // needs one limit per type (2)
      ddg::build_kernel("fir8", ddg::superscalar_model()));
  const Response r1 = engine.run(Request(bad));
  EXPECT_FALSE(r1.payload->ok);
  EXPECT_FALSE(r1.payload->error.empty());
  const Response r2 = engine.run(Request(bad));
  EXPECT_FALSE(r2.cache_hit) << "error results must not be cached";
  EXPECT_EQ(test::counter(engine.metrics(), "engine.errors"), 2u);
  EXPECT_EQ(engine.store().resident().entries, 0u);
  // And the error renders as a protocol error line.
  const auto fields = service::parse_fields(service::render_response(r1));
  EXPECT_EQ(fields.at("status"), "error");
  EXPECT_FALSE(fields.at("msg").empty());
}

TEST(Engine, ErrorMessagesNameTheCheckNotItsSourceLocation) {
  // msg= is part of the result line, so it may depend on the request and
  // the check's text only: no checkout path, no line number.
  AnalysisEngine engine{EngineConfig{}};
  const auto msg = [&engine](const std::string& line) {
    const std::string rendered = service::render_response(
        engine.run(service::parse_request_line(line, 1)));
    EXPECT_EQ(rendered.find(".cpp"), std::string::npos) << rendered;
    return service::parse_fields(rendered).at("msg");
  };
  EXPECT_EQ(msg("reduce kernel=lin-ddot limits=0,4"),
            "precondition failed: limits[t] >= 1 — need at least one "
            "register per type");
  EXPECT_EQ(msg("globalreduce prog=diamond limits=1,1"),
            "precondition failed: effective[t] >= 1 — register file too "
            "small for the move margin");
}

TEST(Engine, IlpEngineAnswersWhenARefactorizationFails) {
  // The intLP of complex-mul2 hits a singular basis at a periodic
  // refactorization after about 1 s (RelWithDebInfo). That ends the one
  // LP, not the request: the line keeps the greedy witness, t1 RS 12,
  // which engine=exact proves. A build slow enough to reach the budget
  // first (a sanitizer under load) answers stop=timeout with a weaker
  // witnessed bound instead.
  AnalysisEngine engine{EngineConfig{}};
  const std::string line = service::render_response(engine.run(
      service::parse_request_line(
          "analyze kernel=complex-mul2 engine=ilp budget=20", 1)));
  const auto f = service::parse_fields(line);
  ASSERT_EQ(f.at("status"), "ok") << line;
  EXPECT_EQ(f.at("t1.proven"), "0") << line;
  EXPECT_LE(support::parse_ll(f.at("t1.rs"), "t1.rs"), 12) << line;
  if (f.at("stop") != "timeout") {
    EXPECT_EQ(f.at("stop"), "limit") << line;
    EXPECT_EQ(f.at("t1.rs"), "12") << line;
  }
}

TEST(Engine, StatsTrackLatencyPercentiles) {
  AnalysisEngine engine{EngineConfig{}};
  for (int i = 0; i < 4; ++i) {
    engine.run(service::parse_request_line("analyze kernel=lin-dscal", 1));
  }
  EXPECT_EQ(test::counter(engine.metrics(), "engine.completed"), 4u);
  const auto latency = engine.metrics().histograms().at("engine.latency_ms");
  EXPECT_GE(latency.p95, latency.p50);
  EXPECT_GE(latency.p99, latency.p95);
  EXPECT_GE(latency.max, latency.p99);
  EXPECT_GT(latency.max, 0.0);
}

// Per-op slices of a counter snapshot, summed for the tiling checks.
struct OpSums {
  std::uint64_t submitted = 0, hits = 0, misses = 0;
};
OpSums sum_per_op(const service::CounterSnapshot& c) {
  OpSums s;
  for (const std::string& name : service::counted_ops(c)) {
    s.submitted += c.at("op." + name + ".submitted");
    s.hits += c.at("op." + name + ".hits");
    s.misses += c.at("op." + name + ".misses");
  }
  return s;
}

// The engine.* buckets, for tiling-failure messages.
std::string buckets(const service::CounterSnapshot& c) {
  return std::to_string(c.at("engine.memory_hits")) + " + " +
         std::to_string(c.at("engine.disk_hits")) + " + " +
         std::to_string(c.at("engine.coalesced")) + " + " +
         std::to_string(c.at("engine.misses")) +
         " != " + std::to_string(c.at("engine.completed"));
}

TEST(Engine, CountersTileAcrossMixedWorkload) {
  const auto dir = std::filesystem::temp_directory_path() / "rs_tile_cache";
  std::filesystem::remove_all(dir);
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.cache_dir = dir.string();
  {
    // Populate the disk tier, then restart so its hits land as disk_hits.
    AnalysisEngine warmup(cfg);
    warmup.run(service::parse_request_line("analyze kernel=lin-ddot", 1));
  }
  AnalysisEngine engine(cfg);
  // Disk hit + memory hit on the same entry.
  engine.run(service::parse_request_line("analyze kernel=lin-ddot", 1));
  engine.run(service::parse_request_line("analyze kernel=lin-ddot", 2));
  // Misses across two operations, plus concurrent duplicates (coalesces).
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(engine.submit(
        service::parse_request_line("reduce kernel=fir8 limits=16,16", 10)));
  }
  for (auto& f : futs) f.get();
  // An error response must also land in exactly one bucket (a miss).
  engine.run(service::make_request(
      "reduce limits=4", ddg::build_kernel("fir8", ddg::superscalar_model())));
  engine.wait_idle();

  const service::CounterSnapshot c = engine.metrics().counters();
  EXPECT_EQ(c.at("engine.completed"), 9u);
  // Whether a duplicate coalesces or lands as a memory hit is a race
  // against the first solve; only the bucket *union* is deterministic.
  EXPECT_GE(c.at("engine.memory_hits"), 1u);
  EXPECT_EQ(c.at("engine.disk_hits"), 1u);
  EXPECT_EQ(c.at("engine.errors"), 1u);
  EXPECT_TRUE(service::counters_tile(c)) << buckets(c);
  // Per-op slices tile the aggregates: hits cover the store tiers and
  // coalesces, misses the computed solves, errors included.
  const OpSums sums = sum_per_op(c);
  EXPECT_EQ(sums.submitted, c.at("engine.completed"));
  EXPECT_EQ(sums.hits, c.at("engine.memory_hits") + c.at("engine.disk_hits") +
                           c.at("engine.coalesced"));
  EXPECT_EQ(sums.misses, c.at("engine.misses"));
  std::filesystem::remove_all(dir);
}

TEST(Engine, CountersTileAfterCancellations) {
  EngineConfig cfg;
  cfg.threads = 2;
  AnalysisEngine engine(cfg);
  // A slow solve plus a coalesced duplicate, both cancelled mid-flight:
  // the owner counts as a miss, the detached waiter as a coalesce, and
  // the buckets must still tile `completed`.
  Request slow = service::parse_request_line(
      "analyze kernel=liv-loop23 engine=exact budget=30", 1);
  auto f1 = engine.submit(Request(slow));
  auto f2 = engine.submit(Request(slow));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.cancel_all();
  f1.get();
  f2.get();
  engine.wait_idle();
  const service::CounterSnapshot c = engine.metrics().counters();
  EXPECT_EQ(c.at("engine.completed"), 2u);
  EXPECT_TRUE(service::counters_tile(c)) << buckets(c);
  const OpSums sums = sum_per_op(c);
  EXPECT_EQ(sums.submitted, c.at("engine.completed"));
  EXPECT_EQ(sums.hits + sums.misses, c.at("engine.completed"));
}

TEST(Protocol, ParsesStatsVerb) {
  const service::Command c = service::parse_command_line("stats", 1);
  EXPECT_EQ(c.kind, service::CommandKind::Stats);
  using support::PreconditionError;
  EXPECT_THROW(service::parse_command_line("stats now", 1),
               PreconditionError);
  EXPECT_THROW(service::parse_request_line("stats", 1), PreconditionError);
}

TEST(Protocol, StatsLineTilesAndKeepsSchemaStableColdVsWarm) {
  AnalysisEngine engine{EngineConfig{}};
  engine.run(service::parse_request_line("analyze kernel=lin-ddot", 1));
  engine.run(service::parse_request_line("reduce kernel=fir8 limits=16,16",
                                         2));
  const std::string cold = engine.stats_line();
  const auto cf = service::parse_fields(cold);
  EXPECT_EQ(cf.at(""), "stats");
  EXPECT_EQ(cf.at("submitted"), "2");
  EXPECT_EQ(cf.at("completed"), "2");
  EXPECT_EQ(cf.at("misses"), "2");
  EXPECT_EQ(cf.at("ops"), "2");
  EXPECT_EQ(cf.at("op.analyze.submitted"), "1");
  EXPECT_EQ(cf.at("op.reduce.submitted"), "1");
  // The tiling invariant holds on the rendered line itself.
  EXPECT_EQ(support::parse_ll(cf.at("memory_hits"), "k") +
                support::parse_ll(cf.at("disk_hits"), "k") +
                support::parse_ll(cf.at("coalesced"), "k") +
                support::parse_ll(cf.at("misses"), "k"),
            support::parse_ll(cf.at("completed"), "k"));

  // Warm pass: same operation mix, so the key schema must be byte-stable —
  // identical key sets, only values differ (the acceptance bar for
  // machine consumers diffing cold vs warm snapshots).
  engine.run(service::parse_request_line("analyze kernel=lin-ddot", 3));
  engine.run(service::parse_request_line("reduce kernel=fir8 limits=16,16",
                                         4));
  const auto wf =
      service::parse_fields(engine.stats_line());
  std::vector<std::string> cold_keys, warm_keys;
  for (const auto& [k, v] : cf) cold_keys.push_back(k);
  for (const auto& [k, v] : wf) warm_keys.push_back(k);
  EXPECT_EQ(cold_keys, warm_keys);
  EXPECT_EQ(wf.at("memory_hits"), "2");
  EXPECT_EQ(wf.at("op.analyze.hits"), "1");
}

// The whole `stats` line for a fixed single-threaded workload, cold then
// warm: every key and every value but the *_ms= latencies is pinned, so a
// change in how the line is assembled cannot move a byte of it. The
// workload spans a DDG op, a program op (which also registers
// op.globalrs.parallel_blocks) and an error payload (never cached, so it
// misses again when warm).
TEST(Protocol, StatsLineGoldenColdThenWarm) {
  EngineConfig cfg;
  cfg.threads = 1;
  AnalysisEngine engine(cfg);
  const std::vector<std::string> lines{
      "analyze kernel=lin-ddot", "reduce kernel=fir8 limits=16,16",
      "globalrs prog=diamond jobs=2", "reduce kernel=fir8 limits=4"};
  const auto run_all = [&] {
    std::uint64_t id = 1;
    for (const std::string& line : lines) {
      engine.run(service::parse_request_line(line, id++));
    }
  };
  // Every *_ms= value becomes '*': latencies are the only run-dependent
  // bytes of the line.
  const auto masked = [](const std::string& line) {
    std::istringstream in(line);
    std::string out;
    for (std::string tok; in >> tok;) {
      const std::size_t eq = tok.find("_ms=");
      if (eq != std::string::npos) tok.replace(eq + 4, std::string::npos, "*");
      out += (out.empty() ? "" : " ") + tok;
    }
    return out;
  };
  run_all();
  EXPECT_EQ(masked(engine.stats_line()),
            "stats submitted=4 completed=4 errors=1 memory_hits=0 disk_hits=0 "
            "coalesced=0 misses=4 cancelled=0 timed_out=0 queue_depth=0 "
            "hit_rate=0.000 entries=3 bytes=5517 disk=0 p50_ms=* p95_ms=* "
            "p99_ms=* max_ms=* ops=3 op.analyze.submitted=1 op.analyze.hits=0 "
            "op.analyze.misses=1 op.analyze.p50_ms=* op.globalrs.submitted=1 "
            "op.globalrs.hits=0 op.globalrs.misses=1 op.globalrs.p50_ms=* "
            "op.reduce.submitted=2 op.reduce.hits=0 op.reduce.misses=2 "
            "op.reduce.p50_ms=*");
  run_all();
  EXPECT_EQ(masked(engine.stats_line()),
            "stats submitted=8 completed=8 errors=2 memory_hits=3 disk_hits=0 "
            "coalesced=0 misses=5 cancelled=0 timed_out=0 queue_depth=0 "
            "hit_rate=0.375 entries=3 bytes=5517 disk=0 p50_ms=* p95_ms=* "
            "p99_ms=* max_ms=* ops=3 op.analyze.submitted=2 op.analyze.hits=1 "
            "op.analyze.misses=1 op.analyze.p50_ms=* op.globalrs.submitted=2 "
            "op.globalrs.hits=1 op.globalrs.misses=1 op.globalrs.p50_ms=* "
            "op.reduce.submitted=4 op.reduce.hits=1 op.reduce.misses=3 "
            "op.reduce.p50_ms=*");
}

// ---------------------------------------------------------------------------
// cancellation / drain / budgets

TEST(Protocol, ParsesCancelAndDrainVerbs) {
  const service::Command c1 = service::parse_command_line("cancel 7", 1);
  EXPECT_EQ(c1.kind, service::CommandKind::Cancel);
  EXPECT_EQ(c1.cancel_id, 7u);
  const service::Command c2 = service::parse_command_line("cancel id=42", 1);
  EXPECT_EQ(c2.kind, service::CommandKind::Cancel);
  EXPECT_EQ(c2.cancel_id, 42u);
  const service::Command c3 = service::parse_command_line("drain", 1);
  EXPECT_EQ(c3.kind, service::CommandKind::Drain);
  // Submissions pass through unchanged.
  const service::Command c4 =
      service::parse_command_line("analyze kernel=lin-ddot", 9);
  EXPECT_EQ(c4.kind, service::CommandKind::Submit);
  EXPECT_EQ(c4.request.id, 9u);

  using support::PreconditionError;
  EXPECT_THROW(service::parse_command_line("cancel", 1), PreconditionError);
  EXPECT_THROW(service::parse_command_line("cancel x", 1), PreconditionError);
  EXPECT_THROW(service::parse_command_line("cancel 1 2", 1),
               PreconditionError);
  EXPECT_THROW(service::parse_command_line("drain now", 1),
               PreconditionError);
  // The request-only parser rejects control verbs outright.
  EXPECT_THROW(service::parse_request_line("cancel 7", 1), PreconditionError);
  EXPECT_THROW(service::parse_request_line("drain", 1), PreconditionError);

  EXPECT_EQ(service::render_cancel_ack(7, true), "cancelled id=7 found=1");
  EXPECT_EQ(service::render_cancel_ack(9, false), "cancelled id=9 found=0");
  EXPECT_EQ(service::render_drain_ack(), "drained");
}

TEST(Protocol, ResultLineCarriesStopCauseAndNodes) {
  AnalysisEngine engine{EngineConfig{}};
  const Response resp =
      engine.run(service::parse_request_line("analyze kernel=lin-ddot", 5));
  const auto fields = service::parse_fields(service::render_response(resp));
  EXPECT_EQ(fields.at("stop"), "proven");
  ASSERT_TRUE(fields.count("nodes"));
  EXPECT_EQ(fields.at("nodes"),
            std::to_string(resp.payload->stats.nodes));
}

// A DDG whose exact RS search reliably runs for many seconds unbudgeted
// (dense layered pipeline: huge killing-function space), so a cancel issued
// immediately after submission is guaranteed to land mid-flight.
Ddg slow_instance(std::uint64_t seed) {
  support::Rng rng(seed);
  ddg::LayeredDagParams p;
  p.layers = 6;
  p.min_width = 4;
  p.max_width = 6;
  p.edge_prob = 0.8;
  return ddg::random_layered(rng, ddg::superscalar_model(), p);
}

Request slow_analyze(std::uint64_t id, std::uint64_t seed) {
  Request req = service::make_request("analyze", slow_instance(seed));
  req.id = id;
  return req;
}

TEST(Engine, CancelAbortsInFlightSolveAndSkipsCache) {
  EngineConfig cfg;
  cfg.threads = 1;
  AnalysisEngine engine(cfg);
  auto fut = engine.submit(slow_analyze(7, 11));
  ASSERT_TRUE(engine.cancel(7));
  const Response resp = fut.get();
  ASSERT_TRUE(resp.payload->ok);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_EQ(resp.payload->stats.stop, support::StopCause::Cancelled);
  // The pressured (many-value) type cannot have been proven; value-free
  // types are trivially proven even under cancellation.
  const service::OpData& d = *resp.payload->data;
  for (std::size_t t = 0; t < d.rows(); ++t) {
    if (d.cell(t, "vals") >= 10) {
      EXPECT_EQ(d.cell(t, "proven"), 0);
    }
  }

  // Not cached: an identical request must recompute (cancel it too).
  auto fut2 = engine.submit(slow_analyze(8, 11));
  ASSERT_TRUE(engine.cancel(8));
  const Response r2 = fut2.get();
  EXPECT_FALSE(r2.cache_hit) << "cancelled results must not be cached";
  EXPECT_EQ(r2.payload->stats.stop, support::StopCause::Cancelled);

  EXPECT_EQ(test::counter(engine.metrics(), "engine.cancelled"), 2u);
  EXPECT_EQ(engine.store().resident().entries, 0u);
  // Completed requests are no longer cancellable.
  EXPECT_FALSE(engine.cancel(7));
}

TEST(Engine, DrainCancelsQueuedButFinishesRunning) {
  EngineConfig cfg;
  cfg.threads = 1;
  AnalysisEngine engine(cfg);
  // First request: a one-second budget, so the running solve drains as a
  // timeout. The queued ones behind it are cancelled by drain(). The sleep
  // lets the single worker actually *start* the first request (drain only
  // spares started flights); its solve runs far past one second unbudgeted,
  // so it is still in flight when drain() is called.
  Request first = slow_analyze(1, 21);
  first.budget_seconds = 1.0;
  auto f1 = engine.submit(std::move(first));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto f2 = engine.submit(slow_analyze(2, 22));
  auto f3 = engine.submit(slow_analyze(3, 23));
  engine.drain();
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  const Response r3 = f3.get();
  EXPECT_EQ(r1.payload->stats.stop, support::StopCause::TimedOut);
  EXPECT_EQ(r2.payload->stats.stop, support::StopCause::Cancelled);
  EXPECT_EQ(r3.payload->stats.stop, support::StopCause::Cancelled);
  const service::CounterSnapshot c = engine.metrics().counters();
  EXPECT_EQ(c.at("engine.completed"), 3u);
  EXPECT_EQ(c.at("engine.cancelled"), 2u);
  EXPECT_EQ(c.at("engine.timed_out"), 1u);
}

TEST(Engine, CancelReleasesCoalescedWaiter) {
  EngineConfig cfg;
  cfg.threads = 2;
  AnalysisEngine engine(cfg);
  auto f1 = engine.submit(slow_analyze(1, 41));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Identical DDG + options: coalesces onto request 1's in-flight solve.
  auto f2 = engine.submit(slow_analyze(2, 41));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(engine.cancel(2));
  // The waiter detaches promptly with a Cancelled payload instead of
  // riding the owner's (still running) solve to completion.
  const Response r2 = f2.get();
  EXPECT_EQ(r2.payload->stats.stop, support::StopCause::Cancelled);
  ASSERT_TRUE(engine.cancel(1));
  const Response r1 = f1.get();
  EXPECT_EQ(r1.payload->stats.stop, support::StopCause::Cancelled);
  EXPECT_EQ(test::counter(engine.metrics(), "engine.cancelled"), 2u);
}

TEST(Engine, TimedOutSolveReportsTimeoutAndIsCached) {
  AnalysisEngine engine{EngineConfig{}};
  Request req = slow_analyze(1, 31);
  req.budget_seconds = 1e-9;
  const Response r1 = engine.run(Request(req));
  ASSERT_TRUE(r1.payload->ok);
  EXPECT_EQ(r1.payload->stats.stop, support::StopCause::TimedOut);
  const service::OpData& d = *r1.payload->data;
  for (std::size_t t = 0; t < d.rows(); ++t) {
    if (d.cell(t, "vals") > 0) {
      EXPECT_EQ(d.cell(t, "proven"), 0);
    }
  }
  // Same budget, same DDG: a deterministic "best effort within budget"
  // answer, so it is served from the cache.
  const Response r2 = engine.run(Request(req));
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(test::counter(engine.metrics(), "engine.timed_out"), 1u);
}

}  // namespace
}  // namespace rs
