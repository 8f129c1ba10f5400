// The operation-registry contract, asserted for *every* registered
// operation — present and future: protocol parse → run → render
// round-trips, payload encode → decode → encode byte-identity through the
// DiskStore, cache hits across renumbered isomorphic DDGs, and the
// acceptance bar that a brand-new operation (defined entirely inside this
// test) flows through protocol, engine, store and codec with no edits to
// any service layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "cfg/generators.hpp"
#include "cfg/io.hpp"
#include "ddg/canon.hpp"
#include "ddg/io.hpp"
#include "ddg/kernels.hpp"
#include "service/codec.hpp"
#include "service/engine.hpp"
#include "service/operation.hpp"
#include "service/ops/analyze.hpp"
#include "service/ops/minreg.hpp"
#include "service/ops/reduce.hpp"
#include "service/ops/schedule.hpp"
#include "service/ops/spill.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "support/assert.hpp"
#include "support/fs.hpp"

#include "test_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace rs {
namespace {

using service::AnalysisEngine;
using service::EngineConfig;
using service::Operation;
using service::Request;
using service::Response;
using service::ResultPayload;
using service::StoreTier;

std::string fresh_dir(const std::string& name) {
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const auto p = std::filesystem::temp_directory_path() /
                 ("rs_ops_" + name + "_" + std::to_string(pid));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------------------
// registry basics

TEST(OperationRegistry, BuiltinsAreRegisteredUniquely) {
  const auto& ops = service::operations();
  ASSERT_GE(ops.size(), 7u);
  for (const char* name : {"analyze", "reduce", "minreg", "spill",
                           "schedule", "globalrs", "globalreduce"}) {
    const Operation* op = service::find_operation(name);
    ASSERT_NE(op, nullptr) << name;
    EXPECT_EQ(op->name(), name);
  }
  // Grandfathered tags keep pre-registry cache keys addressable.
  EXPECT_EQ(service::find_operation("analyze")->digest_tag(), 0u);
  EXPECT_EQ(service::find_operation("reduce")->digest_tag(), 1u);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      EXPECT_NE(ops[i]->name(), ops[j]->name());
      EXPECT_NE(ops[i]->digest_tag(), ops[j]->digest_tag());
    }
  }
  EXPECT_EQ(service::find_operation("frobnicate"), nullptr);
  EXPECT_NE(service::operation_names("|").find("minreg"), std::string::npos);
}

TEST(OperationRegistry, DuplicateRegistrationIsRejected) {
  EXPECT_THROW(
      service::register_operation(&service::analyze_operation()),
      support::PreconditionError);
}

// ---------------------------------------------------------------------------
// the registry contract, for every registered operation

TEST(OperationContract, ParseRunRenderRoundTripsForEveryOperation) {
  for (const Operation* op : service::operations()) {
    const std::string line = test::request_line(*op);
    AnalysisEngine engine{EngineConfig{}};
    const Response resp = engine.run(service::parse_request_line(line, 7));
    ASSERT_TRUE(resp.payload->ok) << line << ": " << resp.payload->error;
    EXPECT_EQ(resp.payload->op, op);
    const std::string rendered = service::render_response(resp);
    const auto fields = service::parse_fields(rendered);
    EXPECT_EQ(fields.at(""), "result") << line;
    EXPECT_EQ(fields.at("id"), "7") << line;
    EXPECT_EQ(fields.at("status"), "ok") << line;
    EXPECT_EQ(fields.at("kind"), std::string(op->name())) << line;
    EXPECT_EQ(fields.at("name"), test::request_line_name(*op)) << line;
    EXPECT_EQ(fields.at("fp"), resp.fingerprint.hex()) << line;
    ASSERT_TRUE(fields.count("stop")) << line;
    ASSERT_TRUE(fields.count("nodes")) << line;
    // Unknown options are rejected per operation, not globally.
    EXPECT_THROW(service::parse_request_line(
                     line + " definitely_not_an_option=1", 1),
                 support::PreconditionError)
        << line;
  }
}

TEST(OperationContract, PayloadsRoundTripThroughCodecAndDiskByteIdentically) {
  for (const Operation* op : service::operations()) {
    const std::string line = test::request_line(*op);
    AnalysisEngine engine{EngineConfig{}};
    const Response resp = engine.run(service::parse_request_line(line, 1));
    ASSERT_TRUE(resp.payload->ok) << line;

    // encode -> decode -> encode is byte-identical...
    const std::string encoded = service::encode_payload(*resp.payload);
    const auto decoded = service::decode_payload(encoded);
    ASSERT_NE(decoded, nullptr) << line;
    EXPECT_EQ(service::encode_payload(*decoded), encoded) << line;
    // ...and the decoded payload renders byte-identically, ddg included.
    EXPECT_EQ(service::render_payload_fields(*decoded, true),
              service::render_payload_fields(*resp.payload, true))
        << line;

    // The same bytes ride the DiskStore: put, re-read, compare.
    service::DiskStore store(
        service::DiskStore::Config{fresh_dir(std::string(op->name()))});
    const service::CacheKey key{0x1234, 0x5678};
    store.put(key, *resp.payload);
    const service::StoreHit hit = store.get(key);
    ASSERT_NE(hit.payload, nullptr) << line;
    EXPECT_EQ(hit.tier, StoreTier::Disk);
    EXPECT_EQ(service::encode_payload(*hit.payload), encoded) << line;
  }
}

TEST(OperationContract, ColdWarmAndDiskRestartLinesMatchForEveryOperation) {
  for (const Operation* op : service::operations()) {
    const std::string dir = fresh_dir("restart_" + std::string(op->name()));
    EngineConfig cfg;
    cfg.cache_dir = dir;
    const std::string line = test::request_line(*op) + " id=3";
    std::string cold, warm, restart;
    {
      AnalysisEngine engine(cfg);
      const Response r1 = engine.run(service::parse_request_line(line, 3));
      ASSERT_TRUE(r1.payload->ok) << line << ": " << r1.payload->error;
      EXPECT_FALSE(r1.cache_hit);
      cold = service::render_response(r1);
      const Response r2 = engine.run(service::parse_request_line(line, 3));
      EXPECT_TRUE(r2.cache_hit) << line;
      EXPECT_EQ(r2.tier, StoreTier::Memory) << line;
      warm = service::render_response(r2);
    }
    AnalysisEngine engine(cfg);  // fresh memory tier: disk must serve
    const Response r3 = engine.run(service::parse_request_line(line, 3));
    EXPECT_TRUE(r3.cache_hit) << line;
    EXPECT_EQ(r3.tier, StoreTier::Disk) << line;
    restart = service::render_response(r3);
    EXPECT_EQ(test::strip_delivery(cold), test::strip_delivery(warm)) << line;
    EXPECT_EQ(test::strip_delivery(cold), test::strip_delivery(restart)) << line;
  }
}

TEST(OperationContract, RenumberedIsomorphicInputHitsCacheForEveryOperation) {
  for (const Operation* op : service::operations()) {
    AnalysisEngine engine{EngineConfig{}};
    Request req = service::parse_request_line(test::request_line(*op), 1);
    Request perm = req;  // same operation + options...
    if (op->payload_kind() == service::PayloadKind::Program) {
      // Program payloads: blocks reordered, blocks and values renamed.
      perm.program =
          std::make_shared<cfg::Cfg>(test::permuted_program(*req.program));
    } else {
      perm.ddg = test::permuted_copy(
          req.ddg, test::reversed_order(req.ddg), /*rename=*/true);
    }
    perm.name = "permuted";
    const Response first = engine.run(std::move(req));
    ASSERT_TRUE(first.payload->ok) << op->name();
    const Response second = engine.run(std::move(perm));
    EXPECT_TRUE(second.cache_hit) << op->name();
    EXPECT_EQ(second.fingerprint, first.fingerprint) << op->name();
    EXPECT_EQ(second.payload, first.payload)
        << op->name() << ": hit must share the payload";
    // Identical result lines modulo the requester's own display name.
    auto a = service::parse_fields(service::render_response(first));
    auto b = service::parse_fields(service::render_response(second));
    for (auto* f : {&a, &b}) {
      f->erase("cached"), f->erase("ms"), f->erase("name");
    }
    EXPECT_EQ(a, b) << op->name();
  }
}

TEST(OperationContract, PortfolioEngineIsAnAliasOfExact) {
  // engine=portfolio is accepted for compatibility and must be the exact
  // engine under another spelling: same result fields (real nodes=
  // included) and the same cache key, so the second request is a hit.
  int covered = 0;
  for (const Operation* op : service::operations()) {
    if (!op->accepts_option("engine")) continue;
    ++covered;
    AnalysisEngine engine{EngineConfig{}};
    const std::string line = test::request_line(*op);
    const Response exact =
        engine.run(service::parse_request_line(line + " engine=exact id=1", 1));
    ASSERT_TRUE(exact.payload->ok) << line << ": " << exact.payload->error;
    const Response alias = engine.run(
        service::parse_request_line(line + " engine=portfolio id=2", 2));
    EXPECT_TRUE(alias.cache_hit) << line;
    auto a = service::parse_fields(service::render_response(exact));
    auto b = service::parse_fields(service::render_response(alias));
    for (auto* f : {&a, &b}) {
      f->erase("id"), f->erase("ms"), f->erase("cached");
    }
    EXPECT_EQ(a, b) << line;
  }
  // analyze, reduce, minreg, globalrs, globalreduce.
  EXPECT_EQ(covered, 5);
}

// ---------------------------------------------------------------------------
// program payloads

TEST(ProgramPayload, PayloadKindMismatchesAreRejected) {
  // A program op fed a DDG payload (and vice versa) must fail at parse
  // time, not silently fingerprint the wrong input.
  EXPECT_THROW(service::parse_request_line("globalrs kernel=fir8", 1),
               support::PreconditionError);
  EXPECT_THROW(service::parse_request_line("globalreduce kernel=fir8 "
                                           "limits=6,6", 1),
               support::PreconditionError);
  EXPECT_THROW(service::parse_request_line("analyze prog=diamond", 1),
               support::PreconditionError);
  EXPECT_THROW(service::parse_request_line("globalrs prog=nope", 1),
               support::PreconditionError);
  // model= now applies to program payloads; still not to file=<x>.ddg.
  EXPECT_NO_THROW(service::parse_request_line(
      "globalrs prog=diamond model=vliw", 1));
  EXPECT_THROW(service::parse_request_line("analyze file=x.ddg model=vliw", 1),
               support::PreconditionError);
}

TEST(ProgramPayload, MachineModelSplitsTheFingerprint) {
  // The .prog format carries no latencies — the machine model does — so
  // the same program under superscalar and VLIW models must not share a
  // cache entry.
  AnalysisEngine engine{EngineConfig{}};
  const Response ss = engine.run(
      service::parse_request_line("globalrs prog=diamond", 1));
  const Response vliw = engine.run(
      service::parse_request_line("globalrs prog=diamond model=vliw", 2));
  ASSERT_TRUE(ss.payload->ok);
  ASSERT_TRUE(vliw.payload->ok);
  EXPECT_NE(ss.fingerprint, vliw.fingerprint);
  EXPECT_FALSE(vliw.cache_hit);
}

TEST(ProgramPayload, FileProgPayloadMatchesProgKernel) {
  // file=<x>.prog goes through cfg::io and must fingerprint (and answer)
  // identically to the built-in kernel it was dumped from.
  const std::string dir = fresh_dir("progfile");
  const std::string path = dir + "/diamond.prog";
  {
    std::ofstream out(path);
    out << cfg::to_text(cfg::build_program("diamond",
                                           ddg::superscalar_model()));
  }
  AnalysisEngine engine{EngineConfig{}};
  const Response a = engine.run(
      service::parse_request_line("globalrs prog=diamond", 1));
  const Response b = engine.run(
      service::parse_request_line("globalrs file=" + path, 2));
  ASSERT_TRUE(a.payload->ok) << a.payload->error;
  ASSERT_TRUE(b.payload->ok) << b.payload->error;
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(b.payload, a.payload);
}

// ---------------------------------------------------------------------------
// per-operation engine metrics

TEST(EngineCounters, PerOperationBreakdownCountsHitsAndMisses) {
  AnalysisEngine engine{EngineConfig{}};
  engine.run(service::parse_request_line("analyze kernel=fir8", 1));
  engine.run(service::parse_request_line("analyze kernel=fir8", 2));
  engine.run(service::parse_request_line("analyze kernel=lin-ddot", 3));
  engine.run(service::parse_request_line("globalrs prog=diamond", 4));
  const service::CounterSnapshot st = engine.metrics().counters();
  const std::vector<std::string> ops = service::counted_ops(st);
  const auto has = [&](const std::string& name) {
    return std::find(ops.begin(), ops.end(), name) != ops.end();
  };
  ASSERT_TRUE(has("analyze"));
  ASSERT_TRUE(has("globalrs"));
  EXPECT_FALSE(has("reduce"));  // never exercised
  EXPECT_EQ(st.at("op.analyze.submitted"), 3u);
  EXPECT_EQ(st.at("op.analyze.hits"), 1u);
  EXPECT_EQ(st.at("op.analyze.misses"), 2u);
  EXPECT_GE(engine.metrics().histograms().at("op.analyze.ms").p50, 0.0);
  EXPECT_EQ(st.at("op.globalrs.submitted"), 1u);
  EXPECT_EQ(st.at("op.globalrs.misses"), 1u);
  // An error-producing compute counts as a miss in both the aggregate and
  // the per-op slice (wrong limit count -> run() throws -> error payload).
  const Response err = engine.run(service::parse_request_line(
      "globalreduce prog=diamond limits=1,1,1", 5));
  ASSERT_FALSE(err.payload->ok);
  EXPECT_FALSE(has("globalreduce"));  // pre-error snapshot
  // The per-op slices tile the aggregate counters, error payloads
  // included.
  const service::CounterSnapshot after = engine.metrics().counters();
  EXPECT_EQ(after.at("op.globalreduce.misses"), 1u);
  std::uint64_t submitted = 0, hits = 0, misses = 0;
  for (const std::string& name : service::counted_ops(after)) {
    submitted += after.at("op." + name + ".submitted");
    hits += after.at("op." + name + ".hits");
    misses += after.at("op." + name + ".misses");
  }
  EXPECT_EQ(submitted, after.at("engine.submitted"));
  EXPECT_EQ(hits, after.at("engine.memory_hits") +
                      after.at("engine.disk_hits") +
                      after.at("engine.coalesced"));
  EXPECT_EQ(misses, after.at("engine.misses"));
}

// ---------------------------------------------------------------------------
// extensibility: a new operation defined *here* flows through every layer

/// Counts operations per op class — no solver, no options. Exists to prove
/// the acceptance criterion: a new operation needs only its own definition
/// and a register_operation() call; engine/store/serve are untouched.
struct OpCountData : service::OpData {
  int ops = 0;
  int arcs = 0;
};

class OpCountOperation final : public Operation {
 public:
  std::string_view name() const override { return "opcount"; }
  std::uint64_t digest_tag() const override { return 0x7e57; }
  std::string_view synopsis() const override { return ""; }
  std::string_view example_options() const override { return ""; }
  bool accepts_option(std::string_view) const override { return false; }
  void parse_options(const std::map<std::string, std::string>&,
                     Request*) const override {}
  void digest_options(const Request&, service::OptionDigest*) const override {}

  void run(const Request&, const ddg::Ddg& normalized, const service::RunEnv&,
           const support::SolveContext&, ResultPayload* out) const override {
    auto data = std::make_shared<OpCountData>();
    data->ops = normalized.op_count();
    data->arcs = normalized.graph().edge_count();
    out->data = std::move(data);
  }

  void encode_payload_fields(const ResultPayload& p,
                             std::ostream& os) const override {
    const auto& d = dynamic_cast<const OpCountData&>(*p.data);
    os << " oc.ops=" << d.ops << " oc.arcs=" << d.arcs;
  }

  bool decode_payload_fields(const std::map<std::string, std::string>& fields,
                             ResultPayload* out) const override {
    auto data = std::make_shared<OpCountData>();
    data->ops = static_cast<int>(service::require_ll(fields, "oc.ops"));
    data->arcs = static_cast<int>(service::require_ll(fields, "oc.arcs"));
    out->data = std::move(data);
    return true;
  }

  void render_result_fields(const ResultPayload& p,
                            std::ostream& os) const override {
    const auto& d = dynamic_cast<const OpCountData&>(*p.data);
    os << " ops=" << d.ops << " arcs=" << d.arcs;
  }
};

TEST(OperationRegistry, NewOperationServesEndToEndWithoutServiceEdits) {
  // Once registered, opcount joins the roster the OperationContract sweeps
  // iterate — so the extension is held to the same contract as the
  // built-ins for the rest of this process.
  static const OpCountOperation op;
  // Idempotent under --gtest_repeat: the registry is process-global.
  if (service::find_operation("opcount") == nullptr) {
    service::register_operation(&op);
  }
  ASSERT_EQ(service::find_operation("opcount"), &op);

  const std::string dir = fresh_dir("opcount");
  EngineConfig cfg;
  cfg.cache_dir = dir;
  std::string cold;
  {
    AnalysisEngine engine(cfg);
    const Response r = engine.run(
        service::parse_request_line("opcount kernel=fir8 id=9", 9));
    ASSERT_TRUE(r.payload->ok) << r.payload->error;
    cold = service::render_response(r);
    const auto fields = service::parse_fields(cold);
    EXPECT_EQ(fields.at("kind"), "opcount");
    const int want_ops = ddg::build_kernel("fir8", ddg::superscalar_model())
                             .normalized()
                             .op_count();
    EXPECT_EQ(fields.at("ops"), std::to_string(want_ops));
    EXPECT_TRUE(fields.count("arcs"));
  }
  // Disk restart serves the new op's payload through the shared codec.
  AnalysisEngine engine(cfg);
  const Response r = engine.run(
      service::parse_request_line("opcount kernel=fir8 id=9", 9));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.tier, StoreTier::Disk);
  EXPECT_EQ(test::strip_delivery(cold),
            test::strip_delivery(service::render_response(r)));
}

}  // namespace
}  // namespace rs
