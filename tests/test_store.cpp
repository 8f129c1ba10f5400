// The tiered result-store spine: the versioned payload codec, DiskStore
// robustness (corruption and version skew must read as misses, never
// crashes or poisoned payloads), TieredStore promotion, and the engine-level
// acceptance bar — result lines byte-identical whether a request is served
// cold (computed), warm (MemoryStore), or after a cold restart (DiskStore).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ddg/generators.hpp"
#include "ddg/kernels.hpp"
#include "service/codec.hpp"
#include "service/engine.hpp"
#include "service/ops/analyze.hpp"
#include "service/ops/reduce.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "support/fs.hpp"
#include "support/random.hpp"

#include "test_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace rs {
namespace {

using service::AnalysisEngine;
using service::CacheKey;
using service::DiskStore;
using service::EngineConfig;
using service::MemoryStore;
using service::Request;
using service::Response;
using service::ResultPayload;
using service::StoreTier;
using service::TieredStore;
using service::TypeAnalysis;
using service::TypeReduce;

/// Fresh per-test scratch directory under the system temp dir.
std::string fresh_dir(const std::string& name) {
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const auto p = std::filesystem::temp_directory_path() /
                 ("rs_store_" + name + "_" + std::to_string(pid));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

ResultPayload sample_analyze_payload() {
  ResultPayload p;
  p.op = &service::analyze_operation();
  auto data = std::make_shared<service::AnalyzeData>();
  data->per_type.push_back(TypeAnalysis{0, 12, 5, true});
  data->per_type.push_back(TypeAnalysis{1, 3, 2, false});
  p.data = std::move(data);
  p.stats.nodes = 123;
  p.stats.prunes = 45;
  p.stats.simplex_iterations = 6;
  p.stats.refine_passes = 7;
  p.stats.solves = 8;
  p.stats.stop = support::StopCause::LimitHit;
  return p;
}

ResultPayload sample_reduce_payload() {
  ResultPayload p;
  p.op = &service::reduce_operation();
  p.success = false;
  auto data = std::make_shared<service::ReduceData>();
  data->per_type.push_back(
      TypeReduce{0, core::ReduceStatus::Reduced, 4, 3, 12});
  data->per_type.push_back(
      TypeReduce{1, core::ReduceStatus::SpillNeeded, 9, 0, 0});
  p.data = std::move(data);
  p.out_ddg = "ddg x types=2\nop a class=ialu lat=1 dr=0 dw=0\n";
  p.error = "type 1 above limit";
  p.stats.nodes = 9;
  p.stats.stop = support::StopCause::Proven;
  return p;
}

void expect_payload_eq(const ResultPayload& a, const ResultPayload& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.out_ddg, b.out_ddg);
  // Stats and op data compared through the codec: encode is deterministic
  // and total over every field the renderer reads, so identical encodings
  // (and renderings) mean identical payloads.
  EXPECT_EQ(service::encode_payload(a), service::encode_payload(b));
  EXPECT_EQ(service::render_payload_fields(a, true),
            service::render_payload_fields(b, true));
}

// ---------------------------------------------------------------------------
// codec

TEST(Codec, AnalyzePayloadRoundTripsExactly) {
  const ResultPayload p = sample_analyze_payload();
  const std::string text = service::encode_payload(p);
  EXPECT_EQ(text.front(), 'r');  // self-describing header
  EXPECT_NE(text.find("v=1"), std::string::npos);
  const auto back = service::decode_payload(text);
  ASSERT_NE(back, nullptr);
  expect_payload_eq(*back, p);
  // The shared renderer sees no difference, so wire lines cannot either.
  EXPECT_EQ(service::render_payload_fields(*back, true),
            service::render_payload_fields(p, true));
}

TEST(Codec, ReducePayloadRoundTripsExactly) {
  const ResultPayload p = sample_reduce_payload();
  const auto back = service::decode_payload(service::encode_payload(p));
  ASSERT_NE(back, nullptr);
  expect_payload_eq(*back, p);
  EXPECT_EQ(service::render_payload_fields(*back, true),
            service::render_payload_fields(p, true));
}

TEST(Codec, VersionMismatchDecodesToNull) {
  std::string text = service::encode_payload(sample_analyze_payload());
  const std::size_t pos = text.find("v=1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "v=2");
  EXPECT_EQ(service::decode_payload(text), nullptr);
  EXPECT_EQ(service::decode_payload("not an rsres entry at all"), nullptr);
  EXPECT_EQ(service::decode_payload(""), nullptr);
}

TEST(Codec, TruncationAndCorruptionDecodeToNull) {
  const std::string text =
      service::encode_payload(sample_reduce_payload());
  // Every strict prefix is either an incomplete token stream or is missing
  // a declared entry: never a payload, never a crash.
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{5}, text.size() / 4, text.size() / 2,
        text.size() - 10}) {
    EXPECT_EQ(service::decode_payload(text.substr(0, len)), nullptr)
        << "prefix length " << len;
  }
  // Malformed numbers and bad escapes are corruption, not exceptions.
  EXPECT_EQ(service::decode_payload(
                "rsres v=1 ok=1 kind=analyze success=1 stop=proven nodes=zap "
                "prunes=0 simplex=0 refine=0 solves=0 na=0 nr=0\n"),
            nullptr);
  EXPECT_EQ(service::decode_payload(
                "rsres v=1 ok=1 kind=analyze success=1 stop=proven nodes=1 "
                "prunes=0 simplex=0 refine=0 solves=0 na=0 nr=0 ddg=%Z\n"),
            nullptr);
  // Entry-count mismatch: na declares more entries than are present.
  EXPECT_EQ(service::decode_payload(
                "rsres v=1 ok=1 kind=analyze success=1 stop=proven nodes=1 "
                "prunes=0 simplex=0 refine=0 solves=0 na=2 a0=0:1:1:1 nr=0\n"),
            nullptr);
}

TEST(Codec, UnknownKeysAreSkippedForwardCompatibly) {
  // A newer same-version writer may append fields; this reader must ignore
  // them and still reconstruct the payload it understands — that is the
  // forward-compatibility half of the "never a poisoned payload" contract
  // (incompatible changes bump v= and read as a miss instead).
  const ResultPayload p = sample_analyze_payload();
  std::string text = service::encode_payload(p);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  text += " zfuture=hint zextra=42\n";
  const auto back = service::decode_payload(text);
  ASSERT_NE(back, nullptr);
  expect_payload_eq(*back, p);
  // ...but an unknown key with a *malformed* value is still corruption.
  std::string bad = service::encode_payload(p);
  bad.pop_back();
  bad += " zfuture=%G\n";
  EXPECT_EQ(service::decode_payload(bad), nullptr);
}

// ---------------------------------------------------------------------------
// DiskStore

std::shared_ptr<const ResultPayload> shared_payload(const ResultPayload& p) {
  return std::make_shared<ResultPayload>(p);
}

TEST(DiskStoreTest, PutGetRoundTripAndSharding) {
  support::MetricsRegistry metrics;
  DiskStore store(DiskStore::Config{fresh_dir("roundtrip")}, &metrics);
  const CacheKey key{0xabcdef0011223344ULL, 0x5566778899aabbccULL};
  const std::string path = store.entry_path(key);
  // Fan-out: <dir>/<first two hex chars>/<hex>.rsres.
  EXPECT_NE(path.find("/ab/"), std::string::npos);
  EXPECT_NE(path.find(key.hex() + ".rsres"), std::string::npos);

  EXPECT_EQ(store.get(key).payload, nullptr);
  store.put(key, sample_reduce_payload());
  const auto hit = store.get(key);
  ASSERT_NE(hit.payload, nullptr);
  EXPECT_EQ(hit.tier, StoreTier::Disk);
  expect_payload_eq(*hit.payload, sample_reduce_payload());
  EXPECT_EQ(test::counter(metrics, "store.disk.hits"), 1u);
  EXPECT_EQ(test::counter(metrics, "store.disk.misses"), 1u);
  EXPECT_EQ(test::counter(metrics, "store.disk.insertions"), 1u);
  EXPECT_EQ(test::counter(metrics, "store.disk.corrupt"), 0u);
}

TEST(DiskStoreTest, TruncatedEntryReadsAsMiss) {
  support::MetricsRegistry metrics;
  DiskStore store(DiskStore::Config{fresh_dir("truncated")}, &metrics);
  const CacheKey key{1, 2};
  store.put(key, sample_analyze_payload());
  ASSERT_NE(store.get(key).payload, nullptr);

  std::string text;
  ASSERT_TRUE(support::read_file_to_string(store.entry_path(key), &text));
  std::ofstream(store.entry_path(key), std::ios::trunc)
      << text.substr(0, text.size() / 2);
  EXPECT_EQ(store.get(key).payload, nullptr);
  EXPECT_GE(test::counter(metrics, "store.disk.corrupt"), 1u);

  // Overwriting the truncated entry heals it.
  store.put(key, sample_analyze_payload());
  EXPECT_NE(store.get(key).payload, nullptr);
}

TEST(DiskStoreTest, WrongVersionHeaderReadsAsMiss) {
  support::MetricsRegistry metrics;
  DiskStore store(DiskStore::Config{fresh_dir("version")}, &metrics);
  const CacheKey key{3, 4};
  store.put(key, sample_analyze_payload());
  std::string text;
  ASSERT_TRUE(support::read_file_to_string(store.entry_path(key), &text));
  const std::size_t pos = text.find("v=1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "v=9");
  ASSERT_TRUE(support::write_file_atomic(store.entry_path(key), text));
  EXPECT_EQ(store.get(key).payload, nullptr);
  EXPECT_GE(test::counter(metrics, "store.disk.corrupt"), 1u);
}

TEST(DiskStoreTest, UnknownTrailingKeysNeverPoisonThePayload) {
  DiskStore store(DiskStore::Config{fresh_dir("unknown")});
  const CacheKey key{5, 6};
  const ResultPayload p = sample_analyze_payload();
  store.put(key, p);
  std::string text;
  ASSERT_TRUE(support::read_file_to_string(store.entry_path(key), &text));
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  text += " zfuture=1\n";
  ASSERT_TRUE(support::write_file_atomic(store.entry_path(key), text));
  // Well-formed unknown keys are skipped (forward compatibility); the
  // decoded payload must be exactly the one written, never a hybrid.
  const auto hit = store.get(key);
  ASSERT_NE(hit.payload, nullptr);
  expect_payload_eq(*hit.payload, p);

  // Unknown trailing *garbage* (malformed token) is corruption: a miss.
  text.pop_back();
  text += " %%broken\n";
  ASSERT_TRUE(support::write_file_atomic(store.entry_path(key), text));
  EXPECT_EQ(store.get(key).payload, nullptr);
}

TEST(DiskStoreTest, GarbageAndBinaryEntriesReadAsMiss) {
  DiskStore store(DiskStore::Config{fresh_dir("garbage")});
  const CacheKey key{7, 8};
  store.put(key, sample_analyze_payload());
  std::ofstream(store.entry_path(key), std::ios::trunc | std::ios::binary)
      << std::string("\x00\xff\x7f garbage\n\n more", 18);
  EXPECT_EQ(store.get(key).payload, nullptr);
}

// ---------------------------------------------------------------------------
// TieredStore

TEST(TieredStoreTest, DiskHitPromotesIntoMemory) {
  const std::string dir = fresh_dir("promote");
  const CacheKey key{11, 22};
  {
    TieredStore first(std::make_unique<MemoryStore>(),
                      std::make_unique<DiskStore>(DiskStore::Config{dir}));
    first.put(key, shared_payload(sample_analyze_payload()), 100);
    EXPECT_EQ(first.get(key).tier, StoreTier::Memory);
  }
  // "Restart": fresh memory, same disk.
  TieredStore second(std::make_unique<MemoryStore>(),
                     std::make_unique<DiskStore>(DiskStore::Config{dir}));
  EXPECT_EQ(second.get(key).tier, StoreTier::Disk);
  // The disk hit was promoted: the next lookup is served from memory.
  EXPECT_EQ(second.get(key).tier, StoreTier::Memory);
}

TEST(TieredStoreTest, TimedOutPayloadsStayOffDisk) {
  const std::string dir = fresh_dir("timeout_policy");
  support::MetricsRegistry metrics;
  TieredStore store(std::make_unique<MemoryStore>(),
                    std::make_unique<DiskStore>(DiskStore::Config{dir},
                                                &metrics));
  ResultPayload timed = sample_analyze_payload();
  timed.stats.stop = support::StopCause::TimedOut;
  const CacheKey key{33, 44};
  store.put(key, shared_payload(timed), 100);
  EXPECT_EQ(store.get(key).tier, StoreTier::Memory)
      << "timed-out payloads are reusable within the process";
  EXPECT_EQ(test::counter(metrics, "store.disk.insertions"), 0u)
      << "but must never be persisted";
  EXPECT_EQ(DiskStore(DiskStore::Config{dir}).get(key).payload, nullptr);
}

TEST(TieredStoreTest, NullDiskIsMemoryOnly) {
  support::MetricsRegistry metrics;
  TieredStore store(std::make_unique<MemoryStore>(MemoryStore::Config{},
                                                  &metrics),
                    nullptr, &metrics);
  EXPECT_FALSE(store.has_disk());
  const CacheKey key{55, 66};
  store.put(key, shared_payload(sample_analyze_payload()), 100);
  EXPECT_EQ(store.get(key).tier, StoreTier::Memory);
  EXPECT_EQ(test::counter(metrics, "store.disk.hits"), 0u);
  EXPECT_EQ(test::counter(metrics, "store.mem.hits"), 1u);
}

// ---------------------------------------------------------------------------
// engine acceptance: cold / warm / cold-restart byte-identity

TEST(EngineDisk, ColdWarmAndRestartLinesAreByteIdentical) {
  const std::string dir = fresh_dir("engine_restart");
  EngineConfig cfg;
  cfg.cache_dir = dir;

  const std::string line = "reduce kernel=fir8 limits=6,6 emit=1 id=9";
  std::string cold, warm, restart;
  {
    AnalysisEngine engine(cfg);
    const Response r1 = engine.run(service::parse_request_line(line, 9));
    ASSERT_TRUE(r1.payload->ok) << r1.payload->error;
    EXPECT_FALSE(r1.cache_hit);
    cold = service::render_response(r1);

    const Response r2 = engine.run(service::parse_request_line(line, 9));
    EXPECT_TRUE(r2.cache_hit);
    EXPECT_EQ(r2.tier, StoreTier::Memory);
    warm = service::render_response(r2);
    EXPECT_EQ(test::counter(engine.metrics(), "engine.memory_hits"), 1u);
  }
  {
    // Cold restart: new engine, empty MemoryStore, same cache_dir.
    AnalysisEngine engine(cfg);
    const Response r3 = engine.run(service::parse_request_line(line, 9));
    EXPECT_TRUE(r3.cache_hit);
    EXPECT_EQ(r3.tier, StoreTier::Disk);
    restart = service::render_response(r3);
    const service::CounterSnapshot c = engine.metrics().counters();
    EXPECT_EQ(c.at("engine.disk_hits"), 1u);
    EXPECT_EQ(c.at("engine.memory_hits"), 0u);
    EXPECT_TRUE(engine.store().has_disk());
    EXPECT_EQ(c.at("store.disk.hits"), 1u);
  }
  ASSERT_NE(cold.find("cached=0"), std::string::npos);
  ASSERT_NE(warm.find("cached=1"), std::string::npos);
  ASSERT_NE(restart.find("cached=1"), std::string::npos);
  // The acceptance bar: the three lines differ only in cached= and ms=
  // (the reduced-DDG text included — emit=1 rides through the disk tier).
  EXPECT_EQ(test::strip_delivery(cold), test::strip_delivery(warm));
  EXPECT_EQ(test::strip_delivery(cold), test::strip_delivery(restart));
}

TEST(EngineDisk, AnalyzeRestartMatchesAcrossEngines) {
  const std::string dir = fresh_dir("engine_analyze");
  EngineConfig cfg;
  cfg.cache_dir = dir;
  std::string cold;
  {
    AnalysisEngine engine(cfg);
    cold = service::render_response(
        engine.run(service::parse_request_line("analyze kernel=lin-ddot", 1)));
  }
  AnalysisEngine engine(cfg);
  const Response r = engine.run(
      service::parse_request_line("analyze kernel=lin-ddot", 1));
  EXPECT_EQ(r.tier, StoreTier::Disk);
  EXPECT_EQ(test::strip_delivery(cold),
            test::strip_delivery(service::render_response(r)));
}

TEST(EngineDisk, TimedOutResultsAreNotServedAcrossRestart) {
  const std::string dir = fresh_dir("engine_timeout");
  EngineConfig cfg;
  cfg.cache_dir = dir;

  support::Rng rng(77);
  ddg::LayeredDagParams p;
  p.layers = 6;
  p.min_width = 4;
  p.max_width = 6;
  p.edge_prob = 0.8;
  Request req = service::make_analyze_request(
      ddg::random_layered(rng, ddg::superscalar_model(), p));
  req.id = 1;
  req.budget_seconds = 1e-9;

  {
    AnalysisEngine engine(cfg);
    const Response r1 = engine.run(Request(req));
    ASSERT_EQ(r1.payload->stats.stop, support::StopCause::TimedOut);
    // Within the process it is cached (in memory)...
    EXPECT_TRUE(engine.run(Request(req)).cache_hit);
    EXPECT_EQ(test::counter(engine.metrics(), "store.disk.insertions"), 0u);
  }
  // ...but a restart recomputes: wall-clock best-efforts don't persist.
  AnalysisEngine engine(cfg);
  const Response r2 = engine.run(Request(req));
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(test::counter(engine.metrics(), "engine.disk_hits"), 0u);
}

}  // namespace
}  // namespace rs
