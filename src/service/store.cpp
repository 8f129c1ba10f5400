#include "service/store.hpp"

#include <algorithm>

#include "service/codec.hpp"
#include "service/engine.hpp"
#include "support/assert.hpp"
#include "support/fs.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace rs::service {

const char* store_tier_token(StoreTier t) {
  switch (t) {
    case StoreTier::None: return "none";
    case StoreTier::Memory: return "mem";
    case StoreTier::Disk: return "disk";
  }
  return "?";
}

// ---------------------------------------------------------------- memory

MemoryStore::MemoryStore(const Config& cfg, support::MetricsRegistry* metrics)
    : enabled_(cfg.max_bytes > 0 && cfg.max_entries > 0) {
  if (metrics != nullptr) {
    m_hits_ = &metrics->counter("store.mem.hits");
    m_misses_ = &metrics->counter("store.mem.misses");
    m_insertions_ = &metrics->counter("store.mem.insertions");
    m_evictions_ = &metrics->counter("store.mem.evictions");
  }
  const int shards = std::max(1, cfg.shards);
  // Ceil-divide so the summed capacity is never below the configured one.
  shard_max_bytes_ = (cfg.max_bytes + shards - 1) / shards;
  shard_max_entries_ = std::max<std::size_t>(
      1, (cfg.max_entries + shards - 1) / shards);
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MemoryStore::Shard& MemoryStore::shard_of(const CacheKey& key) {
  return *shards_[key.lo % shards_.size()];
}

StoreHit MemoryStore::get(const CacheKey& key) {
  Shard& shard = shard_of(key);
  support::LockGuard lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (m_misses_ != nullptr) m_misses_->inc();
    return {};
  }
  if (m_hits_ != nullptr) m_hits_->inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return {it->second->value, StoreTier::Memory};
}

void MemoryStore::put(const CacheKey& key,
                      std::shared_ptr<const ResultPayload> value,
                      std::size_t bytes) {
  // Entries larger than a shard's whole byte budget are not admitted (they
  // would evict everything for a single-use payload).
  if (!enabled_ || bytes > shard_max_bytes_) return;
  RS_REQUIRE(value != nullptr, "cannot cache a null payload");
  Shard& shard = shard_of(key);
  support::LockGuard lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.bytes += bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.index[key] = shard.lru.begin();
    shard.bytes += bytes;
    if (m_insertions_ != nullptr) m_insertions_->inc();
  }
  evict_locked(shard);
}

void MemoryStore::evict_locked(Shard& shard) {
  while (!shard.lru.empty() && (shard.bytes > shard_max_bytes_ ||
                                shard.lru.size() > shard_max_entries_)) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    if (m_evictions_ != nullptr) m_evictions_->inc();
  }
}

ResidentSize MemoryStore::resident() const {
  ResidentSize out;
  for (const auto& shard : shards_) {
    support::LockGuard lock(shard->mu);
    out.entries += shard->lru.size();
    out.bytes += shard->bytes;
  }
  return out;
}

// ------------------------------------------------------------------ disk

DiskStore::DiskStore(const Config& cfg, support::MetricsRegistry* metrics)
    : cfg_(cfg) {
  RS_REQUIRE(!cfg_.dir.empty(), "DiskStore needs a cache directory");
  if (metrics != nullptr) {
    d_hits_ = &metrics->counter("store.disk.hits");
    d_misses_ = &metrics->counter("store.disk.misses");
    d_insertions_ = &metrics->counter("store.disk.insertions");
    d_corrupt_ = &metrics->counter("store.disk.corrupt");
    d_write_errors_ = &metrics->counter("store.disk.write_errors");
    d_bytes_ = &metrics->counter("store.disk.bytes_written");
    d_read_ms_ = &metrics->histogram("store.disk.read_ms");
    d_write_ms_ = &metrics->histogram("store.disk.write_ms");
  }
  RS_REQUIRE(support::create_directories(cfg_.dir),
             "cannot create cache directory " + cfg_.dir);
  // Create the 256 fan-out directories up front so the write path is a
  // single temp-write + rename, not a mkdir probe per entry.
  static const char* hex = "0123456789abcdef";
  for (int i = 0; i < 256; ++i) {
    const std::string shard{hex[i >> 4], hex[i & 15]};
    RS_REQUIRE(support::create_directories(cfg_.dir + "/" + shard),
               "cannot create cache shard directory " + cfg_.dir + "/" +
                   shard);
  }
}

std::string DiskStore::entry_path(const CacheKey& key) const {
  const std::string hex = key.hex();
  return cfg_.dir + "/" + hex.substr(0, 2) + "/" + hex + ".rsres";
}

StoreHit DiskStore::get(const CacheKey& key) {
  support::Timer timer;
  std::string text;
  if (!support::read_file_to_string(entry_path(key), &text)) {
    if (d_read_ms_ != nullptr) d_read_ms_->observe(timer.millis());
    if (d_misses_ != nullptr) d_misses_->inc();
    return {};
  }
  std::shared_ptr<const ResultPayload> payload = decode_payload(text);
  if (d_read_ms_ != nullptr) d_read_ms_->observe(timer.millis());
  if (payload == nullptr) {
    // Truncated, version-mismatched or corrupt entry: a miss, never a
    // crash or a poisoned payload. The entry stays on disk until the next
    // put overwrites it (atomically), so there is no delete race either.
    if (d_corrupt_ != nullptr) d_corrupt_->inc();
    if (d_misses_ != nullptr) d_misses_->inc();
    return {};
  }
  if (d_hits_ != nullptr) d_hits_->inc();
  return {std::move(payload), StoreTier::Disk};
}

void DiskStore::put(const CacheKey& key, const ResultPayload& value) {
  const std::string path = entry_path(key);
  const std::string encoded = encode_payload(value);
  // Fan-out dirs exist since construction; a failure here (deleted dir,
  // full disk) is the documented best-effort degradation.
  support::Timer timer;
  const bool ok = support::write_file_atomic(path, encoded);
  if (d_write_ms_ != nullptr) d_write_ms_->observe(timer.millis());
  if (!ok) {
    if (d_write_errors_ != nullptr) d_write_errors_->inc();
    return;
  }
  if (d_insertions_ != nullptr) d_insertions_->inc();
  if (d_bytes_ != nullptr) d_bytes_->inc(encoded.size());
}

// ---------------------------------------------------------------- tiered

TieredStore::TieredStore(std::unique_ptr<MemoryStore> memory,
                         std::unique_ptr<DiskStore> disk,
                         support::MetricsRegistry* metrics)
    : memory_(std::move(memory)), disk_(std::move(disk)) {
  RS_REQUIRE(memory_ != nullptr, "TieredStore needs a memory tier");
  if (metrics != nullptr) promotions_ = &metrics->counter("store.promotions");
}

StoreHit TieredStore::get(const CacheKey& key) {
  StoreHit hit = memory_->get(key);
  if (hit.payload != nullptr || disk_ == nullptr) return hit;
  hit = disk_->get(key);
  if (hit.payload != nullptr) {
    // Promote: the next lookup of this key is an in-memory hit.
    memory_->put(key, hit.payload, hit.payload->bytes());
    if (promotions_ != nullptr) promotions_->inc();
  }
  return hit;
}

void TieredStore::put(const CacheKey& key,
                      std::shared_ptr<const ResultPayload> value,
                      std::size_t bytes) {
  // The persistence policy lives here, not only in the engine, so no
  // future store caller can leak a payload past it: error and
  // cancelled payloads are never stored anywhere; timed-out payloads are
  // a wall-clock-dependent best effort — valid to reuse within this
  // process (the budget is part of the key), wrong to serve to every
  // future process from disk.
  if (!value->ok || value->stats.stop == support::StopCause::Cancelled) {
    return;
  }
  memory_->put(key, value, bytes);
  if (disk_ == nullptr ||
      value->stats.stop == support::StopCause::TimedOut) {
    return;
  }
  disk_->put(key, *value);
}

}  // namespace rs::service
