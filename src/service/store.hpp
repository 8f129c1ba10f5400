// The tiered result-storage spine of the analysis service: three concrete
// stores the engine composes, no virtual interface.
//
//  * MemoryStore — the sharded LRU: each key maps to one of `shards`
//    independently locked LRU lists so concurrent engine workers rarely
//    contend; capacity (bytes and entries) is split evenly across shards;
//    values are immutable shared payloads, so eviction drops a reference
//    but never invalidates a payload an in-flight response still holds.
//
//  * DiskStore — a fingerprint-sharded persistent tier: entries live at
//    <dir>/<first two hex chars of the key>/<32-hex-key>.rsres, encoded
//    with the versioned codec (service/codec.hpp). Writes are atomic
//    (temp file + rename, support/fs.hpp), so a crash mid-write leaves a
//    stray temp file, never a torn entry. A missing, truncated,
//    version-mismatched or otherwise corrupt entry reads as a miss. Writes
//    are best-effort: a full or read-only disk degrades the tier to
//    read-only (counted as store.disk.write_errors), it never takes the
//    service down.
//
//  * TieredStore — memory over an optional disk tier. get() probes memory
//    first, then disk, promoting a disk hit into memory so the next lookup
//    is an in-memory hit. put() writes through to both, except that
//    payloads whose solve was cut short by a *wall-clock* artifact
//    (stop == timeout; cancelled payloads never reach a store) are kept
//    memory-only: persisting them would serve a machine-dependent
//    best-effort bound to every future process.
//
// Every store event is counted in the support::MetricsRegistry passed at
// construction (store.mem.*, store.disk.*, store.promotions) and nowhere
// else; a store built without one counts nothing. The only state a store
// reports itself is the memory LRU's resident size, a level rather than a
// counter.
//
// Keys are canonical DDG fingerprints extended with a request digest
// (ddg/canon.hpp, service::request_key), so structurally identical
// requests — including renumbered or renamed copies of the same DAG, in
// any process, on any day — address the same entry across all tiers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ddg/canon.hpp"
#include "support/hash.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace rs::support {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace rs::support

namespace rs::service {

struct ResultPayload;  // defined in service/engine.hpp

using CacheKey = ddg::Fingerprint;

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(support::hash_combine(k.hi, k.lo));
  }
};

/// Which tier satisfied a lookup. None means miss.
enum class StoreTier { None = 0, Memory = 1, Disk = 2 };

const char* store_tier_token(StoreTier t);

/// A lookup result: the payload (nullptr = miss) and the tier it came from.
struct StoreHit {
  std::shared_ptr<const ResultPayload> payload;
  StoreTier tier = StoreTier::None;
};

/// What the memory LRU holds right now (levels: evictions lower them).
struct ResidentSize {
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Sharded in-memory LRU. Safe for concurrent get/put.
class MemoryStore {
 public:
  struct Config {
    std::size_t max_bytes = std::size_t{64} << 20;
    std::size_t max_entries = std::size_t{1} << 16;
    int shards = 8;
  };

  MemoryStore() : MemoryStore(Config{}) {}
  /// When `metrics` is non-null, counts hits/misses/insertions/evictions
  /// as store.mem.* in the registry (which must outlive the store).
  explicit MemoryStore(const Config& cfg,
                       support::MetricsRegistry* metrics = nullptr);

  /// False when configured with zero capacity; get() then always misses
  /// and put() is a no-op.
  bool enabled() const { return enabled_; }

  /// Returns the payload (refreshing its recency) or a miss.
  StoreHit get(const CacheKey& key);
  /// Inserts (or refreshes) an entry costing `bytes`; declined when the
  /// store is disabled or the entry exceeds a shard's byte budget.
  void put(const CacheKey& key, std::shared_ptr<const ResultPayload> value,
           std::size_t bytes);
  /// Entries and bytes resident across all shards.
  ResidentSize resident() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const ResultPayload> value;
    std::size_t bytes = 0;
  };
  /// One independently locked LRU slice. Everything mutable in a shard is
  /// guarded by its own mutex; concurrent workers only contend when their
  /// keys land on the same shard.
  struct Shard {
    mutable support::Mutex mu;
    std::list<Entry> lru RSAT_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index RSAT_GUARDED_BY(mu);
    std::size_t bytes RSAT_GUARDED_BY(mu) = 0;
  };

  /// Key->shard routing reads only construction-time-immutable state
  /// (shards_ never changes size after the constructor), so it takes no
  /// lock.
  Shard& shard_of(const CacheKey& key);
  void evict_locked(Shard& shard) RSAT_REQUIRES(shard.mu);

  bool enabled_;
  std::size_t shard_max_bytes_;
  std::size_t shard_max_entries_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cached registry entries (null when unmetered): store.mem.*.
  support::Counter* m_hits_ = nullptr;
  support::Counter* m_misses_ = nullptr;
  support::Counter* m_insertions_ = nullptr;
  support::Counter* m_evictions_ = nullptr;
};

/// Fingerprint-sharded on-disk tier speaking the versioned payload codec.
/// Safe for concurrent get/put: it holds no lock at all, so entry reads
/// and writes run in parallel across workers.
class DiskStore {
 public:
  struct Config {
    /// Root directory; created, along with all 256 fan-out
    /// subdirectories, by the constructor (the write path counts on them
    /// existing — one temp-write + rename, no mkdir probe per entry).
    /// Must be creatable — the constructor throws
    /// support::PreconditionError otherwise, since a requested-but-broken
    /// cache dir is an operator error worth failing loudly on.
    std::string dir;
  };

  /// When `metrics` is non-null, counts hits/misses/insertions/corrupt
  /// entries/write errors/bytes written as store.disk.* and times entry
  /// reads/writes into store.disk.{read,write}_ms histograms.
  explicit DiskStore(const Config& cfg,
                     support::MetricsRegistry* metrics = nullptr);

  /// Reads and decodes the entry; missing or corrupt entries are misses.
  StoreHit get(const CacheKey& key);
  /// Encodes and writes the entry atomically (best-effort; disk capacity
  /// is managed by the operator).
  void put(const CacheKey& key, const ResultPayload& value);

  /// The entry path for a key: <dir>/<hex[0..1]>/<hex>.rsres. Exposed for
  /// tests that corrupt/truncate entries on purpose.
  std::string entry_path(const CacheKey& key) const;

 private:
  Config cfg_;

  // Cached registry entries (null when unmetered): store.disk.*.
  support::Counter* d_hits_ = nullptr;
  support::Counter* d_misses_ = nullptr;
  support::Counter* d_insertions_ = nullptr;
  support::Counter* d_corrupt_ = nullptr;
  support::Counter* d_write_errors_ = nullptr;
  support::Counter* d_bytes_ = nullptr;
  support::Histogram* d_read_ms_ = nullptr;
  support::Histogram* d_write_ms_ = nullptr;
};

/// Memory over optional disk, promote on hit, write-through on put (with
/// the timeout-payload persistence exception documented above).
class TieredStore {
 public:
  /// `disk` may be null (memory-only deployment). When `metrics` is
  /// non-null, disk->memory promotions are counted as store.promotions.
  TieredStore(std::unique_ptr<MemoryStore> memory,
              std::unique_ptr<DiskStore> disk,
              support::MetricsRegistry* metrics = nullptr);

  StoreHit get(const CacheKey& key);
  /// Declines error and cancelled payloads; see the header comment for
  /// which payloads reach the disk tier.
  void put(const CacheKey& key, std::shared_ptr<const ResultPayload> value,
           std::size_t bytes);
  /// The memory tier's resident size.
  ResidentSize resident() const { return memory_->resident(); }

  bool has_disk() const { return disk_ != nullptr; }

  /// Memory-tier-only probe: no disk I/O. For callers holding a lock that
  /// must not wait on the filesystem (the engine's single-flight re-check;
  /// the owner publishes to memory first, so missing a disk-only entry
  /// here merely recomputes).
  StoreHit probe_memory(const CacheKey& key) { return memory_->get(key); }

 private:
  std::unique_ptr<MemoryStore> memory_;
  std::unique_ptr<DiskStore> disk_;
  support::Counter* promotions_ = nullptr;
};

}  // namespace rs::service
