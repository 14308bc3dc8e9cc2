// Sharded LRU cache of per-engine usefulness estimates for the serving
// layer.
//
// The cacheable unit is ONE engine's estimate for a canonical query key
// (estimator, threshold, normalized query terms) — deliberately *not*
// the full ranking, so ADD/DROP/UPDATE of one engine never touches the
// other engines' entries; the serving layer reassembles and re-sorts
// per-engine estimates (cheap: tens of engines) and applies the
// selection policy after the cache, so ROUTE requests that differ only
// in topk, and ESTIMATE requests for the same query, all share entries.
//
// Full keys are assembled by QueryCache::EngineKey as
//     <engine> '\x1f' <generation> '\x1f' MakeKey(...)
// where <generation> is the engine's per-engine snapshot generation.
// That makes invalidation scoped and race-free: updating one engine
// bumps only its generation, so its old entries become unreachable
// while every other engine keeps hitting. Unreachable entries don't
// just age out of the LRU (they'd squat on the byte budget and evict
// live entries): mutators call ErasePrefix for the touched engines
// and advance the accepted epoch, so a stale Put that loses the race
// with an invalidation is refused outright (counted as `expired`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "estimate/estimator.h"
#include "ir/query.h"

namespace useful::service {

struct QueryCacheOptions {
  /// Total entry budget across shards (per-shard budget is the even split,
  /// at least one entry). Entries are per (engine, query) pairs, so a
  /// request over E engines consumes up to E entries.
  std::size_t max_entries = 4096;
  /// Total byte budget across shards, accounting keys, estimates, and a
  /// fixed per-entry overhead. Values too large for one shard's budget are
  /// not cached at all.
  std::size_t max_bytes = 8u << 20;
  /// Lock shards; more shards = less contention under concurrent traffic.
  std::size_t shards = 8;
};

/// The cached value: one engine's usefulness estimate.
using CachedEstimate = estimate::UsefulnessEstimate;

/// Thread-safe sharded LRU with entry-count and byte budgets plus
/// hit/miss/eviction/expiry counters. All methods may be called
/// concurrently.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});

  /// Canonical query sub-key for (estimator, threshold, query): the
  /// query's (term, weight-bits, sign) triples sorted by term, so raw-text
  /// term order and spacing never split the cache. Threshold and weights
  /// are keyed by their exact bit patterns. The caller prepends the engine
  /// name and generation (see the header comment) to form the full key.
  static std::string MakeKey(std::string_view estimator, double threshold,
                             const ir::Query& query);

  /// Full cache key for one engine: name, generation (decimal), then the
  /// MakeKey sub-key, joined by '\x1f'. The generation is the
  /// scoped-invalidation lever — updating an engine bumps only its own
  /// generation, so every other engine's keys (and cached entries)
  /// survive.
  static std::string EngineKey(std::string_view engine, std::uint64_t gen,
                               std::string_view query_key);

  /// Returns the cached estimate and refreshes its LRU position, or
  /// nullopt on miss. Counts a hit or miss.
  std::optional<CachedEstimate> Get(std::string_view key);

  /// Inserts or refreshes `key`, provided `epoch` (the snapshot epoch the
  /// value was computed under) is still current — a Put racing an
  /// invalidation that already advanced the epoch is refused and counted
  /// as expired, so dead-generation entries can't re-enter the cache
  /// behind a sweep. Evicts least-recently-used entries while the shard
  /// is over either budget.
  void Put(std::string_view key, const CachedEstimate& value,
           std::uint64_t epoch);

  /// Raises the minimum epoch Put accepts. Mutators call this (with the
  /// new snapshot's epoch) before sweeping, so in-flight requests still
  /// holding the old snapshot can't repopulate what the sweep removes.
  void SetMinEpoch(std::uint64_t epoch);

  /// Erases every entry whose key starts with `prefix` (the touched
  /// engine's "name\x1f" in practice), reclaiming its budget immediately.
  /// Erased entries are counted as expired, not evicted. Returns the
  /// number erased.
  std::size_t ErasePrefix(std::string_view prefix);

  /// Drops every entry (reload invalidation). Counters keep their totals.
  void Clear();

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Entries swept by ErasePrefix plus Puts refused for a stale epoch.
    std::uint64_t expired = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    std::string key;
    CachedEstimate value;
    std::size_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // Views into the list nodes' keys; list nodes never move.
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& ShardFor(std::string_view key);
  static std::size_t EntryBytes(std::string_view key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t entries_per_shard_;
  std::size_t bytes_per_shard_;
  std::atomic<std::uint64_t> min_epoch_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace useful::service
