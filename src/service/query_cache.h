// LRU cache of per-engine usefulness estimates for the serving layer.
//
// One entry per canonical query key (MakeKey: estimator, threshold,
// normalized query terms). The entry holds a contiguous array of slots,
// one per engine estimate, each tagged with the generation of the engine
// incarnation it was computed for. Every ROUTE/ESTIMATE probes every
// engine of its snapshot under one query key, so a request costs one
// key, one hash, one lock and one probe, plus a scan of the entry's
// slots against the snapshot's generations. The serving layer
// reassembles and re-sorts the per-engine estimates and applies the
// selection policy after the cache, so ROUTE requests that differ only
// in topk, and ESTIMATE requests for the same query, share one entry.
//
// Generations come from one service-wide counter, so a generation alone
// names one engine incarnation. That makes invalidation scoped and
// race-free: updating one engine gives it a fresh generation, so its old
// slots stop matching while every other engine keeps hitting, and a
// request that hits all but the touched engine re-estimates only that
// one and merges it back into the entry. Dead slots don't just age out
// (they'd squat on the budget and evict live ones): mutators call
// EraseGenerations for the retired generations and advance the accepted
// epoch first, so a stale Store that loses the race with an invalidation
// is refused outright (counted as `expired`).
//
// Budgets and counters are per engine estimate (slot), not per entry:
// `max_entries` bounds resident slots, hits and misses count engines,
// evictions and expiries count slots. The budget is global — one LRU
// under one mutex, taken once per Lookup or Store — so a working set that
// fits in total always stays resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "estimate/estimator.h"
#include "ir/query.h"

namespace useful::service {

struct QueryCacheOptions {
  /// Total slot budget: one slot is one engine's estimate for one query,
  /// so a request over E engines consumes up to E slots.
  std::size_t max_entries = 4096;
  /// Total byte budget, accounting keys, slots, and a fixed per-entry
  /// overhead (0: unbounded). An entry too large for the whole budget is
  /// not cached at all.
  std::size_t max_bytes = 8u << 20;
};

/// The cached value: one engine's usefulness estimate.
using CachedEstimate = estimate::UsefulnessEstimate;

/// Thread-safe LRU with slot-count and byte budgets plus
/// hit/miss/eviction/expiry counters. All methods may be called
/// concurrently.
class QueryCache {
 public:
  /// One engine estimate and the engine generation it was computed for.
  struct Slot {
    std::uint64_t gen = 0;
    CachedEstimate value;
  };

  explicit QueryCache(QueryCacheOptions options = {});

  /// Canonical query key for (estimator, threshold, query): the query's
  /// (term, weight-bits, sign) triples sorted by term, so raw-text term
  /// order and spacing never split the cache. Threshold and weights are
  /// keyed by their exact bit patterns.
  static std::string MakeKey(std::string_view estimator, double threshold,
                             const ir::Query& query);

  /// Probes `query_key` for every generation of `gens`: out[i] receives
  /// gens[i]'s cached estimate, or nullopt on a miss (`out` must be as
  /// long as `gens`). Counts one hit or miss per generation and refreshes
  /// the entry's LRU position. Returns the number of hits.
  std::size_t Lookup(std::string_view query_key,
                     std::span<const std::uint64_t> gens,
                     std::span<std::optional<CachedEstimate>> out);

  /// Merges `slots` into `query_key`'s entry (a slot of an already cached
  /// generation is overwritten), provided `epoch` (the snapshot epoch the
  /// values were computed under) is still current — a Store racing an
  /// invalidation that already advanced the epoch is refused and its
  /// slots counted as expired, so dead generations can't re-enter the
  /// cache behind a sweep. An entry that would exceed either budget on
  /// its own is left as it was. Evicts least-recently-used entries while
  /// the cache is over either budget.
  void Store(std::string_view query_key, std::span<const Slot> slots,
             std::uint64_t epoch);

  /// Raises the minimum epoch Store accepts. Mutators call this (with the
  /// new snapshot's epoch) before sweeping, so in-flight requests still
  /// holding the old snapshot can't repopulate what the sweep removes.
  void SetMinEpoch(std::uint64_t epoch);

  /// Erases every slot of the retired generations `gens` (a dropped or
  /// updated engine's), reclaiming their budget at once; entries left
  /// without slots go too. Erased slots are counted as expired, not
  /// evicted. Returns the number erased.
  std::size_t EraseGenerations(std::span<const std::uint64_t> gens);

  /// Drops every entry (reload invalidation). Counters keep their totals.
  void Clear();

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Slots swept by EraseGenerations plus slots of refused Stores.
    std::uint64_t expired = 0;
    /// Resident slots.
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    std::string key;
    std::vector<Slot> slots;  // ascending by gen, gens unique
    std::size_t bytes = 0;
  };

  static std::size_t EntryBytes(std::size_t key_size, std::size_t slots);
  /// Unlinks `it` and subtracts its slots and bytes. Caller holds mu_.
  void EraseLocked(std::list<Entry>::iterator it);

  const std::size_t max_slots_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  // Views into the list nodes' keys; list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::size_t slots_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t min_epoch_ = 0;
  Counters totals_;  // hits, misses, evictions, expired
};

}  // namespace useful::service
