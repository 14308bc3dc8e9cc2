#include "service/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "text/analyzer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace useful::service {
namespace {

CachedEstimate MakeEstimate(double no_doc) { return {no_doc, 0.5}; }

ir::Query MakeQuery(std::vector<std::pair<std::string, double>> terms) {
  ir::Query q;
  for (auto& [term, weight] : terms) {
    q.terms.push_back(ir::QueryTerm{term, weight});
  }
  return q;
}

// The key bytes the cache used to build with printf ("%016llx" per
// double); keys must not change.
std::string PrintfBits(double value) {
  if (value == 0.0) value = 0.0;
  char buf[17];
  const auto bits =
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value));
  std::snprintf(buf, sizeof(buf), "%016llx", bits);
  return buf;
}

TEST(QueryCacheKeyTest, KeysMatchThePrintfFormat) {
  Pcg32 rng(42, 5);
  for (int i = 0; i < 20000; ++i) {
    const double threshold = std::bit_cast<double>(
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32());
    const double weight = i % 7 == 0 ? -0.0 : rng.NextDouble();
    ir::Query q = MakeQuery({{"zeta", weight}});
    q.terms[0].negated = i % 2 == 0;
    const std::string want = std::string("subrange") + '\x1f' +
                             PrintfBits(threshold) + '\x1f' + "zeta" +
                             '\x1e' + PrintfBits(weight) +
                             (i % 2 == 0 ? '!' : '+');
    ASSERT_EQ(QueryCache::MakeKey("subrange", threshold, q), want) << i;
  }
}

TEST(QueryCacheKeyTest, TermOrderDoesNotSplitTheCache) {
  ir::Query a = MakeQuery({{"fox", 0.6}, {"dog", 0.8}});
  ir::Query b = MakeQuery({{"dog", 0.8}, {"fox", 0.6}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, a),
            QueryCache::MakeKey("subrange", 0.2, b));
}

TEST(QueryCacheKeyTest, DistinguishesEstimatorThresholdAndWeights) {
  ir::Query q = MakeQuery({{"fox", 0.6}});
  std::string base = QueryCache::MakeKey("subrange", 0.2, q);
  EXPECT_NE(base, QueryCache::MakeKey("basic", 0.2, q));
  EXPECT_NE(base, QueryCache::MakeKey("subrange", 0.3, q));
  ir::Query other_weight = MakeQuery({{"fox", 0.7}});
  EXPECT_NE(base, QueryCache::MakeKey("subrange", 0.2, other_weight));
}

TEST(QueryCacheKeyTest, NegativeZeroCanonicalizesToPositiveZero) {
  // -0.0 == 0.0 numerically, but the two have different bit patterns; a
  // bit-level key must not split the cache (or worse, let two clients see
  // different rankings for the same query).
  ir::Query q = MakeQuery({{"fox", 0.6}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.0, q),
            QueryCache::MakeKey("subrange", -0.0, q));
  ir::Query pos = MakeQuery({{"fox", 0.0}});
  ir::Query neg = MakeQuery({{"fox", -0.0}});
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, pos),
            QueryCache::MakeKey("subrange", 0.2, neg));
  // Genuinely different thresholds still get distinct keys.
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.0, q),
            QueryCache::MakeKey("subrange", 0.2, q));
}

TEST(QueryCacheKeyTest, WeightSpellingDoesNotSplitTheCache) {
  // The key is built from the parsed query's normalized weight bits, not
  // the request text, so equivalent spellings of one weight share an
  // entry: `a^2 b` == `a^2.0 b`, and a lone `a^5` normalizes to the same
  // unit vector as plain `a`.
  text::Analyzer analyzer;
  auto parse = [&](const char* text) {
    auto q = ir::ParseAnnotatedQuery(analyzer, text);
    EXPECT_TRUE(q.ok()) << text;
    return std::move(q).value();
  };
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data^2 grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data^2.0 grid")));
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data^5")),
            QueryCache::MakeKey("subrange", 0.2, parse("data")));
  // Genuinely different weights still split.
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data^2 grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data^3 grid")));
}

TEST(QueryCacheKeyTest, NegationAndMinShouldMatchArePartOfTheKey) {
  // A negated term scores differently from its positive twin, and an MSM
  // constraint from an unconstrained query — colliding either pair would
  // serve one semantics' ranking for the other.
  text::Analyzer analyzer;
  auto parse = [&](const char* text) {
    auto q = ir::ParseAnnotatedQuery(analyzer, text);
    EXPECT_TRUE(q.ok()) << text;
    return std::move(q).value();
  };
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data -grid")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 1")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
  EXPECT_NE(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 1")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 2")));
  // MSM 0 is the unconstrained query; the key must not split on it.
  EXPECT_EQ(QueryCache::MakeKey("subrange", 0.2, parse("data grid MSM 0")),
            QueryCache::MakeKey("subrange", 0.2, parse("data grid")));
}

// One engine's slot.
QueryCache::Slot MakeSlot(std::uint64_t gen, double no_doc) {
  return {gen, MakeEstimate(no_doc)};
}

// Generations first..first+count-1, ascending like a snapshot's.
std::vector<std::uint64_t> Gens(std::uint64_t first, std::size_t count) {
  std::vector<std::uint64_t> gens(count);
  for (std::size_t i = 0; i < count; ++i) gens[i] = first + i;
  return gens;
}

// One slot per generation, each estimate's NoDoc equal to its generation.
std::vector<QueryCache::Slot> SlotsFor(std::span<const std::uint64_t> gens) {
  std::vector<QueryCache::Slot> slots;
  for (std::uint64_t gen : gens) {
    slots.push_back(MakeSlot(gen, static_cast<double>(gen)));
  }
  return slots;
}

// Lookup of the single generation `gen` under `key`.
std::optional<CachedEstimate> Get(QueryCache& cache, std::string_view key,
                                  std::uint64_t gen) {
  std::optional<CachedEstimate> out;
  cache.Lookup(key, std::span<const std::uint64_t>(&gen, 1),
               std::span<std::optional<CachedEstimate>>(&out, 1));
  return out;
}

void Put(QueryCache& cache, std::string_view key, std::uint64_t gen,
         double no_doc, std::uint64_t epoch = 0) {
  const QueryCache::Slot slot = MakeSlot(gen, no_doc);
  cache.Store(key, std::span<const QueryCache::Slot>(&slot, 1), epoch);
}

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  EXPECT_FALSE(Get(cache, "k1", 1).has_value());
  Put(cache, "k1", 1, 2.0);
  auto hit = Get(cache, "k1", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 2.0);
  EXPECT_DOUBLE_EQ(hit->avg_sim, 0.5);
  // Another generation under the same query key is a different engine.
  EXPECT_FALSE(Get(cache, "k1", 2).has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(QueryCacheTest, LookupCountsEveryEngine) {
  // Hits and misses count engine estimates, not queries: one probe over
  // five generations of which three are cached is 3 hits and 2 misses.
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  const std::vector<std::uint64_t> stored = {10, 11, 13};
  cache.Store("q", SlotsFor(stored), 0);
  const std::vector<std::uint64_t> probe = {10, 11, 12, 13, 14};
  std::vector<std::optional<CachedEstimate>> out(probe.size());
  EXPECT_EQ(cache.Lookup("q", probe, out), 3u);
  EXPECT_DOUBLE_EQ(out[0]->no_doc, 10.0);
  EXPECT_DOUBLE_EQ(out[1]->no_doc, 11.0);
  EXPECT_FALSE(out[2].has_value());
  EXPECT_DOUBLE_EQ(out[3]->no_doc, 13.0);
  EXPECT_FALSE(out[4].has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.entries, 3u);
}

TEST(QueryCacheTest, SlotOrderDoesNotMatter) {
  // Snapshots hand out ascending generations, but neither Lookup nor
  // Store may depend on it.
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  const std::vector<std::uint64_t> stored = {42, 7, 19, 3};
  cache.Store("q", SlotsFor(stored), 0);
  const std::vector<std::uint64_t> probe = {19, 5, 3, 42, 7};
  std::vector<std::optional<CachedEstimate>> out(probe.size());
  EXPECT_EQ(cache.Lookup("q", probe, out), 4u);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (probe[i] == 5) {
      EXPECT_FALSE(out[i].has_value());
    } else {
      ASSERT_TRUE(out[i].has_value()) << probe[i];
      EXPECT_DOUBLE_EQ(out[i]->no_doc, static_cast<double>(probe[i]));
    }
  }
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedInOrder) {
  QueryCache cache({.max_entries = 3, .max_bytes = 1u << 20});
  Put(cache, "a", 1, 1);
  Put(cache, "b", 1, 1);
  Put(cache, "c", 1, 1);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(Get(cache, "a", 1).has_value());
  Put(cache, "d", 1, 1);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(Get(cache, "b", 1).has_value());
  EXPECT_TRUE(Get(cache, "a", 1).has_value());
  EXPECT_TRUE(Get(cache, "c", 1).has_value());
  EXPECT_TRUE(Get(cache, "d", 1).has_value());
  // Still at the slot budget.
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(QueryCacheTest, EvictionFreesWholeEntriesAndCountsTheirSlots) {
  // The budget counts slots; the LRU unit is the query. Storing a third
  // 4-slot query into a 10-slot budget evicts the oldest query whole, and
  // that counts as 4 evictions.
  QueryCache cache({.max_entries = 10, .max_bytes = 1u << 20});
  const std::vector<std::uint64_t> gens = Gens(1, 4);
  cache.Store("q1", SlotsFor(gens), 0);
  cache.Store("q2", SlotsFor(gens), 0);
  EXPECT_EQ(cache.counters().entries, 8u);
  cache.Store("q3", SlotsFor(gens), 0);
  auto c = cache.counters();
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_EQ(c.entries, 8u);
  std::vector<std::optional<CachedEstimate>> out(gens.size());
  EXPECT_EQ(cache.Lookup("q1", gens, out), 0u);
  EXPECT_EQ(cache.Lookup("q2", gens, out), 4u);
  EXPECT_EQ(cache.Lookup("q3", gens, out), 4u);
}

TEST(QueryCacheTest, RefreshingAKeyUpdatesValueWithoutGrowth) {
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20});
  Put(cache, "k", 1, 1.0);
  const std::size_t bytes = cache.counters().bytes;
  Put(cache, "k", 1, 9.0);
  EXPECT_EQ(cache.counters().entries, 1u);
  EXPECT_EQ(cache.counters().bytes, bytes);
  auto hit = Get(cache, "k", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 9.0);
}

TEST(QueryCacheTest, PartialHitReestimatesOnlyTheChangedEngine) {
  // After one engine's UPDATE its generation changes: the next probe hits
  // every other engine and misses only that one, and storing the fresh
  // estimate merges it into the same entry beside the others.
  QueryCache cache;
  std::vector<std::uint64_t> gens = Gens(0, 53);
  cache.Store("q", SlotsFor(gens), 0);
  const std::uint64_t retired = gens[7];
  gens[7] = 100;  // engine 7's new incarnation
  cache.SetMinEpoch(1);
  cache.EraseGenerations(std::span<const std::uint64_t>(&retired, 1));

  std::vector<std::optional<CachedEstimate>> out(gens.size());
  EXPECT_EQ(cache.Lookup("q", gens, out), 52u);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    EXPECT_EQ(out[i].has_value(), i != 7) << i;
  }
  Put(cache, "q", 100, 123.0, /*epoch=*/1);
  EXPECT_EQ(cache.Lookup("q", gens, out), 53u);
  EXPECT_DOUBLE_EQ(out[7]->no_doc, 123.0);
  EXPECT_DOUBLE_EQ(out[6]->no_doc, 6.0);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 52u + 53u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 53u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST(QueryCacheTest, ByteBudgetEvicts) {
  // Each entry costs a fixed overhead + key + its slots; a budget of ~2
  // single-slot entries must hold the cache near two entries regardless
  // of the (larger) slot budget.
  QueryCache cache({.max_entries = 100, .max_bytes = 300});
  for (int i = 0; i < 10; ++i) {
    Put(cache, "key" + std::to_string(i), 1, 1.0);
  }
  auto c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.bytes, 300u);
  EXPECT_LT(c.entries, 10u);
}

TEST(QueryCacheTest, OversizeEntryIsNotCached) {
  // An entry that alone exceeds the byte budget (a huge key) or the slot
  // budget (more engines than slots) could never coexist with anything:
  // it is not admitted, and it evicts nothing.
  QueryCache cache({.max_entries = 4, .max_bytes = 200});
  Put(cache, "small", 1, 1.0);
  std::string huge_key(300, 'k');
  Put(cache, huge_key, 1, 1.0);
  EXPECT_FALSE(Get(cache, huge_key, 1).has_value());
  const std::vector<std::uint64_t> five = Gens(1, 5);
  cache.Store("wide", SlotsFor(five), 0);
  EXPECT_FALSE(Get(cache, "wide", 1).has_value());
  // Growing an entry past the budget by merging is refused too, and the
  // entry keeps what it had.
  const std::vector<std::uint64_t> four = Gens(1, 4);
  const QueryCache::Slot fifth = MakeSlot(9, 1.0);
  QueryCache grow({.max_entries = 4, .max_bytes = 1u << 20});
  grow.Store("q", SlotsFor(four), 0);
  grow.Store("q", std::span<const QueryCache::Slot>(&fifth, 1), 0);
  EXPECT_FALSE(Get(grow, "q", 9).has_value());
  EXPECT_TRUE(Get(grow, "q", 4).has_value());
  EXPECT_EQ(grow.counters().entries, 4u);
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_TRUE(Get(cache, "small", 1).has_value());
}

TEST(QueryCacheTest, ClearDropsEntriesButKeepsCounterTotals) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  Put(cache, "a", 1, 1);
  Put(cache, "b", 1, 1);
  EXPECT_TRUE(Get(cache, "a", 1).has_value());
  cache.Clear();
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.hits, 1u);  // history survives
  EXPECT_FALSE(Get(cache, "a", 1).has_value());
}

TEST(QueryCacheTest, EraseGenerationsRemovesOnlyThoseSlots) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  const std::vector<std::uint64_t> gens = {1, 2, 3};
  cache.Store("q1", SlotsFor(gens), 0);
  cache.Store("q2", SlotsFor(gens), 0);
  Put(cache, "q3", 2, 2.0);  // an entry holding only the retired engine
  const std::uint64_t retired = 2;
  EXPECT_EQ(cache.EraseGenerations(std::span<const std::uint64_t>(&retired, 1)),
            3u);
  std::vector<std::optional<CachedEstimate>> out(gens.size());
  EXPECT_EQ(cache.Lookup("q1", gens, out), 2u);
  EXPECT_FALSE(out[1].has_value());
  EXPECT_EQ(cache.Lookup("q2", gens, out), 2u);
  EXPECT_FALSE(out[1].has_value());
  EXPECT_EQ(cache.Lookup("q3", gens, out), 0u);
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 3u);
  EXPECT_EQ(c.evictions, 0u);  // a sweep is not LRU pressure
  EXPECT_EQ(c.entries, 4u);
}

TEST(QueryCacheTest, EraseGenerationsReclaimsBudgetImmediately) {
  // Slots under a dead generation must not stay resident until LRU
  // pressure finds them, or a reload/update squats on the budget and
  // evicts LIVE estimates. A sweep hands the budget back at once: after
  // erasing the dead engine's slots, storing its next generation must not
  // evict the survivors.
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20});
  const std::vector<std::uint64_t> old_gens = {1, 2};  // dead=1, live=2
  cache.Store("q1", SlotsFor(old_gens), 0);
  cache.Store("q2", SlotsFor(old_gens), 0);
  // The cache is exactly full. Sweep the dead engine, then refill with
  // its next generation.
  const std::size_t full_bytes = cache.counters().bytes;
  const std::uint64_t dead = 1;
  EXPECT_EQ(cache.EraseGenerations(std::span<const std::uint64_t>(&dead, 1)),
            2u);
  EXPECT_LT(cache.counters().bytes, full_bytes);  // budget handed back now
  Put(cache, "q1", 3, 1.0, 0);
  Put(cache, "q2", 3, 1.0, 0);
  // The survivors were never evicted — the swept budget absorbed the new
  // generation entirely.
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.counters().bytes, full_bytes);
  const std::vector<std::uint64_t> new_gens = {2, 3};
  std::vector<std::optional<CachedEstimate>> out(new_gens.size());
  EXPECT_EQ(cache.Lookup("q1", new_gens, out), 2u);
  EXPECT_EQ(cache.Lookup("q2", new_gens, out), 2u);
  EXPECT_EQ(cache.counters().entries, 4u);
}

TEST(QueryCacheTest, StaleStoreIsRefusedAfterEpochAdvance) {
  // A request computed under snapshot epoch E races an invalidation that
  // published epoch E+1 and swept: its late Store must be refused, or the
  // dead generation re-enters the cache right behind the sweep.
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  Put(cache, "a", 1, 1, /*epoch=*/0);
  cache.SetMinEpoch(1);
  const std::vector<std::uint64_t> gens = {1, 2, 3};
  cache.Store("b", SlotsFor(gens), /*epoch=*/0);  // stale: refused
  EXPECT_FALSE(Get(cache, "b", 1).has_value());
  Put(cache, "c", 1, 1, /*epoch=*/1);  // current: accepted
  EXPECT_TRUE(Get(cache, "c", 1).has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 3u);  // one per refused engine estimate
  EXPECT_EQ(c.entries, 2u);
}

TEST(QueryCacheTest, MinEpochIsMonotone) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20});
  cache.SetMinEpoch(5);
  cache.SetMinEpoch(3);  // out-of-order call must not lower the bar
  Put(cache, "k", 1, 1, /*epoch=*/4);
  EXPECT_FALSE(Get(cache, "k", 1).has_value());
  EXPECT_EQ(cache.counters().expired, 1u);
  Put(cache, "k", 1, 1, /*epoch=*/5);
  EXPECT_TRUE(Get(cache, "k", 1).has_value());
}

TEST(QueryCacheTest, HotWorkingSetStaysResidentUnderDefaults) {
  // 64 queries over 53 engines is 3,392 slots: under the default options
  // the whole set fits one global LRU, so after one pass every probe
  // hits and nothing was ever evicted.
  QueryCache cache;
  const std::vector<std::uint64_t> gens = Gens(0, 53);
  const std::vector<QueryCache::Slot> slots = SlotsFor(gens);
  std::vector<std::string> keys;
  for (int q = 0; q < 64; ++q) {
    keys.push_back(QueryCache::MakeKey(
        "subrange", 0.1 * (q % 7),
        MakeQuery({{"term" + std::to_string(q), 0.6},
                   {"other" + std::to_string(q % 5), 0.8}})));
    cache.Store(keys.back(), slots, 0);
  }
  std::vector<std::optional<CachedEstimate>> out(gens.size());
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& key : keys) {
      ASSERT_EQ(cache.Lookup(key, gens, out), gens.size());
    }
  }
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 64u * 53u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.hits, 3u * 64u * 53u);
}

TEST(QueryCacheTest, ConcurrentHammeringKeepsCountersConsistent) {
  // Readers probe and store over a small key space while a sweeper
  // retires generations; every probe counts each engine exactly once,
  // cached estimates are never torn, and the slot and byte totals stay
  // consistent with the entries (a final full sweep empties both).
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20});
  constexpr std::size_t kOps = 4000;
  constexpr std::size_t kKeys = 29;
  constexpr std::size_t kEngines = 6;
  constexpr std::uint64_t kMaxGen = 12;
  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> probes{0};
  util::ThreadPool pool(8);
  pool.ParallelFor(kOps, [&](std::size_t i) {
    if (i % 50 == 0) {
      const std::uint64_t retired = i / 50 % kMaxGen;
      cache.EraseGenerations(std::span<const std::uint64_t>(&retired, 1));
      return;
    }
    const std::string key = "key" + std::to_string(i % kKeys);
    // Generations depend on the key only, so a value is always checkable.
    const std::vector<std::uint64_t> gens = Gens(i % kKeys % 7, kEngines);
    std::vector<std::optional<CachedEstimate>> out(gens.size());
    const std::size_t hits = cache.Lookup(key, gens, out);
    probes.fetch_add(1, std::memory_order_relaxed);
    observed_hits.fetch_add(hits, std::memory_order_relaxed);
    std::vector<QueryCache::Slot> missed;
    for (std::size_t e = 0; e < gens.size(); ++e) {
      if (out[e].has_value()) {
        // A cached estimate is always intact, never half-written.
        EXPECT_DOUBLE_EQ(out[e]->no_doc, static_cast<double>(gens[e]));
      } else {
        missed.push_back(MakeSlot(gens[e], static_cast<double>(gens[e])));
      }
    }
    cache.Store(key, missed, 0);
  });
  auto c = cache.counters();
  // Every probe counted each engine exactly once, as a hit or a miss.
  EXPECT_EQ(c.hits + c.misses, probes.load() * kEngines);
  EXPECT_EQ(c.hits, observed_hits.load());
  EXPECT_LE(c.entries, 64u);
  const std::vector<std::uint64_t> all = Gens(0, kMaxGen);
  EXPECT_EQ(cache.EraseGenerations(all), c.entries);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().bytes, 0u);
}

}  // namespace
}  // namespace useful::service
