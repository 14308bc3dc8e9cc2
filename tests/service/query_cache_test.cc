#include "service/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
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

// The key bytes the cache used to build with printf ("%016llx" per double,
// "%llu" for the generation); keys must not change.
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
    const std::string sub = QueryCache::MakeKey("subrange", threshold, q);
    ASSERT_EQ(sub, want) << i;

    const std::uint64_t gen =
        i % 3 == 0 ? ~std::uint64_t{0} >> rng.NextBounded(64) : i;
    char digits[32];
    std::snprintf(digits, sizeof(digits), "%llu",
                  static_cast<unsigned long long>(gen));
    ASSERT_EQ(QueryCache::EngineKey("group07", gen, sub),
              std::string("group07") + '\x1f' + digits + '\x1f' + sub);
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

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20, .shards = 1});
  EXPECT_FALSE(cache.Get("k1").has_value());
  cache.Put("k1", MakeEstimate(2.0), 0);
  auto hit = cache.Get("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 2.0);
  EXPECT_DOUBLE_EQ(hit->avg_sim, 0.5);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedInOrder) {
  QueryCache cache({.max_entries = 3, .max_bytes = 1u << 20, .shards = 1});
  cache.Put("a", MakeEstimate(1), 0);
  cache.Put("b", MakeEstimate(1), 0);
  cache.Put("c", MakeEstimate(1), 0);
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Put("d", MakeEstimate(1), 0);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  // Still at the entry budget.
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(QueryCacheTest, RefreshingAKeyUpdatesValueWithoutGrowth) {
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20, .shards = 1});
  cache.Put("k", MakeEstimate(1.0), 0);
  cache.Put("k", MakeEstimate(9.0), 0);
  EXPECT_EQ(cache.counters().entries, 1u);
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->no_doc, 9.0);
}

TEST(QueryCacheTest, ByteBudgetEvicts) {
  // Each entry costs ~kEntryOverhead + key + the fixed estimate; a budget
  // of ~2 entries must hold the cache near two entries regardless of the
  // (larger) entry budget.
  QueryCache cache({.max_entries = 100, .max_bytes = 300, .shards = 1});
  for (int i = 0; i < 10; ++i) {
    cache.Put("key" + std::to_string(i), MakeEstimate(1.0), 0);
  }
  auto c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.bytes, 300u);
  EXPECT_LT(c.entries, 10u);
}

TEST(QueryCacheTest, OversizeEntryIsNotCached) {
  // The value is a fixed-size estimate now, so only the key can blow the
  // budget — a key alone larger than the shard's byte budget must not be
  // admitted (it could never coexist with anything).
  QueryCache cache({.max_entries = 8, .max_bytes = 200, .shards = 1});
  std::string huge_key(300, 'k');
  cache.Put(huge_key, MakeEstimate(1.0), 0);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_FALSE(cache.Get(huge_key).has_value());
}

TEST(QueryCacheTest, ClearDropsEntriesButKeepsCounterTotals) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20, .shards = 2});
  cache.Put("a", MakeEstimate(1), 0);
  cache.Put("b", MakeEstimate(1), 0);
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Clear();
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.hits, 1u);  // history survives
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(QueryCacheTest, ErasePrefixRemovesOnlyThatEnginesEntries) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20, .shards = 4});
  cache.Put("sports\x1f""1\x1f""q1", MakeEstimate(1), 0);
  cache.Put("sports\x1f""1\x1f""q2", MakeEstimate(2), 0);
  cache.Put("science\x1f""2\x1f""q1", MakeEstimate(3), 0);
  EXPECT_EQ(cache.ErasePrefix("sports\x1f"), 2u);
  EXPECT_FALSE(cache.Get("sports\x1f""1\x1f""q1").has_value());
  EXPECT_FALSE(cache.Get("sports\x1f""1\x1f""q2").has_value());
  EXPECT_TRUE(cache.Get("science\x1f""2\x1f""q1").has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 2u);
  EXPECT_EQ(c.evictions, 0u);  // a sweep is not LRU pressure
  EXPECT_EQ(c.entries, 1u);
}

TEST(QueryCacheTest, ErasePrefixReclaimsBudgetImmediately) {
  // The satellite-1 regression: before the sweep existed, entries under a
  // dead generation stayed resident until LRU pressure found them, so a
  // reload/update squatted on the budget and evicted LIVE entries. A
  // sweep must hand the budget back at once: after erasing the dead
  // engine's entries, inserting fresh ones must not evict the survivors.
  QueryCache cache({.max_entries = 4, .max_bytes = 1u << 20, .shards = 1});
  cache.Put("dead\x1f""1\x1f""q1", MakeEstimate(1), 0);
  cache.Put("dead\x1f""1\x1f""q2", MakeEstimate(1), 0);
  cache.Put("live\x1f""1\x1f""q1", MakeEstimate(1), 0);
  cache.Put("live\x1f""1\x1f""q2", MakeEstimate(1), 0);
  // The cache is exactly full. Sweep the dead engine, then refill with
  // its next generation.
  std::size_t full_bytes = cache.counters().bytes;
  EXPECT_EQ(cache.ErasePrefix("dead\x1f"), 2u);
  EXPECT_LT(cache.counters().bytes, full_bytes);  // budget handed back now
  cache.Put("dead\x1f""2\x1f""q1", MakeEstimate(1), 0);
  cache.Put("dead\x1f""2\x1f""q2", MakeEstimate(1), 0);
  // The survivors were never evicted — the swept budget absorbed the new
  // generation entirely.
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_TRUE(cache.Get("live\x1f""1\x1f""q1").has_value());
  EXPECT_TRUE(cache.Get("live\x1f""1\x1f""q2").has_value());
  EXPECT_TRUE(cache.Get("dead\x1f""2\x1f""q1").has_value());
  EXPECT_TRUE(cache.Get("dead\x1f""2\x1f""q2").has_value());
  EXPECT_EQ(cache.counters().entries, 4u);
}

TEST(QueryCacheTest, StalePutIsRefusedAfterEpochAdvance) {
  // A request computed under snapshot epoch E races an invalidation that
  // published epoch E+1 and swept: its late Put must be refused, or the
  // dead generation re-enters the cache right behind the sweep.
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20, .shards = 1});
  cache.Put("a", MakeEstimate(1), /*epoch=*/0);
  cache.SetMinEpoch(1);
  cache.Put("b", MakeEstimate(1), /*epoch=*/0);  // stale: refused
  EXPECT_FALSE(cache.Get("b").has_value());
  cache.Put("c", MakeEstimate(1), /*epoch=*/1);  // current: accepted
  EXPECT_TRUE(cache.Get("c").has_value());
  auto c = cache.counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.entries, 2u);
}

TEST(QueryCacheTest, MinEpochIsMonotone) {
  QueryCache cache({.max_entries = 8, .max_bytes = 1u << 20, .shards = 1});
  cache.SetMinEpoch(5);
  cache.SetMinEpoch(3);  // out-of-order call must not lower the bar
  cache.Put("k", MakeEstimate(1), /*epoch=*/4);
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.counters().expired, 1u);
  cache.Put("k", MakeEstimate(1), /*epoch=*/5);
  EXPECT_TRUE(cache.Get("k").has_value());
}

TEST(QueryCacheTest, ConcurrentHammeringKeepsCountersConsistent) {
  QueryCache cache({.max_entries = 64, .max_bytes = 1u << 20, .shards = 8});
  constexpr std::size_t kOps = 4000;
  constexpr std::size_t kKeys = 97;
  std::atomic<std::uint64_t> observed_hits{0};
  util::ThreadPool pool(8);
  pool.ParallelFor(kOps, [&](std::size_t i) {
    std::string key = "key" + std::to_string(i % kKeys);
    auto hit = cache.Get(key);
    if (hit.has_value()) {
      observed_hits.fetch_add(1, std::memory_order_relaxed);
      // A cached estimate is always intact, never half-written.
      EXPECT_DOUBLE_EQ(hit->no_doc, static_cast<double>(i % kKeys));
    } else {
      cache.Put(key, {static_cast<double>(i % kKeys), 0.5}, 0);
    }
  });
  auto c = cache.counters();
  // Every Get counted exactly once, as either a hit or a miss.
  EXPECT_EQ(c.hits + c.misses, kOps);
  EXPECT_EQ(c.hits, observed_hits.load());
  EXPECT_LE(c.entries, 64u);
}

}  // namespace
}  // namespace useful::service
