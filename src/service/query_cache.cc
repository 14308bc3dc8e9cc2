#include "service/query_cache.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/string_util.h"

namespace useful::service {

namespace {
// Rough fixed cost of one entry beyond its key string: list/map node plus
// the inline estimate. Keeps the byte budget honest for many tiny entries.
constexpr std::size_t kEntryOverhead = 96;

// Exact bit pattern of a double as 16 hex digits, so keying never depends
// on decimal formatting precision. Negative zero is canonicalized to
// +0.0 first: -0.0 == 0.0 numerically (identical rankings), so letting
// their distinct bit patterns through would split one logical entry in
// two.
void AppendDoubleBits(std::string* out, double value) {
  if (value == 0.0) value = 0.0;
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  char hex[16];
  for (int i = 15; i >= 0; --i, bits >>= 4) {
    hex[i] = "0123456789abcdef"[bits & 0xf];
  }
  out->append(hex, sizeof(hex));
}
}  // namespace

QueryCache::QueryCache(QueryCacheOptions options) {
  std::size_t num_shards = std::max<std::size_t>(1, options.shards);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  entries_per_shard_ =
      std::max<std::size_t>(1, options.max_entries / num_shards);
  bytes_per_shard_ = options.max_bytes / num_shards;
}

std::string QueryCache::MakeKey(std::string_view estimator, double threshold,
                                const ir::Query& query) {
  // (term, weight, sign) triples sorted by term; the parsers already merged
  // duplicates, so terms are unique and the sort is a total order. Keying
  // on the *normalized* weight bits canonicalizes user-weight spellings:
  // "a^2" and "a^2.0" accumulate the same frequency, and a redundant
  // weight ("a^5" alone, normalized back to 1.0) keys identically to the
  // flat query — semantically equal queries share one entry. The negation
  // marker and the MSM suffix keep semantically *different* queries from
  // colliding with flat ones (normalized weights alone would: a negated
  // term keeps its positive weight).
  std::vector<const ir::QueryTerm*> terms;
  terms.reserve(query.terms.size());
  for (const ir::QueryTerm& t : query.terms) terms.push_back(&t);
  std::sort(terms.begin(), terms.end(),
            [](const ir::QueryTerm* a, const ir::QueryTerm* b) {
              return a->term < b->term;
            });
  std::string key;
  key.reserve(estimator.size() + 18 + query.terms.size() * 25 + 24);
  key.append(estimator);
  key.push_back('\x1f');
  AppendDoubleBits(&key, threshold);
  for (const ir::QueryTerm* t : terms) {
    key.push_back('\x1f');
    key.append(t->term);
    key.push_back('\x1e');
    AppendDoubleBits(&key, t->weight);
    key.push_back(t->negated ? '!' : '+');
  }
  if (query.min_should_match > 0) {
    key.push_back('\x1f');
    key.append(StringPrintf("MSM%zu", query.min_should_match));
  }
  return key;
}

std::string QueryCache::EngineKey(std::string_view engine, std::uint64_t gen,
                                  std::string_view query_key) {
  std::string key;
  key.reserve(engine.size() + query_key.size() + 24);
  key.append(engine);
  key.push_back('\x1f');
  char digits[24];
  key.append(digits, std::to_chars(digits, digits + sizeof(digits), gen).ptr);
  key.push_back('\x1f');
  key.append(query_key);
  return key;
}

QueryCache::Shard& QueryCache::ShardFor(std::string_view key) {
  return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

std::size_t QueryCache::EntryBytes(std::string_view key) {
  return kEntryOverhead + key.size() + sizeof(CachedEstimate);
}

std::optional<CachedEstimate> QueryCache::Get(std::string_view key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void QueryCache::Put(std::string_view key, const CachedEstimate& value,
                     std::uint64_t epoch) {
  if (epoch < min_epoch_.load(std::memory_order_acquire)) {
    // Computed under a snapshot an invalidation already retired; caching
    // it would resurrect a dead-generation entry behind the sweep.
    expired_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::size_t bytes = EntryBytes(key);
  if (bytes_per_shard_ > 0 && bytes > bytes_per_shard_) return;  // oversize
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    it->second->value = value;
    it->second->bytes = bytes;
    shard.bytes += bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{std::string(key), value, bytes});
    shard.index.emplace(std::string_view(shard.lru.front().key),
                        shard.lru.begin());
    shard.bytes += bytes;
  }
  while (shard.lru.size() > entries_per_shard_ ||
         (bytes_per_shard_ > 0 && shard.bytes > bytes_per_shard_ &&
          shard.lru.size() > 1)) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(std::string_view(victim.key));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryCache::SetMinEpoch(std::uint64_t epoch) {
  // Monotone max: concurrent mutators may race here, the larger epoch
  // must win.
  std::uint64_t seen = min_epoch_.load(std::memory_order_relaxed);
  while (seen < epoch && !min_epoch_.compare_exchange_weak(
                             seen, epoch, std::memory_order_release,
                             std::memory_order_relaxed)) {
  }
}

std::size_t QueryCache::ErasePrefix(std::string_view prefix) {
  std::size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.size() >= prefix.size() &&
          std::string_view(it->key).substr(0, prefix.size()) == prefix) {
        shard->bytes -= it->bytes;
        shard->index.erase(std::string_view(it->key));
        it = shard->lru.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
  }
  expired_.fetch_add(erased, std::memory_order_relaxed);
  return erased;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

QueryCache::Counters QueryCache::counters() const {
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.expired = expired_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    c.entries += shard->lru.size();
    c.bytes += shard->bytes;
  }
  return c;
}

}  // namespace useful::service
