#include "service/query_cache.h"

#include <algorithm>
#include <cstring>

#include "util/string_util.h"

namespace useful::service {

namespace {
// Rough fixed cost of one entry beyond its key string and slots: list and
// map nodes plus the slot array's header. Keeps the byte budget honest for
// many small entries.
constexpr std::size_t kEntryOverhead = 96;

bool GenBefore(const QueryCache::Slot& slot, std::uint64_t gen) {
  return slot.gen < gen;
}

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

QueryCache::QueryCache(QueryCacheOptions options)
    : max_slots_(options.max_entries), max_bytes_(options.max_bytes) {}

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

std::size_t QueryCache::EntryBytes(std::size_t key_size, std::size_t slots) {
  return kEntryOverhead + key_size + slots * sizeof(Slot);
}

void QueryCache::EraseLocked(std::list<Entry>::iterator it) {
  slots_ -= it->slots.size();
  bytes_ -= it->bytes;
  index_.erase(std::string_view(it->key));
  lru_.erase(it);
}

std::size_t QueryCache::Lookup(std::string_view query_key,
                               std::span<const std::uint64_t> gens,
                               std::span<std::optional<CachedEstimate>> out) {
  std::size_t hits = 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(query_key);
  if (it == index_.end()) {
    std::fill_n(out.begin(), gens.size(), std::nullopt);
  } else {
    lru_.splice(lru_.begin(), lru_, it->second);
    const std::vector<Slot>& slots = it->second->slots;
    // Snapshot generations ascend in practice (they are handed out in
    // registration order), so the cursor usually already points at the
    // next one; the binary search runs only when it doesn't.
    auto cursor = slots.begin();
    for (std::size_t i = 0; i < gens.size(); ++i) {
      if (cursor == slots.end() || cursor->gen != gens[i]) {
        cursor = std::lower_bound(slots.begin(), slots.end(), gens[i],
                                  GenBefore);
      }
      if (cursor != slots.end() && cursor->gen == gens[i]) {
        out[i] = cursor->value;
        ++cursor;
        ++hits;
      } else {
        out[i] = std::nullopt;
      }
    }
  }
  totals_.hits += hits;
  totals_.misses += gens.size() - hits;
  return hits;
}

void QueryCache::Store(std::string_view query_key, std::span<const Slot> slots,
                       std::uint64_t epoch) {
  if (slots.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch < min_epoch_) {
    // Computed under a snapshot an invalidation already retired; caching
    // it would resurrect dead-generation slots behind the sweep. Checked
    // under the lock the sweep takes, so a Store can't slip in between
    // SetMinEpoch and EraseGenerations.
    totals_.expired += slots.size();
    return;
  }
  auto it = index_.find(query_key);
  std::vector<Slot> merged;
  if (it != index_.end()) merged = it->second->slots;
  merged.reserve(merged.size() + slots.size());
  for (const Slot& slot : slots) {
    auto pos = std::lower_bound(merged.begin(), merged.end(), slot.gen,
                                GenBefore);
    if (pos != merged.end() && pos->gen == slot.gen) {
      pos->value = slot.value;
    } else {
      merged.insert(pos, slot);
    }
  }
  std::size_t bytes = EntryBytes(query_key.size(), merged.size());
  if (merged.size() > max_slots_ || (max_bytes_ > 0 && bytes > max_bytes_)) {
    return;  // could never coexist with anything
  }
  if (it != index_.end()) {
    // Merging only adds slots, so neither total can shrink here.
    Entry& entry = *it->second;
    slots_ += merged.size() - entry.slots.size();
    bytes_ += bytes - entry.bytes;
    entry.slots = std::move(merged);
    entry.bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{std::string(query_key), std::move(merged), bytes});
    index_.emplace(std::string_view(lru_.front().key), lru_.begin());
    slots_ += lru_.front().slots.size();
    bytes_ += bytes;
  }
  // The front entry fits on its own, so this stops before reaching it.
  while (slots_ > max_slots_ || (max_bytes_ > 0 && bytes_ > max_bytes_)) {
    totals_.evictions += lru_.back().slots.size();
    EraseLocked(std::prev(lru_.end()));
  }
}

void QueryCache::SetMinEpoch(std::uint64_t epoch) {
  // Monotone max: concurrent mutators may race here, the larger epoch
  // must win.
  std::lock_guard<std::mutex> lock(mu_);
  min_epoch_ = std::max(min_epoch_, epoch);
}

std::size_t QueryCache::EraseGenerations(std::span<const std::uint64_t> gens) {
  std::vector<std::uint64_t> retired(gens.begin(), gens.end());
  std::sort(retired.begin(), retired.end());
  std::size_t erased = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    std::size_t removed = std::erase_if(it->slots, [&](const Slot& slot) {
      return std::binary_search(retired.begin(), retired.end(), slot.gen);
    });
    if (removed == 0) {
      ++it;
      continue;
    }
    erased += removed;
    slots_ -= removed;
    bytes_ -= it->bytes;
    it->bytes = EntryBytes(it->key.size(), it->slots.size());
    bytes_ += it->bytes;
    if (it->slots.empty()) {
      EraseLocked(it++);
    } else {
      ++it;
    }
  }
  totals_.expired += erased;
  return erased;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  slots_ = 0;
  bytes_ = 0;
}

QueryCache::Counters QueryCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = totals_;
  c.entries = slots_;
  c.bytes = bytes_;
  return c;
}

}  // namespace useful::service
