// LRU cache of per-condition capture bitmaps, keyed by (attribute,
// condition). One rule's capture is the intersection of its conditions'
// bitmaps, and neighbouring rules in a refinement session (minimal
// generalizations) share all but one condition with an existing rule — so
// the cache turns a candidate evaluation into one column scan plus arity−1
// hits. A RuleEvaluator owns one (none when its cache is off) and fills it
// from its blocked scan pass. Entries are dense Bitsets over the prefix the
// evaluator had when they were stored, so an intersection is a straight
// word-wise AND. The cache itself never rewrites an entry: when the
// evaluator's prefix grows, the evaluator completes a shorter entry on its
// next hit and Puts the completed copy back. Thread-safe: a single mutex
// guards the map and recency list. Entries are shared_ptr, so an eviction
// or replacement never invalidates a bitmap a batch still holds and
// intersects.

#ifndef RUDOLF_INDEX_CONDITION_CACHE_H_
#define RUDOLF_INDEX_CONDITION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "rules/condition.h"
#include "util/bitset.h"

namespace rudolf {

/// \brief Value identity of one (attribute, condition) pair.
struct ConditionKey {
  uint32_t attribute = 0;
  AttrKind kind = AttrKind::kNumeric;
  int64_t a = 0;  ///< interval lo / concept id
  int64_t b = 0;  ///< interval hi / 0

  static ConditionKey For(size_t attribute, const Condition& cond) {
    ConditionKey key;
    key.attribute = static_cast<uint32_t>(attribute);
    key.kind = cond.kind();
    if (cond.kind() == AttrKind::kCategorical) {
      key.a = static_cast<int64_t>(cond.concept_id());
    } else {
      key.a = cond.interval().lo;
      key.b = cond.interval().hi;
    }
    return key;
  }

  bool operator==(const ConditionKey&) const = default;
};

struct ConditionKeyHash {
  size_t operator()(const ConditionKey& key) const {
    uint64_t h = key.attribute * 0x9E3779B97F4A7C15ULL;
    h ^= (static_cast<uint64_t>(key.kind) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
    h ^= (static_cast<uint64_t>(key.a) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
    h ^= (static_cast<uint64_t>(key.b) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
    return static_cast<size_t>(h);
  }
};

/// Hit/miss/eviction counters (monotonic since construction or Clear()).
struct ConditionCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
};

/// \brief Thread-safe LRU map from ConditionKey to a shared capture bitmap.
class ConditionCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit ConditionCache(size_t capacity = kDefaultCapacity);

  /// The cached bitmap, refreshed as most-recently used; null on miss.
  std::shared_ptr<const Bitset> Get(const ConditionKey& key);

  /// Inserts (or refreshes) an entry, evicting least-recently-used entries
  /// beyond capacity.
  void Put(const ConditionKey& key, std::shared_ptr<const Bitset> bitmap);

  /// Drops every entry (stats are reset too).
  void Clear();

  /// Approximate heap bytes of the cached bitmaps (plus per-entry key
  /// overhead) — the fleet's eviction-accounting granularity. Takes the
  /// cache lock.
  size_t ApproxMemoryBytes() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  ConditionCacheStats stats() const;

 private:
  using LruList =
      std::list<std::pair<ConditionKey, std::shared_ptr<const Bitset>>>;

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<ConditionKey, LruList::iterator, ConditionKeyHash> map_;
  ConditionCacheStats stats_;
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_CONDITION_CACHE_H_
