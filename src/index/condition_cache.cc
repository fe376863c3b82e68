#include "index/condition_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rudolf {

ConditionCache::ConditionCache(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

std::shared_ptr<const Bitset> ConditionCache::Get(const ConditionKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    RUDOLF_COUNTER_INC("index.cache.misses");
    return nullptr;
  }
  ++stats_.hits;
  RUDOLF_COUNTER_INC("index.cache.hits");
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ConditionCache::Put(const ConditionKey& key,
                         std::shared_ptr<const Bitset> bitmap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // A completed stale entry: keep the new bitmap, refresh recency.
    it->second->second = std::move(bitmap);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(bitmap));
  map_.emplace(key, lru_.begin());
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    RUDOLF_COUNTER_INC("index.cache.evictions");
  }
}

void ConditionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  stats_ = ConditionCacheStats{};
}

size_t ConditionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

ConditionCacheStats ConditionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ConditionCache::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [key, bitmap] : lru_) {
    bytes += sizeof(key) + sizeof(bitmap);
    if (bitmap != nullptr) bytes += bitmap->WordCount() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace rudolf
