#include "serve/block_cache.hpp"

#include "obs/metrics.hpp"

namespace cal::serve {

std::size_t column_bytes(const std::vector<std::size_t>& column) {
  return column.size() * sizeof(std::size_t);
}

std::size_t column_bytes(const std::vector<double>& column) {
  return column.size() * sizeof(double);
}

std::size_t column_bytes(const std::vector<Value>& column) {
  std::size_t bytes = column.size() * sizeof(Value);
  for (const Value& v : column) {
    if (v.is_string()) bytes += v.as_string().size();
  }
  return bytes;
}

BlockCache::BlockCache(Options options) : options_(options) {}

std::shared_ptr<const CachedColumn> BlockCache::get(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    CAL_COUNT("serve.cache.misses", 1);
    return nullptr;
  }
  ++stats_.hits;
  CAL_COUNT("serve.cache.hits", 1);
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.column;
}

void BlockCache::insert(const Key& key,
                        std::shared_ptr<const CachedColumn> column) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) return;  // first value wins
  ++stats_.inserts;
  CAL_COUNT("serve.cache.inserts", 1);
  const std::size_t bytes = column->bytes;
  if (bytes > options_.byte_budget || options_.byte_budget == 0) {
    // Wider than the whole budget, or a retain-nothing budget (which
    // must reject even zero-byte columns): nothing is retained.
    ++stats_.rejected;
    CAL_COUNT("serve.cache.rejected", 1);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(column), lru_.begin()});
  stats_.bytes += bytes;
  ++stats_.entries;
  while (stats_.bytes > options_.byte_budget) {
    const auto victim = entries_.find(lru_.back());
    stats_.bytes -= victim->second.column->bytes;
    --stats_.entries;
    ++stats_.evictions;
    CAL_COUNT("serve.cache.evictions", 1);
    entries_.erase(victim);
    lru_.pop_back();
  }
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cal::serve
