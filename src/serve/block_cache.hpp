#pragma once
// Decoded-block LRU cache of the serving layer.
//
// The serving workload is "an analyst hammers one archive with many
// small queries": the same blocks decode over and over, and decode
// (CRC + LZ decompress + column decode) dominates a selective query.
// BlockCache keeps decoded columns -- keyed by (bundle, block, column)
// -- behind a byte budget with LRU eviction.
//
// Admission is decided by the *caller* (serve::CachingBlockSource): only
// columns a query actually scanned are ever offered, and the query
// planner prunes zone-map-rejected blocks before the scan -- so a block
// a predicate prunes is never decoded and never admitted.  The cache
// itself enforces the byte budget: an insert evicts least-recently-used
// entries until the budget holds again (an entry wider than the whole
// budget is not retained).
//
// All operations are thread-safe -- a scan's pool workers insert
// concurrently -- and Stats is a consistent snapshot.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/value.hpp"

namespace cal::serve {

/// One cached decoded column: exactly one of the three vectors is set,
/// matching the column kind (index columns, real columns, factor
/// values).  `bytes` is the accounting size used against the budget.
struct CachedColumn {
  std::shared_ptr<const std::vector<std::size_t>> idx;
  std::shared_ptr<const std::vector<double>> real;
  std::shared_ptr<const std::vector<Value>> values;
  std::size_t bytes = 0;
};

/// Approximate resident size of a decoded column (vector payload plus
/// string storage of string-valued factors).
std::size_t column_bytes(const std::vector<std::size_t>& column);
std::size_t column_bytes(const std::vector<double>& column);
std::size_t column_bytes(const std::vector<Value>& column);

class BlockCache {
 public:
  struct Options {
    /// Total decoded bytes retained; 0 retains nothing (every lookup
    /// misses).
    std::size_t byte_budget = 256u << 20;
  };

  struct Key {
    std::uint64_t bundle = 0;  ///< catalog-assigned bundle id
    std::uint32_t block = 0;   ///< manifest block index
    std::uint32_t column = 0;  ///< unified column id (query::ColumnSet)

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = std::hash<std::uint64_t>{}(k.bundle);
      h ^= std::hash<std::uint64_t>{}(
               (std::uint64_t{k.block} << 32) | k.column) +
           0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;   ///< wider than the whole budget
    std::size_t bytes = 0;        ///< currently retained
    std::size_t entries = 0;      ///< currently retained
  };

  BlockCache() : BlockCache(Options{}) {}
  explicit BlockCache(Options options);

  /// The entry, or null.  Refreshes recency on hit.
  std::shared_ptr<const CachedColumn> get(const Key& key);

  /// Retains `column` under `key` and evicts LRU entries until the
  /// budget holds.  A key already present keeps its first value.
  void insert(const Key& key, std::shared_ptr<const CachedColumn> column);

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedColumn> column;
    std::list<Key>::iterator lru;
  };

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  ///< front = most recent, back = eviction victim
  Stats stats_;
};

}  // namespace cal::serve
