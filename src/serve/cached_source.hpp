#pragma once
// Cache-backed BlockSource of the serving layer.
//
// CachingBlockSource implements the query engine's block-provider seam
// on top of a shared BlockCache.  A scan looks up every (block, column)
// it needs, decodes only the missing columns -- block-parallel, straight
// from the shards -- and inserts them so the next query finds them
// warm; blocks the cache held entirely are then served in parallel
// without touching a shard file.  Because the planner prunes
// zone-map-rejected blocks before the scan ever reaches a source,
// pruned blocks are never decoded and never admitted.
//
// Columns are inserted only after they decode, so a scan that fails
// leaves nothing half-made behind.  The server runs one query at a time
// (see serve/server.hpp), so scans never overlap; the cache's mutex
// guards the concurrent inserts of one scan's pool workers.

#include <cstdint>

#include "io/archive/bbx_reader.hpp"
#include "query/block_source.hpp"
#include "serve/block_cache.hpp"

namespace cal::serve {

class CachingBlockSource final : public query::BlockSource {
 public:
  /// Borrows the reader and the cache; both must outlive the source.
  /// `bundle_id` namespaces this bundle's keys within the shared cache
  /// (the catalog assigns one per bundle).
  CachingBlockSource(const io::archive::BbxReader& reader, BlockCache* cache,
                     std::uint64_t bundle_id)
      : reader_(reader), cache_(cache), bundle_(bundle_id) {}

  void scan(const std::vector<std::size_t>& blocks,
            const std::vector<query::ColumnSet>& needs,
            core::WorkerPool* pool,
            const std::function<void(std::size_t,
                                     const query::DecodedColumns&)>& body)
      const override;

 private:
  const io::archive::BbxReader& reader_;
  BlockCache* cache_;
  std::uint64_t bundle_;
};

}  // namespace cal::serve
