#include "serve/cached_source.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "obs/trace.hpp"

namespace cal::serve {

namespace {

using query::ColumnSet;
using query::DecodedColumns;

/// Wires one cached column into its slot of a DecodedColumns by unified
/// column id (0 seq, 1 cell, 2 rep, 3 ts, 4+f factor, 4+nf+m metric).
void place_column(DecodedColumns* d, std::uint32_t id,
                  const CachedColumn& col, std::size_t n_factors) {
  switch (id) {
    case 0: d->seq = col.idx; return;
    case 1: d->cell = col.idx; return;
    case 2: d->rep = col.idx; return;
    case 3: d->ts = col.real; return;
    default: break;
  }
  if (id < 4 + n_factors) {
    d->factors[id - 4] = col.values;
  } else {
    d->metrics[id - 4 - n_factors] = col.real;
  }
}

/// Lifts one decoded column out of a DecodedColumns into cacheable form,
/// with its byte accounting.
CachedColumn take_column(const DecodedColumns& d, std::uint32_t id,
                         std::size_t n_factors) {
  CachedColumn col;
  switch (id) {
    case 0: col.idx = d.seq; break;
    case 1: col.idx = d.cell; break;
    case 2: col.idx = d.rep; break;
    case 3: col.real = d.ts; break;
    default:
      if (id < 4 + n_factors) {
        col.values = d.factors[id - 4];
      } else {
        col.real = d.metrics[id - 4 - n_factors];
      }
      break;
  }
  if (col.idx) col.bytes = column_bytes(*col.idx);
  if (col.real) col.bytes = column_bytes(*col.real);
  if (col.values) col.bytes = column_bytes(*col.values);
  return col;
}

/// A ColumnSet selecting exactly `ids`.
ColumnSet set_of(const std::vector<std::uint32_t>& ids, std::size_t n_factors,
                 std::size_t n_metrics) {
  ColumnSet set(n_factors, n_metrics);
  for (const std::uint32_t id : ids) {
    switch (id) {
      case 0: set.seq = true; break;
      case 1: set.cell = true; break;
      case 2: set.rep = true; break;
      case 3: set.ts = true; break;
      default:
        if (id < 4 + n_factors) {
          set.factors[id - 4] = 1;
        } else {
          set.metrics[id - 4 - n_factors] = 1;
        }
        break;
    }
  }
  return set;
}

/// Per-block bookkeeping of one scan.
struct BlockWork {
  std::size_t block = 0;           ///< manifest block index
  std::vector<std::uint32_t> ids;  ///< every column the scan needs
  /// Columns, parallel to `ids` (null until cached or decoded).
  std::vector<std::shared_ptr<const CachedColumn>> cols;
  std::vector<std::uint32_t> missing;  ///< ids the cache did not hold
};

}  // namespace

void CachingBlockSource::scan(
    const std::vector<std::size_t>& blocks,
    const std::vector<query::ColumnSet>& needs, core::WorkerPool* pool,
    const std::function<void(std::size_t, const query::DecodedColumns&)>&
        body) const {
  if (needs.size() != blocks.size()) {
    throw std::invalid_argument("serve: scan needs one ColumnSet per block");
  }
  CAL_SPAN("serve.cached_scan");
  const io::archive::Manifest& manifest = reader_.manifest();
  const std::size_t n_factors = manifest.factor_names.size();
  const std::size_t n_metrics = manifest.metric_names.size();

  const auto assemble = [&](const BlockWork& w) {
    DecodedColumns d;
    d.records = manifest.blocks[w.block].records;
    d.factors.resize(n_factors);
    d.metrics.resize(n_metrics);
    for (std::size_t i = 0; i < w.ids.size(); ++i) {
      place_column(&d, w.ids[i], *w.cols[i], n_factors);
    }
    return d;
  };

  // Look up every (block, column).
  std::vector<BlockWork> work(blocks.size());
  std::vector<std::size_t> ready;     // fully cached: no shard access
  std::vector<std::size_t> decoding;  // has columns the cache lacks
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    BlockWork& w = work[i];
    w.block = blocks[i];
    w.ids = needs[i].column_ids();
    w.cols.resize(w.ids.size());
    for (std::size_t c = 0; c < w.ids.size(); ++c) {
      w.cols[c] = cache_->get(
          {bundle_, static_cast<std::uint32_t>(w.block), w.ids[c]});
      if (!w.cols[c]) w.missing.push_back(w.ids[c]);
    }
    (w.missing.empty() ? ready : decoding).push_back(i);
  }

  // Decode the missing columns block-parallel, insert them, and run the
  // body.  A column is inserted only once it has decoded, so a failed
  // scan leaves nothing half-made in the cache.
  if (!decoding.empty()) {
    std::vector<std::size_t> shard_blocks(decoding.size());
    for (std::size_t i = 0; i < decoding.size(); ++i) {
      shard_blocks[i] = work[decoding[i]].block;
    }
    reader_.scan_blocks(
        shard_blocks, pool,
        [&](std::size_t i, std::size_t block, const std::string& raw) {
          BlockWork& w = work[decoding[i]];
          const DecodedColumns d = query::decode_columns(
              raw, set_of(w.missing, n_factors, n_metrics),
              manifest.blocks[block].records, n_factors, n_metrics);
          CAL_FAULT_POINT("serve.cache_insert");
          for (const std::uint32_t id : w.missing) {
            auto col = std::make_shared<const CachedColumn>(
                take_column(d, id, n_factors));
            for (std::size_t c = 0; c < w.ids.size(); ++c) {
              if (w.ids[c] == id) w.cols[c] = col;
            }
            cache_->insert({bundle_, static_cast<std::uint32_t>(block), id},
                           std::move(col));
          }
          body(decoding[i], assemble(w));
        });
  }

  // Fully cached blocks -- the warm path.  Parallel because the body
  // (predicate eval + fold) is the remaining cost.
  if (pool != nullptr && ready.size() > 1) {
    pool->run_indexed(ready.size(), [&](std::size_t, std::size_t i) {
      body(ready[i], assemble(work[ready[i]]));
    });
  } else {
    for (const std::size_t i : ready) body(i, assemble(work[i]));
  }
}

}  // namespace cal::serve
