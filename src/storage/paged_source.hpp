// Algorithm-4 neighbor queries served straight off a paged v2 file.
//
// A PagedSummarySource opens a v2 file with O(header + page table) I/O:
// it parses and checksums the header page, reads and checksums the page
// table, and constructs a BufferManager — no supernode record is touched
// until a query needs it. A query then faults in only the pages its
// ancestor-chain coverage walk touches: one locator entry per ancestor,
// the ancestors' records (preorder-adjacent on disk), and the leaf_at
// runs of the superedge endpoints (their intervals are denormalized into
// the edges, so endpoint records are never fetched).
//
// Every byte read off a page is treated as untrusted even though it
// passed a checksum: ids, counts, and intervals are bounded before they
// index anything, parent walks carry a cycle guard, and all failures
// surface as Status (Corruption/IOError), never a crash.
//
// Queries instantiate the one Algorithm-4 walk (summary/coverage_walk.hpp)
// over the records, chain reuse and duplicate copy included; neighbor
// lists come out in coverage order, unspecified as in memory.
//
// Thread-safety: all query methods are const and safe to call from any
// number of threads concurrently, provided each caller brings its own
// scratch — the same contract as summary::QueryNeighbors. The decoded-
// record cache and BufferManager synchronize internally.
#ifndef SLUGGER_STORAGE_PAGED_SOURCE_HPP_
#define SLUGGER_STORAGE_PAGED_SOURCE_HPP_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/buffer_manager.hpp"
#include "storage/format.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/types.hpp"

namespace slugger::storage {

struct PagedOpenOptions {
  BufferOptions buffer;
  /// Fetch (and so checksum) every data page at open. Turns any page
  /// corruption into an open-time error at the cost of O(file) I/O —
  /// off by default, which is what makes cold open O(header).
  bool eager_verify = false;
  /// Decoded supernode records kept hot (across all 16 shards); 0
  /// disables the cache. Records are small (a few edges each), so the
  /// default is a few hundred KiB — it is what keeps warm paged query
  /// throughput near the in-memory walk, which never re-parses varints.
  uint32_t record_cache_capacity = 4096;
};

/// Page-budget accounting of one node's ancestor chain, for tests that
/// assert a query touches no more pages than the chain explains and for
/// observability ("how expensive is this node?").
struct ChainInfo {
  uint32_t chain_len = 0;       ///< supernodes on the chain, leaf included
  uint64_t chain_bytes = 0;     ///< encoded bytes of the chain's records
  uint64_t covered_leaves = 0;  ///< sum of edge endpoint interval lengths
  uint64_t num_edges = 0;       ///< superedges incident to the chain
};

class PagedSummarySource {
 public:
  static StatusOr<std::shared_ptr<PagedSummarySource>> OpenFile(
      const std::string& path, const PagedOpenOptions& options = {});

  /// Takes ownership of a complete in-memory file image.
  static StatusOr<std::shared_ptr<PagedSummarySource>> OpenBuffer(
      std::string bytes, const PagedOpenOptions& options = {});

  NodeId num_leaves() const { return header_.num_leaves; }
  const PagedHeader& header() const { return header_; }
  summary::SummaryStats Stats() const { return header_.ToStats(); }
  BufferStats buffer_stats() const { return buffer_->stats(); }
  Io backend() const { return buffer_->backend(); }

  /// Neighbors of v, in unspecified order, left in scratch->result.
  /// `overrides` follow the summary::NeighborOverride contract (sorted by
  /// neighbor; v itself and ids >= num_leaves() ignored). InvalidArgument
  /// if v >= num_leaves(); on any error scratch->result is empty and the
  /// scratch stays reusable.
  Status Neighbors(NodeId v, summary::QueryScratch* scratch,
                   std::span<const summary::NeighborOverride> overrides = {})
      const;

  StatusOr<uint64_t> Degree(
      NodeId v, summary::QueryScratch* scratch,
      std::span<const summary::NeighborOverride> overrides = {}) const;

  /// summary::QueryNeighborsBatch off the pages: processed in file
  /// preorder, so consecutive nodes share record pages and ancestor
  /// coverage. On error the result is emptied and the scratch stays
  /// reusable.
  Status NeighborsBatch(std::span<const NodeId> nodes,
                        summary::BatchResult* result,
                        summary::BatchScratch* scratch) const;

  Status DegreeBatch(std::span<const NodeId> nodes,
                     std::vector<uint64_t>* degrees,
                     summary::BatchScratch* scratch) const;

  /// Rebuilds the full in-memory summary from the record stream, with
  /// the v1 deserializer's structural validation (bottom-up children,
  /// single parenting, no nested or duplicate superedges) plus the v2
  /// cross-checks (locator agreement, interval/size agreement). This is
  /// the analytics path: decode/PageRank/BFS need the whole summary.
  StatusOr<summary::SummaryGraph> Materialize() const;

  /// Page-budget accounting of v's ancestor chain, climbed as the walk
  /// climbs it.
  StatusOr<ChainInfo> ChainOf(NodeId v) const;

 private:
  struct DecodedEdge {
    int32_t sign;
    uint32_t olo;
    uint32_t olen;
  };
  /// The hot-path slice of one record: enough to climb and to cover.
  struct DecodedRecord {
    uint32_t parent = kInvalidId;  ///< fid of the parent, kInvalidId = root
    uint32_t lo = 0;
    uint32_t len = 0;
    uint64_t bytes = 0;  ///< encoded size in the record stream
    std::vector<DecodedEdge> edges;
  };

  PagedSummarySource() = default;

  static StatusOr<std::shared_ptr<PagedSummarySource>> Finish(
      PagedHeader header, std::unique_ptr<BufferManager> buffer,
      const PagedOpenOptions& options);

  /// Validates the page table section against the header checksum and
  /// extracts the per-page checksum vector.
  static StatusOr<std::vector<uint64_t>> LoadPageTable(
      const PagedHeader& header, const uint8_t* pt_bytes);

  /// Record-stream byte position of fid's record, via its locator entry.
  StatusOr<uint64_t> LocateRecord(uint32_t fid) const;

  /// Parses the hot-path slice of the record at stream position `pos`,
  /// which must belong to `fid`.
  StatusOr<DecodedRecord> ParseRecord(uint32_t fid, uint64_t pos) const;

  /// Cached fid -> decoded record.
  StatusOr<std::shared_ptr<const DecodedRecord>> FetchRecord(
      uint32_t fid) const;

  /// Applies fn(leaf) over leaf_at[lo .. lo+len), page by page.
  template <typename Fn>
  Status ForLeafRange(uint32_t lo, uint32_t len, Fn&& fn) const;

  /// The coverage walk's view of this file: ranks, ancestor records with
  /// the parent-cycle guard, and the leaf_at runs their edges cover.
  class Records;

  StatusOr<summary::SummaryGraph> MaterializeImpl() const;

  PagedHeader header_;
  std::unique_ptr<BufferManager> buffer_;

  // Decoded-record cache, sharded to keep concurrent readers off one
  // lock; FIFO eviction per shard (records are uniform enough that LRU
  // buys little over FIFO here).
  struct CacheShard {
    Mutex mu;
    std::unordered_map<uint32_t, std::shared_ptr<const DecodedRecord>> map
        SLUGGER_GUARDED_BY(mu);
    std::deque<uint32_t> fifo SLUGGER_GUARDED_BY(mu);
  };
  static constexpr size_t kCacheShards = 16;
  mutable std::array<CacheShard, kCacheShards> cache_;
  uint32_t cache_capacity_per_shard_ = 0;
};

}  // namespace slugger::storage

#endif  // SLUGGER_STORAGE_PAGED_SOURCE_HPP_
