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
// Records are parsed once, with every bound check, into the walk's
// fixed-width layout (summary/cover_layout.hpp) and published in a
// per-id slot table: a warm lookup is two acquire loads, with no lock and
// no reference count. Published records stay until the source is
// destroyed; record_cache_capacity caps how many are published. On the
// verify-once backends (mmap, memory) a rank or leaf_at page is fetched
// once, its entries are bounded once, and the walk then reads it in place
// without a pin; the pread backend pins each page it reads.
//
// Thread-safety: all query methods are const and safe to call from any
// number of threads concurrently, provided each caller brings its own
// scratch — the same contract as summary::QueryNeighbors. Racing readers
// may parse the same record; one copy is published and the rest are
// dropped. The BufferManager synchronizes internally.
#ifndef SLUGGER_STORAGE_PAGED_SOURCE_HPP_
#define SLUGGER_STORAGE_PAGED_SOURCE_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/buffer_manager.hpp"
#include "storage/format.hpp"
#include "summary/cover_layout.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace slugger::storage {

struct PagedOpenOptions {
  BufferOptions buffer;
  /// Fetch (and so checksum) every data page at open. Turns any page
  /// corruption into an open-time error at the cost of O(file) I/O —
  /// off by default, which is what makes cold open O(header).
  bool eager_verify = false;
  /// Cap on the records published in the walk's layout. A published
  /// record is parsed once and kept until the source is destroyed; a
  /// record past the cap is parsed on every access into storage its call
  /// owns. 0 publishes nothing. Publishing costs about 16 B per record (a
  /// slot, in chunks of 4,096 allocated at their first publish, and a
  /// header) plus 8 B per superedge end; the default keeps every record
  /// of a million-supernode file.
  uint32_t record_cache_capacity = 1u << 20;
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

  /// Frees the published records.
  ~PagedSummarySource();
  PagedSummarySource(const PagedSummarySource&) = delete;
  PagedSummarySource& operator=(const PagedSummarySource&) = delete;

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

  /// Locates and parses fid's record into the walk's layout: *cells gets
  /// its header cell and its edges, *bytes its encoded size.
  Status ParseRecord(uint32_t fid, std::vector<summary::CoverEdge>* cells,
                     uint64_t* bytes) const;

  /// Publishes `record` as fid's when the cap allows and no other reader
  /// did first; returns the published copy, or null when over the cap.
  summary::CoverEdge* Publish(uint32_t fid,
                              std::unique_ptr<summary::CoverEdge[]>* record)
      const;

  /// Applies fn(entry) to entries lo..last of the rank or leaf_at section,
  /// each page's entries bounded by num_leaves once, at its first touch.
  template <typename Fn>
  Status ForIndexRun(const SectionRange& section, uint32_t lo, uint32_t last,
                     Fn&& fn) const;
  Status CheckIndexPage(uint32_t page, const uint8_t* data) const;

  /// The coverage walk's view of this file: ranks, ancestor records with
  /// the parent-cycle guard, and the leaf_at runs their edges cover.
  class Records;

  StatusOr<summary::SummaryGraph> MaterializeImpl() const;

  PagedHeader header_;
  std::unique_ptr<BufferManager> buffer_;
  /// The file image on the verify-once backends, null on pread.
  const uint8_t* image_ = nullptr;
  /// log2 of the rank / leaf_at entries per page.
  uint32_t index_shift_ = 0;

  // Published records: one slot per supernode id, null until its record
  // is published. Slots come in chunks of 2^kSlotChunkBits ids, allocated
  // at the first publish into the chunk, so an open allocates only the
  // chunk table (and none when the cap is 0). Chunks and slots are each
  // written once, by compare-and-swap with release, and freed by the
  // destructor.
  using Slot = std::atomic<summary::CoverEdge*>;
  static constexpr uint32_t kSlotChunkBits = 12;
  static constexpr uint32_t kSlotChunkMask = (1u << kSlotChunkBits) - 1;
  /// fid's published record, or null; one acquire load per level.
  const summary::CoverEdge* Published(uint32_t fid) const {
    if (chunks_ == nullptr) return nullptr;
    const Slot* chunk =
        chunks_[fid >> kSlotChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return chunk[fid & kSlotChunkMask].load(std::memory_order_acquire);
  }
  std::unique_ptr<std::atomic<Slot*>[]> chunks_;
  uint32_t record_cap_ = 0;
  mutable std::atomic<uint32_t> published_{0};
  // Per page of the rank and leaf_at sections, from rank.first_page: 1
  // once the page passed its checksum and its entry bounds (sticky).
  std::unique_ptr<std::atomic<uint8_t>[]> index_checked_;
};

}  // namespace slugger::storage

#endif  // SLUGGER_STORAGE_PAGED_SOURCE_HPP_
