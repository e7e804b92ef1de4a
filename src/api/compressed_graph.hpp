// slugger::CompressedGraph — the service-grade handle to one compressed
// graph. Everything a server needs after (or instead of) running the
// Engine goes through this class: neighbor/degree queries, full decode,
// losslessness verification, and persistence.
//
// A handle is backed in one of two ways:
//   - in-memory: owns a SummaryGraph (the classic mode);
//   - paged: holds a storage::PagedSummarySource and serves queries
//     straight off the on-disk v2 pages, faulting in only the pages a
//     query's ancestor chain touches. Analytics (PageRank/Bfs/Triangles/
//     Decode/Verify) and summary() transparently materialize the full
//     summary on first use; Materialize() does it explicitly so the
//     caller sees the Status.
//
// Persistence lives in storage/storage.hpp (slugger::storage::Open /
// Save / Serialize / OpenBuffer).
//
// Thread-safety contract: after construction the summary is immutable.
// All const members are safe to call from any number of threads
// concurrently, PROVIDED each querying thread passes its own
// QueryScratch (or uses the scratch-free overloads, which keep one
// scratch per thread internally). Lazy materialization synchronizes
// internally and happens at most once per underlying source; so does the
// in-memory record layout queries walk, built at the first query. Non-
// const operations (move-assign, destruction) require external
// exclusion, as usual.
#ifndef SLUGGER_API_COMPRESSED_GRAPH_HPP_
#define SLUGGER_API_COMPRESSED_GRAPH_HPP_

#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace slugger {

class ThreadPool;

namespace storage {
class PagedSummarySource;
}  // namespace storage

/// Re-exported so facade users never include summary headers directly.
using QueryScratch = summary::QueryScratch;
using BatchScratch = summary::BatchScratch;
using BatchResult = summary::BatchResult;
using NeighborOverride = summary::NeighborOverride;

class CompressedGraph {
 public:
  /// Empty handle (0 nodes); useful only as a move-assign target.
  CompressedGraph();

  /// Takes ownership of a summary and computes its statistics.
  explicit CompressedGraph(summary::SummaryGraph summary);

  /// Takes ownership of a summary with already-computed statistics.
  CompressedGraph(summary::SummaryGraph summary, summary::SummaryStats stats);

  /// Paged handle over an open v2 file (see storage::Open, which is how
  /// one is normally built). Queries serve off the pages; copies share
  /// the source and the at-most-once materialization.
  explicit CompressedGraph(
      std::shared_ptr<storage::PagedSummarySource> source);

  /// Number of nodes of the represented (uncompressed) graph.
  NodeId num_nodes() const { return num_nodes_; }

  /// Size/composition statistics of the summary (Eq. 1 / Eq. 10).
  const summary::SummaryStats& stats() const { return stats_; }

  /// True while queries are answered from on-disk pages (a paged handle
  /// that has not materialized yet).
  bool paged() const;

  /// The paged source backing this handle, or nullptr for in-memory
  /// handles. Exposes buffer statistics for observability.
  std::shared_ptr<storage::PagedSummarySource> paged_source() const;

  /// Forces a paged handle fully into memory (idempotent; no-op for
  /// in-memory handles). After OK, queries no longer touch the file.
  /// A failure (corrupt record stream) is sticky and re-returned.
  Status Materialize() const;

  /// Number of queries (single or batched) this handle has absorbed or
  /// surfaced an I/O/corruption error for since construction. Always 0
  /// for in-memory handles, whose queries cannot fail. The signal the
  /// single-query overloads lack: Neighbors()/Degree() degrade errors
  /// to empty answers, so a serving layer (the dist coordinator's
  /// degraded-shard accounting) watches this counter instead of
  /// mistaking holes for isolated nodes. Shared across copies of a
  /// paged handle, like the source itself.
  uint64_t query_errors() const;

  /// The most recent query error (OK when query_errors() == 0).
  Status last_status() const;

  /// One-hop neighbors of v in the represented graph (paper Algorithm 4;
  /// never decompresses the whole graph), in unspecified (coverage) order
  /// on both backends, which share one walk. The returned reference
  /// points into *scratch. Safe to call concurrently from many
  /// threads, one scratch per thread. An out-of-range v (>= num_nodes())
  /// yields an empty list — never undefined behavior; so does an I/O or
  /// corruption error on the paged path. Callers that need those
  /// distinctions should use NeighborsBatch, whose Status reports them.
  const std::vector<NodeId>& Neighbors(NodeId v, QueryScratch* scratch) const;

  /// Scratch-free convenience overload backed by a thread-local scratch;
  /// the reference is valid until this thread's next query.
  const std::vector<NodeId>& Neighbors(NodeId v) const;

  /// Override-aware overload: `overrides` are per-query edge corrections
  /// following the summary::NeighborOverride contract (sorted by
  /// neighbor; v itself and ids >= num_nodes() ignored). This is how
  /// DynamicGraph layers its overlay on any base, paged or not.
  const std::vector<NodeId>& Neighbors(
      NodeId v, QueryScratch* scratch,
      std::span<const NeighborOverride> overrides) const;

  /// Degree of v: the size of Neighbors(v), whose list it leaves in
  /// *scratch. Same concurrency and bounds contract as Neighbors()
  /// (out-of-range v yields 0, as does a paged-path error).
  size_t Degree(NodeId v, QueryScratch* scratch) const;
  size_t Degree(NodeId v) const;
  size_t Degree(NodeId v, QueryScratch* scratch,
                std::span<const NeighborOverride> overrides) const;

  /// Batched Neighbors over a node list (duplicates allowed): answers
  /// land in *out in input order. The batch is processed in hierarchy-
  /// locality order so consecutive nodes can reuse one coverage pass per
  /// shared ancestor chain, and a repeated node copies its previous
  /// answer. It is not faster than a Neighbors() loop: bench_batch_query
  /// (RMAT scale 13, 10,000 uniformly random ids, 4-vCPU host) reads
  /// 0.95-0.98x the loop's speed. Repeats are where it saves work, which
  /// narrows the gap on skewed batches; chain reuse is rare (0.5% on
  /// serve-paged's U5-syn batches). Use it for one input-ordered result
  /// and one Status per batch, not for speed. InvalidArgument if any id is
  /// >= num_nodes(), in which case *out is untouched. On a paged handle
  /// an I/O or corruption error surfaces here as a non-OK Status and
  /// *out is emptied. Concurrency: same as Neighbors() — any number of
  /// threads, one scratch per thread (the scratch-free overload keeps
  /// one per thread internally), so a caller may split a batch across
  /// its own threads.
  Status NeighborsBatch(std::span<const NodeId> nodes, BatchResult* out,
                        BatchScratch* scratch) const;
  Status NeighborsBatch(std::span<const NodeId> nodes, BatchResult* out) const;

  /// Batched Degree under the same contract: degrees->at(i) is the size
  /// of nodes[i]'s list, counted off a NeighborsBatch into a list buffer
  /// this thread keeps. InvalidArgument leaves *degrees untouched; a paged
  /// I/O or corruption error empties it.
  Status DegreeBatch(std::span<const NodeId> nodes,
                     std::vector<uint64_t>* degrees,
                     BatchScratch* scratch) const;
  Status DegreeBatch(std::span<const NodeId> nodes,
                     std::vector<uint64_t>* degrees) const;

  /// Hierarchy-native analytics (algs/summary_ops): evaluated directly on
  /// the compressed structure at O(n + |P| + |N|) per pass instead of
  /// O(|E|), with results exactly matching the same algorithm run on
  /// Decode() (PageRank up to summation-order rounding). Safe to call
  /// concurrently; a pool parallelizes the per-superedge loops and must
  /// not be shared with an enclosing pool job. A paged handle
  /// materializes first; if that fails, PageRank/Decode return empty,
  /// Bfs returns all-unreached, Triangles returns 0 (use Materialize()
  /// or Verify() to observe the Status).
  std::vector<double> PageRank(double d = 0.85, uint32_t iterations = 20,
                               ThreadPool* pool = nullptr) const;

  /// Hop distances from `start`; unreachable nodes (and every node, if
  /// `start` is out of range) get 0xFFFFFFFF.
  std::vector<uint32_t> Bfs(NodeId start) const;

  /// Exact global triangle count of the represented graph.
  uint64_t Triangles(ThreadPool* pool = nullptr) const;

  /// Reconstructs the exact represented graph. A pool parallelizes the
  /// reconstruction; without one it runs inline on the calling thread, and
  /// the decoded graph is identical for every pool size.
  graph::Graph Decode(ThreadPool* pool = nullptr) const;

  /// Checks that this summary losslessly represents `expected`.
  Status Verify(const graph::Graph& expected, ThreadPool* pool = nullptr) const;

  /// Read-only access to the internal layer, for advanced consumers
  /// (summary-level algorithms in algs/, hierarchy introspection). The
  /// returned summary must never be mutated while queries are in flight.
  /// A paged handle materializes first; on failure the returned summary
  /// is empty (0 leaves) — call Materialize() when the Status matters.
  const summary::SummaryGraph& summary() const;

 private:
  // Shared across copies of a paged handle so the source is opened once
  // and materialization happens at most once no matter how many handles
  // point at it.
  struct PagedBox;
  // The summary in the walk's record layout, built once, at the first
  // query that needs it; shared by copies, whose summaries are equal.
  struct LayoutBox;

  Status ValidateBatch(std::span<const NodeId> nodes) const;
  /// True when queries must go to the pages (paged and not yet
  /// materialized — a failed materialization keeps serving paged).
  bool ServePaged() const;
  const summary::SummaryGraph& ActiveSummary() const;
  const summary::CoverLayout& ActiveLayout() const;

  summary::SummaryGraph summary_;
  summary::SummaryStats stats_;
  // Every in-memory query walks the layout, and batches sort on its rank.
  // It is built lazily: a set-up that builds many handles before serving
  // any (shards, compactions) would otherwise hold every layout at its
  // memory peak. Paged handles build theirs on materialization (box_).
  std::shared_ptr<LayoutBox> layout_;
  NodeId num_nodes_ = 0;
  std::shared_ptr<PagedBox> box_;
};

}  // namespace slugger

#endif  // SLUGGER_API_COMPRESSED_GRAPH_HPP_
