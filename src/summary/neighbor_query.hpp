// Partial decompression: neighbor retrieval directly on a summary
// (paper Algorithm 4) without reconstructing the whole graph: the
// in-memory instance of the walk in summary/coverage_walk.hpp. It reads a
// CoverLayout, the summary laid out once in the walk's fixed-width
// records (contiguous leaf_at scans); slugger::CompressedGraph,
// algs::BatchedSummarySource and the stream compactor's fold walk one.
// The walk answers neighbor lists only; a degree is a list's size.
//
// The query state is split so a service can serve concurrent readers:
// the layout is the immutable shared index, and ALL mutable per-query
// state lives in a QueryScratch the caller owns. Any number of threads
// may call QueryNeighbors on the same layout simultaneously as long as
// each brings its own scratch.
#ifndef SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_
#define SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "summary/cover_layout.hpp"
#include "util/types.hpp"

namespace slugger::summary {

/// Reusable per-caller (or per-thread) query buffers. Stays allocation-
/// free after warmup; automatically grows when reused across summaries of
/// different sizes (the coverage counters are all zero between queries,
/// so growth never observes stale state).
struct QueryScratch {
  std::vector<int32_t> count;        ///< per-subnode signed coverage
  std::vector<NodeId> touched;       ///< subnodes with nonzero entries
  std::vector<NodeId> result;        ///< last Neighbors() answer
};

/// One adjacency correction merged into the coverage walk: sign > 0
/// forces `neighbor` into the answer, sign < 0 forces it out, regardless
/// of the summary's own net coverage of the pair. This is the overlay
/// hook of the dynamic-update subsystem (stream::EdgeOverlay): a summary
/// stays immutable while a correction set layered on top mutates the
/// represented graph, and queries merge the two right in the walk.
struct NeighborOverride {
  NodeId neighbor;
  EdgeSign sign;
};

/// Sign of the override on `neighbor` in a list sorted by neighbor id
/// (0 when absent) — the one lookup every override consumer shares, so
/// membership probes can never diverge from the stored order.
inline EdgeSign FindOverrideSign(std::span<const NeighborOverride> sorted,
                                 NodeId neighbor) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), neighbor,
                             [](const NeighborOverride& o, NodeId key) {
                               return o.neighbor < key;
                             });
  return it != sorted.end() && it->neighbor == neighbor ? it->sign : 0;
}

/// Adjacency lists of one batched query, concatenated: the neighbors of
/// the i-th input node are neighbors[offsets[i] .. offsets[i+1]), in the
/// caller's input order (not the internal processing order).
struct BatchResult {
  std::vector<NodeId> neighbors;
  std::vector<uint64_t> offsets;  ///< batch size + 1 entries (0 when empty)

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const NodeId> operator[](size_t i) const {
    return std::span<const NodeId>(neighbors)
        .subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// The size of each list of `lists`, into *sizes (empty when `lists` is).
inline void ListSizes(const BatchResult& lists, std::vector<uint64_t>* sizes) {
  sizes->resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    (*sizes)[i] = lists.offsets[i + 1] - lists.offsets[i];
  }
}

/// Per-caller buffers of the batched query path. Like QueryScratch it is
/// allocation-free after warmup and reusable across summaries; every
/// coverage counter and membership flag is zero between batches, so one
/// scratch may serve interleaved single and batched queries.
struct BatchScratch {
  QueryScratch query;                ///< coverage counters
  std::vector<uint8_t> in_touched;   ///< membership flags for query.touched
  std::vector<SupernodeId> chains;   ///< concatenated root-first chains
  std::vector<uint64_t> chain_begin; ///< chain offsets (batch size + 1)
  std::vector<uint32_t> order;       ///< batch positions, locality-sorted
  std::vector<uint64_t> sort_buffer; ///< the order sort's second buffer
  std::vector<NodeId> staged;        ///< neighbors in processing order
  std::vector<uint64_t> staged_begin;
};

/// One-hop neighbors of subnode v in the represented graph, in
/// unspecified order, with `overrides` applied; the returned reference
/// points into *scratch and is valid until its next use. Implements
/// Algorithm 4: walk v's ancestors, apply the signed coverage of their
/// superedges, keep subnodes with positive net. Each override's subnode
/// is forced present (sign > 0) or absent (sign < 0); every override
/// neighbor must appear at most once, and an override for v itself (a
/// simple graph has no self-loops) or for an id >= num_leaves() (no pair
/// of this summary) is ignored. Thread-safe for concurrent callers with
/// distinct scratches. v must be < layout.num_leaves() (asserted);
/// untrusted ids are validated one layer up, at the
/// slugger::CompressedGraph boundary.
const std::vector<NodeId>& QueryNeighbors(
    const CoverLayout& layout, NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides = {});

/// The raw coverage pass of Algorithm 4: walks the ancestor chain of v
/// and leaves the NET signed coverage of every covered pair {v, u} in
/// scratch->count[u], recording covered subnodes in scratch->touched
/// (entries may repeat when coverage cancels and returns; count is
/// authoritative). Exposed for consumers that need the magnitude, not
/// just the sign — the stream compactor folds corrections by solving for
/// the leaf-level superedge that flips a pair's net across zero. The
/// caller MUST restore the between-queries scratch invariant afterwards:
/// zero count over touched, then clear touched.
void AccumulateCoverage(const CoverLayout& layout, NodeId v,
                        QueryScratch* scratch);

/// Batched QueryNeighbors: answers every node of `nodes` (duplicates
/// allowed) into *result, in input order. Internally processes the batch
/// in hierarchy-locality order (ascending leaf-preorder rank, so nodes
/// sharing a long ancestor chain become adjacent) and keeps the signed
/// coverage of the shared ancestor-chain prefix applied across
/// consecutive nodes, so the dominant cost of Algorithm 4 — expanding
/// each ancestor's superedges to leaves — is paid once per distinct chain
/// segment instead of once per node. Every node must be < num_leaves()
/// (asserted). Thread-safe for concurrent callers with distinct
/// scratches.
void QueryNeighborsBatch(const CoverLayout& layout,
                         std::span<const NodeId> nodes, BatchResult* result,
                         BatchScratch* scratch);

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_
