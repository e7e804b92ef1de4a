// Neighbor-source concept: graph algorithms run unchanged on the raw CSR
// graph or on a hierarchical summary via partial decompression (paper
// §VIII-C). A Source provides num_nodes() and Neighbors(u).
#ifndef SLUGGER_ALGS_NEIGHBOR_SOURCE_HPP_
#define SLUGGER_ALGS_NEIGHBOR_SOURCE_HPP_

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/graph.hpp"
#include "summary/cover_layout.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/summary_graph.hpp"

namespace slugger::algs {

/// Adapter over an uncompressed graph.
class RawSource {
 public:
  explicit RawSource(const graph::Graph& g) : g_(&g) {}
  NodeId num_nodes() const { return g_->num_nodes(); }
  std::span<const NodeId> Neighbors(NodeId u) { return g_->Neighbors(u); }

 private:
  const graph::Graph* g_;
};

/// Adapter over a summary: lays the summary out once as a
/// summary::CoverLayout and materializes the whole adjacency up front
/// through its QueryNeighborsBatch — the hierarchy-locality walk pays one
/// coverage application per shared ancestor chain instead of one full
/// Algorithm-4 pass per node — then serves Neighbors(u) as O(1) span
/// lookups, each list in the walk's unspecified coverage order. The batch
/// sweep runs in node blocks (`block_size`) so peak per-block scratch
/// stays bounded on large summaries; the layout is dropped once the sweep
/// ends.
///
/// The right source for multi-pass analytics (PageRank's T sweeps, BFS
/// frontiers that revisit hubs): one amortized sweep, then every pass is
/// pure array reads. For a single pass over few nodes, calling
/// summary::QueryNeighbors with a QueryScratch costs less. Thread-safe
/// after construction (all members are immutable; Neighbors is const).
class BatchedSummarySource {
 public:
  explicit BatchedSummarySource(const summary::SummaryGraph& s,
                                size_t block_size = size_t{1} << 16)
      : num_nodes_(s.num_leaves()) {
    adjacency_.offsets.reserve(num_nodes_ + 1);
    adjacency_.offsets.push_back(0);
    const summary::CoverLayout layout(s);
    summary::BatchScratch scratch;
    summary::BatchResult block;
    std::vector<NodeId> ids;
    for (NodeId begin = 0; begin < num_nodes_;) {
      const NodeId end = static_cast<NodeId>(
          std::min<size_t>(num_nodes_, begin + block_size));
      ids.resize(end - begin);
      std::iota(ids.begin(), ids.end(), begin);
      summary::QueryNeighborsBatch(layout, ids, &block, &scratch);
      const uint64_t offset = adjacency_.neighbors.size();
      adjacency_.neighbors.insert(adjacency_.neighbors.end(),
                                  block.neighbors.begin(),
                                  block.neighbors.end());
      for (size_t i = 1; i < block.offsets.size(); ++i) {
        adjacency_.offsets.push_back(offset + block.offsets[i]);
      }
      begin = end;
    }
  }

  NodeId num_nodes() const { return num_nodes_; }
  std::span<const NodeId> Neighbors(NodeId u) const { return adjacency_[u]; }

 private:
  NodeId num_nodes_ = 0;
  summary::BatchResult adjacency_;  ///< full CSR, offsets over all nodes
};

}  // namespace slugger::algs

#endif  // SLUGGER_ALGS_NEIGHBOR_SOURCE_HPP_
