#include "summary/neighbor_query.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "summary/coverage_walk.hpp"

namespace slugger::summary {

namespace {

/// The walk's view of a bare SummaryGraph: parent pointers, and endpoint
/// leaves expanded on the caller's traversal stack (so concurrent walks
/// with distinct scratches are race-free).
class SummaryRecords {
 public:
  using Handle = SupernodeId;

  SummaryRecords(const SummaryGraph& summary, std::vector<SupernodeId>* stack)
      : summary_(summary), stack_(stack) {}

  NodeId num_leaves() const { return summary_.num_leaves(); }

  template <typename Fn>
  Status ForEachAncestor(NodeId v, Fn&& fn) const {
    const HierarchyForest& forest = summary_.forest();
    for (SupernodeId node = v; node != kInvalidId; node = forest.Parent(node)) {
      Status s = fn(SupernodeId{node});
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  template <typename Fn>
  Status ForEachCovered(SupernodeId node, Fn&& fn) const {
    const HierarchyForest& forest = summary_.forest();
    summary_.ForEachEdgeOf(node, [&](SupernodeId other, EdgeSign sign) {
      forest.ForEachLeafWith(stack_, other, [&](NodeId u) { fn(u, sign); });
    });
    return Status::OK();
  }

 private:
  const SummaryGraph& summary_;
  std::vector<SupernodeId>* stack_;
};

/// The walk's view of a CoverLayout: parents from the record headers, and
/// each edge's endpoint leaves as one contiguous leaf_at run.
class LayoutRecords {
 public:
  using Handle = SupernodeId;

  explicit LayoutRecords(const CoverLayout& layout) : layout_(layout) {}

  NodeId num_leaves() const { return layout_.num_leaves(); }

  template <typename Fn>
  Status ForEachRank(std::span<const NodeId> nodes, Fn&& fn) const {
    const std::vector<uint32_t>& rank = layout_.rank();
    for (size_t i = 0; i < nodes.size(); ++i) fn(i, rank[nodes[i]]);
    return Status::OK();
  }

  template <typename Fn>
  Status ForEachAncestor(NodeId v, Fn&& fn) const {
    for (SupernodeId node = v; node != kInvalidId;
         node = CoverParent(layout_.record(node))) {
      Status s = fn(SupernodeId{node});
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  template <typename Fn>
  Status ForEachCovered(SupernodeId node, Fn&& fn) const {
    const NodeId* leaf_at = layout_.leaf_at();
    for (const CoverEdge& e : CoverEdges(layout_.record(node))) {
      const EdgeSign sign = e.sign();
      const NodeId* end = leaf_at + e.last() + 1;
      for (const NodeId* u = leaf_at + e.lo; u != end; ++u) fn(*u, sign);
    }
    return Status::OK();
  }

 private:
  const CoverLayout& layout_;
};

/// The in-memory walk fails only on an out-of-range id, which callers of
/// this layer rule out (the facade validates untrusted ids).
void ExpectWalked(const Status& status) {
  assert(status.ok());
  (void)status;
}

}  // namespace

void RecordBatchWalk(uint64_t reuse, uint64_t reset, uint64_t dup) {
  // How often the batch walk amortizes work: chain reuse (retract only
  // the divergent ancestor suffix), full resets, and duplicate copy hits.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const chain_reuse = registry.GetCounter(
      "slugger_query_chain_reuse_total",
      "batch nodes that kept a shared ancestor-chain prefix applied");
  static obs::Counter* const chain_reset = registry.GetCounter(
      "slugger_query_chain_reset_total",
      "batch nodes that discarded coverage (single-query strategy)");
  static obs::Counter* const dup_hits = registry.GetCounter(
      "slugger_query_batch_dup_hits_total",
      "batch nodes answered by copying the previous duplicate's answer");
  if (reuse != 0) chain_reuse->Add(reuse);
  if (reset != 0) chain_reset->Add(reset);
  if (dup != 0) dup_hits->Add(dup);
}

void AccumulateCoverage(const SummaryGraph& summary, NodeId v,
                        QueryScratch* scratch) {
  ExpectWalked(
      WalkCoverage(SummaryRecords(summary, &scratch->stack), v, scratch));
}

const std::vector<NodeId>& QueryNeighbors(const SummaryGraph& summary,
                                          NodeId v, QueryScratch* scratch) {
  return QueryNeighbors(summary, v, scratch, {});
}

size_t QueryDegree(const SummaryGraph& summary, NodeId v,
                   QueryScratch* scratch) {
  return QueryDegree(summary, v, scratch, {});
}

const std::vector<NodeId>& QueryNeighbors(
    const SummaryGraph& summary, NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides) {
  ExpectWalked(WalkQuery<false>(SummaryRecords(summary, &scratch->stack), v,
                                scratch, overrides, nullptr));
  return scratch->result;
}

size_t QueryDegree(const SummaryGraph& summary, NodeId v,
                   QueryScratch* scratch,
                   std::span<const NeighborOverride> overrides) {
  uint64_t degree = 0;
  ExpectWalked(WalkQuery<true>(SummaryRecords(summary, &scratch->stack), v,
                               scratch, overrides, &degree));
  return static_cast<size_t>(degree);
}

const std::vector<NodeId>& QueryNeighbors(
    const CoverLayout& layout, NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides) {
  ExpectWalked(WalkQuery<false>(LayoutRecords(layout), v, scratch, overrides,
                                nullptr));
  return scratch->result;
}

size_t QueryDegree(const CoverLayout& layout, NodeId v, QueryScratch* scratch,
                   std::span<const NeighborOverride> overrides) {
  uint64_t degree = 0;
  ExpectWalked(WalkQuery<true>(LayoutRecords(layout), v, scratch, overrides,
                               &degree));
  return static_cast<size_t>(degree);
}

void QueryNeighborsBatch(const CoverLayout& layout,
                         std::span<const NodeId> nodes, BatchResult* result,
                         BatchScratch* scratch) {
  ExpectWalked(WalkBatch<false>(LayoutRecords(layout), nodes, result, nullptr,
                                scratch, &scratch->chains));
}

void QueryDegreeBatch(const CoverLayout& layout, std::span<const NodeId> nodes,
                      std::vector<uint64_t>* degrees, BatchScratch* scratch) {
  ExpectWalked(WalkBatch<true>(LayoutRecords(layout), nodes, nullptr, degrees,
                               scratch, &scratch->chains));
}

}  // namespace slugger::summary
