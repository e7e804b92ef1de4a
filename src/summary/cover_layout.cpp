#include "summary/cover_layout.hpp"

#include <utility>

namespace slugger::summary {

CoverLayout::CoverLayout(const SummaryGraph& summary) {
  const HierarchyForest& forest = summary.forest();
  HierarchyForest::LeafLayout leaves = forest.ComputeLeafLayout();
  const SupernodeId capacity = forest.capacity();
  offset_.assign(capacity, 0);
  uint64_t cells = 0;
  for (SupernodeId s = 0; s < capacity; ++s) {
    if (!forest.IsAlive(s)) continue;
    offset_[s] = cells;
    cells += 1 + summary.EdgeCountOf(s);
  }
  cells_.reserve(cells);
  for (SupernodeId s = 0; s < capacity; ++s) {
    if (!forest.IsAlive(s)) continue;
    cells_.push_back(PackCoverHeader(
        forest.Parent(s), static_cast<uint32_t>(summary.EdgeCountOf(s))));
    summary.ForEachEdgeOf(s, [&](SupernodeId other, EdgeSign sign) {
      cells_.push_back(CoverEdge::Make(
          leaves.lo[other], leaves.hi[other] - leaves.lo[other], sign));
    });
  }
  rank_ = std::move(leaves.rank);
  leaf_at_ = std::move(leaves.leaf_at);
}

}  // namespace slugger::summary
