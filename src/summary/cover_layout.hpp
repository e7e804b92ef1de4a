// The fixed-width record layout the Algorithm-4 walk (coverage_walk.hpp)
// reads on both backends. A supernode's record is one header cell — its
// parent and its edge count — followed by its superedge ends, each the
// OTHER endpoint's leaf-preorder interval and the edge's sign in 8 bytes.
// Covering an ancestor is then a scan of contiguous leaf_at runs, one per
// edge, instead of a subtree walk per endpoint.
//
// CoverLayout lays an in-memory summary out this way, once per immutable
// summary (slugger::CompressedGraph builds it at its first query,
// algs::BatchedSummarySource before its sweep); the paged source
// (storage/paged_source.cpp) parses each v2 record into the same cells
// and publishes it once.
#ifndef SLUGGER_SUMMARY_COVER_LAYOUT_HPP_
#define SLUGGER_SUMMARY_COVER_LAYOUT_HPP_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "summary/summary_graph.hpp"
#include "util/types.hpp"

namespace slugger::summary {

/// One superedge end as the walk covers it: the other endpoint's leaves
/// sit at leaf_at[lo .. last()], and the edge's sign is sign(). The last
/// position is below kMaxNodes, so it leaves bit 31 for the sign.
struct CoverEdge {
  uint32_t lo = 0;
  uint32_t last_sign = 0;  ///< last position; bit 31 set for an n-edge

  static constexpr uint32_t kNegative = 0x80000000u;

  /// The end covering leaf_at[lo, lo + len); len >= 1.
  static CoverEdge Make(uint32_t lo, uint32_t len, EdgeSign sign) {
    return CoverEdge{lo, (lo + len - 1) | (sign < 0 ? kNegative : 0u)};
  }
  uint32_t last() const { return last_sign & ~kNegative; }
  EdgeSign sign() const { return (last_sign & kNegative) != 0 ? -1 : +1; }
};

/// The header cell that opens every record.
struct CoverHeader {
  SupernodeId parent = kInvalidId;  ///< kInvalidId at a root
  uint32_t num_edges = 0;
};
static_assert(sizeof(CoverHeader) == sizeof(CoverEdge));

inline CoverEdge PackCoverHeader(SupernodeId parent, uint32_t num_edges) {
  return std::bit_cast<CoverEdge>(CoverHeader{parent, num_edges});
}

/// A record's parent and edges; `record` points at its header cell.
inline SupernodeId CoverParent(const CoverEdge* record) {
  return std::bit_cast<CoverHeader>(record[0]).parent;
}
inline std::span<const CoverEdge> CoverEdges(const CoverEdge* record) {
  return {record + 1, std::bit_cast<CoverHeader>(record[0]).num_edges};
}

/// An in-memory summary in the record layout, plus its leaf preorder
/// (rank, which batch ordering sorts on) and the preorder's inverse
/// (leaf_at, which the edges' intervals index). Built once from
/// HierarchyForest::ComputeLeafLayout(); immutable afterwards, so any
/// number of walks may read it concurrently. Costs 8 bytes per leaf
/// (rank, leaf_at), 8 per supernode id (offset), 8 per alive supernode
/// (header) and 8 per superedge end.
class CoverLayout {
 public:
  CoverLayout() = default;
  explicit CoverLayout(const SummaryGraph& summary);

  NodeId num_leaves() const { return static_cast<NodeId>(rank_.size()); }
  /// Leaf -> preorder position.
  const std::vector<uint32_t>& rank() const { return rank_; }
  /// Preorder position -> leaf.
  const NodeId* leaf_at() const { return leaf_at_.data(); }
  /// The record of supernode s (alive in the summary it was built from).
  const CoverEdge* record(SupernodeId s) const {
    return cells_.data() + offset_[s];
  }

 private:
  std::vector<uint32_t> rank_;
  std::vector<NodeId> leaf_at_;
  std::vector<uint64_t> offset_;  ///< supernode id -> its header cell
  std::vector<CoverEdge> cells_;
};

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_COVER_LAYOUT_HPP_
