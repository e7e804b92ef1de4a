// Mutable algorithm state for SLUGGER's merge phase.
//
// Wraps the summary under construction with the incremental aggregates the
// greedy search needs (paper §III-A cost functions):
//   h(R)        — Cost_H: h-edges in the tree rooted at R
//   inc(R)      — Cost_P: p/n-edges incident to any supernode of R's tree
//   within(R)   — edges with both endpoints inside R's tree
//   between(R1,R2) — edges between the two trees (root adjacency)
// plus the top-band index the merge planner classifies edges with, and
// per-root height for the Table-V bound.
#ifndef SLUGGER_CORE_SLUGGER_STATE_HPP_
#define SLUGGER_CORE_SLUGGER_STATE_HPP_

#include <vector>

#include "graph/graph.hpp"
#include "summary/summary_graph.hpp"
#include "util/flat_map.hpp"

namespace slugger::core {

using summary::SummaryGraph;

/// Algorithm state: summary + aggregates, kept consistent through AddEdge
/// and MergeRoots. The merge planner instead rewrites edges on summary()
/// itself and books each group's net change through ShiftWithin and
/// ShiftBetween once MergeRoots has folded the two roots.
class SluggerState {
 public:
  /// Initializes the trivial summary: singleton supernodes, P+ = E. The
  /// summary's edge lists and the root adjacency are built from the CSR
  /// rows, each list and map sized once.
  explicit SluggerState(const graph::Graph& g);

  const graph::Graph& input() const { return *input_; }
  SummaryGraph& summary() { return summary_; }
  const SummaryGraph& summary() const { return summary_; }

  /// Root supernode containing s (a walk up the parent links).
  SupernodeId FindRoot(SupernodeId s) const {
    return summary_.forest().Root(s);
  }

  /// Root of x if x is a root or a child of one (the re-encodable top band
  /// S_root of paper Fig. 4), else kInvalidId. A plain array read: safe
  /// from concurrent evaluation threads while no merge is committing.
  SupernodeId BandRoot(SupernodeId x) const { return band_root_[x]; }

  /// Current roots, in unspecified order.
  const std::vector<SupernodeId>& roots() const { return roots_; }

  /// Upper bound on supernode ids this state can ever allocate (leaves plus
  /// at most n - 1 merges). Constant for the life of the state, so worker
  /// scratch sized to it never needs the (growing) capacity.
  SupernodeId max_supernodes() const { return max_supernodes_; }

  uint64_t HCost(SupernodeId root) const { return h_[root]; }
  uint64_t IncCost(SupernodeId root) const { return inc_[root]; }
  uint32_t Height(SupernodeId root) const { return height_[root]; }

  /// Number of superedges between the trees of two distinct roots.
  uint32_t Between(SupernodeId root_a, SupernodeId root_b) const {
    const uint32_t* v = root_adj_[root_a].Find(root_b);
    return v != nullptr ? *v : 0;
  }

  /// Cost_A(G) = Cost_H + Cost_P for one root (paper Eq. 6).
  uint64_t RootCost(SupernodeId root) const { return h_[root] + inc_[root]; }

  /// Adds superedge {x, y} with aggregate maintenance.
  void AddEdge(SupernodeId x, SupernodeId y, EdgeSign sign);

  /// Books `delta` edges inside root's tree: within(root) and inc(root).
  void ShiftWithin(SupernodeId root, int64_t delta);

  /// Books `delta` edges between the trees of distinct roots a and b:
  /// between(a, b) on both sides (a pair that drops to zero leaves the
  /// adjacency) and inc of each.
  void ShiftBetween(SupernodeId a, SupernodeId b, int64_t delta);

  /// Creates M = a ∪ b over roots a and b and folds aggregates; returns M.
  /// Does not touch p/n-edges: it folds a's and b's aggregates as they
  /// stand, and a caller that rewrites edges around the merge books their
  /// net change on M with ShiftWithin / ShiftBetween.
  SupernodeId MergeRoots(SupernodeId a, SupernodeId b);

  /// Sum of RootCost over all roots minus double-counted inter-tree edges:
  /// equals Cost(G) (used by tests to validate the aggregates).
  uint64_t TotalCostFromAggregates() const;

  /// Exhaustive consistency check of aggregates, of the root adjacency
  /// and of the top-band index (tests only; slow).
  bool ValidateAggregates() const;

 private:
  const graph::Graph* input_;
  SupernodeId max_supernodes_ = 0;
  SummaryGraph summary_;
  std::vector<SupernodeId> band_root_;  // see BandRoot
  std::vector<SupernodeId> roots_;
  std::vector<uint32_t> root_pos_;   // root id -> index in roots_
  std::vector<uint64_t> h_;
  std::vector<uint64_t> inc_;
  std::vector<uint64_t> within_;
  std::vector<uint32_t> height_;
  std::vector<FlatCountMap> root_adj_;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_SLUGGER_STATE_HPP_
