// The supernode forest: hierarchy trees of supernodes (the H component).
#ifndef SLUGGER_SUMMARY_HIERARCHY_FOREST_HPP_
#define SLUGGER_SUMMARY_HIERARCHY_FOREST_HPP_

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace slugger::summary {

/// Forest of supernodes. Supernodes 0..num_leaves-1 are the singleton
/// leaves {0}, ..., {n-1}; merged supernodes get fresh ids. Every non-leaf
/// supernode is exactly the union of its children. |H| equals the number of
/// alive supernodes that have a parent.
class HierarchyForest {
 public:
  explicit HierarchyForest(NodeId num_leaves = 0);

  NodeId num_leaves() const { return num_leaves_; }
  SupernodeId capacity() const { return static_cast<SupernodeId>(parent_.size()); }

  bool IsAlive(SupernodeId s) const { return alive_[s]; }
  bool IsLeaf(SupernodeId s) const { return s < num_leaves_; }
  SupernodeId Parent(SupernodeId s) const { return parent_[s]; }
  bool IsRoot(SupernodeId s) const {
    return alive_[s] && parent_[s] == kInvalidId;
  }
  const std::vector<SupernodeId>& Children(SupernodeId s) const {
    return children_[s];
  }
  /// Number of subnodes contained in s.
  uint32_t Size(SupernodeId s) const { return size_[s]; }

  /// Number of h-edges (parent links) over alive supernodes.
  uint64_t h_count() const { return h_count_; }

  /// Number of alive supernodes.
  uint64_t alive_count() const { return alive_count_; }

  /// Creates a new supernode whose children are roots a and b; adds two
  /// h-edges. Returns the new id.
  SupernodeId CreateParent(SupernodeId a, SupernodeId b);

  /// Attaches root c as an additional child of p (one new h-edge); the
  /// sizes of p and its ancestors grow by Size(c).
  void AdoptChild(SupernodeId p, SupernodeId c);

  /// Removes non-leaf supernode s from the forest, splicing its children to
  /// its parent (or promoting them to roots if s was a root). Adjusts |H|.
  /// The caller must have removed all p/n-edges incident to s first.
  void SpliceOut(SupernodeId s);

  /// Root of the tree containing s (parent-pointer walk).
  SupernodeId Root(SupernodeId s) const;

  /// True iff `anc` is a proper ancestor of `s`.
  bool IsProperAncestor(SupernodeId anc, SupernodeId s) const;

  /// Invokes fn(leaf) for every subnode contained in s.
  template <typename Fn>
  void ForEachLeaf(SupernodeId s, Fn&& fn) const {
    ForEachLeafWith(&scratch_, s, fn);
  }

  /// ForEachLeaf with a caller-provided traversal stack. The shared-scratch
  /// overload above is NOT safe to call from several threads at once; give
  /// each worker its own stack and this one is (the traversal only reads
  /// the forest).
  template <typename Fn>
  void ForEachLeafWith(std::vector<SupernodeId>* stack, SupernodeId s,
                       Fn&& fn) const {
    if (IsLeaf(s)) {
      fn(static_cast<NodeId>(s));
      return;
    }
    stack->clear();
    stack->push_back(s);
    while (!stack->empty()) {
      SupernodeId x = stack->back();
      stack->pop_back();
      if (IsLeaf(x)) {
        fn(static_cast<NodeId>(x));
      } else {
        for (SupernodeId c : children_[x]) stack->push_back(c);
      }
    }
  }

  /// Pre-allocates every per-supernode array to `total` entries so that
  /// CreateParent never reallocates.
  void Reserve(SupernodeId total) {
    parent_.reserve(total);
    children_.reserve(total);
    size_.reserve(total);
    alive_.reserve(total);
  }

  /// Collects alive roots.
  std::vector<SupernodeId> CollectRoots() const;

  /// Height in edges of the tree rooted at s (0 for a childless node).
  uint32_t TreeHeight(SupernodeId s) const;

  /// Maximum tree height over all roots.
  uint32_t MaxHeight() const;

  /// Mean depth of the num_leaves leaves (roots have depth 0).
  double AvgLeafDepth() const;

  /// root[s] for every alive supernode, computed in one pass.
  std::vector<SupernodeId> ComputeRootMap() const;

  /// The preorder rank of every leaf (dense, 0-based), its inverse and,
  /// per supernode, the rank interval its leaves occupy. The leaves of any
  /// subtree occupy one contiguous rank range, so sorting node ids by rank
  /// is equivalent to sorting their root-first ancestor chains
  /// lexicographically — the hierarchy-locality order of the batched
  /// query walk, whose record layout (summary/cover_layout.hpp) is built
  /// from this. It is also the bottom-up aggregate substrate of the
  /// summary-domain analytics layer (algs/summary_ops): because the
  /// interval family of a forest is laminar, any per-supernode aggregate
  /// over leaf values (sum, count, frontier mass) is one prefix-sum
  /// difference, and any supernode-pair intersection is an interval clamp.
  struct LeafLayout {
    std::vector<uint32_t> rank;     ///< leaf -> preorder position
    std::vector<NodeId> leaf_at;    ///< preorder position -> leaf
    /// Leaves of supernode s occupy positions [lo[s], hi[s]); capacity()
    /// entries, with lo == hi == 0 for dead supernodes.
    std::vector<uint32_t> lo;
    std::vector<uint32_t> hi;
  };
  LeafLayout ComputeLeafLayout() const;

 private:
  NodeId num_leaves_ = 0;
  std::vector<SupernodeId> parent_;
  std::vector<std::vector<SupernodeId>> children_;
  std::vector<uint32_t> size_;
  std::vector<uint8_t> alive_;
  uint64_t h_count_ = 0;
  uint64_t alive_count_ = 0;
  mutable std::vector<SupernodeId> scratch_;
};

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_HIERARCHY_FOREST_HPP_
