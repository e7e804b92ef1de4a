#include "summary/hierarchy_forest.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace slugger::summary {

HierarchyForest::HierarchyForest(NodeId num_leaves) : num_leaves_(num_leaves) {
  parent_.assign(num_leaves, kInvalidId);
  children_.resize(num_leaves);
  size_.assign(num_leaves, 1);
  alive_.assign(num_leaves, 1);
  alive_count_ = num_leaves;
}

SupernodeId HierarchyForest::CreateParent(SupernodeId a, SupernodeId b) {
  assert(IsRoot(a) && IsRoot(b) && a != b);
  SupernodeId id = static_cast<SupernodeId>(parent_.size());
  parent_.push_back(kInvalidId);
  children_.push_back({a, b});
  size_.push_back(size_[a] + size_[b]);
  alive_.push_back(1);
  ++alive_count_;
  parent_[a] = id;
  parent_[b] = id;
  h_count_ += 2;
  return id;
}

void HierarchyForest::AdoptChild(SupernodeId p, SupernodeId c) {
  assert(alive_[p] && IsRoot(c) && p != c);
  children_[p].push_back(c);
  parent_[c] = p;
  ++h_count_;
  for (SupernodeId anc = p; anc != kInvalidId; anc = parent_[anc]) {
    size_[anc] += size_[c];
  }
}

void HierarchyForest::SpliceOut(SupernodeId s) {
  assert(alive_[s] && !IsLeaf(s));
  SupernodeId p = parent_[s];
  std::vector<SupernodeId>& kids = children_[s];
  if (p == kInvalidId) {
    // s was a root; its children become roots. |H| drops by #children.
    for (SupernodeId c : kids) parent_[c] = kInvalidId;
    h_count_ -= kids.size();
  } else {
    // Children move under the grandparent. |H| drops by exactly 1 (the
    // link s->p disappears; each child keeps one parent link).
    std::vector<SupernodeId>& up = children_[p];
    up.erase(std::find(up.begin(), up.end(), s));
    for (SupernodeId c : kids) {
      parent_[c] = p;
      up.push_back(c);
    }
    h_count_ -= 1;
  }
  kids.clear();
  kids.shrink_to_fit();
  alive_[s] = 0;
  parent_[s] = kInvalidId;
  --alive_count_;
}

SupernodeId HierarchyForest::Root(SupernodeId s) const {
  while (parent_[s] != kInvalidId) s = parent_[s];
  return s;
}

bool HierarchyForest::IsProperAncestor(SupernodeId anc, SupernodeId s) const {
  while (parent_[s] != kInvalidId) {
    s = parent_[s];
    if (s == anc) return true;
  }
  return false;
}

std::vector<SupernodeId> HierarchyForest::CollectRoots() const {
  std::vector<SupernodeId> roots;
  for (SupernodeId s = 0; s < capacity(); ++s) {
    if (IsRoot(s)) roots.push_back(s);
  }
  return roots;
}

uint32_t HierarchyForest::TreeHeight(SupernodeId s) const {
  struct Frame {
    SupernodeId node;
    uint32_t depth;
  };
  uint32_t height = 0;
  std::vector<Frame> stack{{s, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    height = std::max(height, f.depth);
    for (SupernodeId c : children_[f.node]) stack.push_back({c, f.depth + 1});
  }
  return height;
}

uint32_t HierarchyForest::MaxHeight() const {
  uint32_t best = 0;
  for (SupernodeId s = 0; s < capacity(); ++s) {
    if (IsRoot(s)) best = std::max(best, TreeHeight(s));
  }
  return best;
}

double HierarchyForest::AvgLeafDepth() const {
  if (num_leaves_ == 0) return 0.0;
  uint64_t total = 0;
  for (NodeId u = 0; u < num_leaves_; ++u) {
    SupernodeId s = u;
    while (parent_[s] != kInvalidId) {
      s = parent_[s];
      ++total;
    }
  }
  return static_cast<double>(total) / static_cast<double>(num_leaves_);
}

HierarchyForest::LeafLayout HierarchyForest::ComputeLeafLayout() const {
  LeafLayout layout;
  layout.rank.assign(num_leaves_, 0);
  layout.leaf_at.assign(num_leaves_, 0);
  layout.lo.assign(capacity(), 0);
  layout.hi.assign(capacity(), 0);
  uint32_t next = 0;
  // Two-phase DFS: a frame is revisited after its subtree is numbered, at
  // which point [lo, next) is exactly its leaf interval.
  std::vector<std::pair<SupernodeId, bool>> stack;
  for (SupernodeId s = 0; s < capacity(); ++s) {
    if (!IsRoot(s)) continue;
    stack.push_back({s, false});
    while (!stack.empty()) {
      auto [x, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        layout.hi[x] = next;
        continue;
      }
      layout.lo[x] = next;
      if (IsLeaf(x)) {
        layout.rank[x] = next;
        layout.leaf_at[next] = static_cast<NodeId>(x);
        ++next;
        layout.hi[x] = next;
        continue;
      }
      stack.push_back({x, true});
      for (SupernodeId c : children_[x]) stack.push_back({c, false});
    }
  }
  return layout;
}

std::vector<SupernodeId> HierarchyForest::ComputeRootMap() const {
  std::vector<SupernodeId> root(capacity(), kInvalidId);
  for (SupernodeId s = 0; s < capacity(); ++s) {
    if (!IsRoot(s)) continue;
    root[s] = s;
    scratch_.clear();
    scratch_.push_back(s);
    while (!scratch_.empty()) {
      SupernodeId x = scratch_.back();
      scratch_.pop_back();
      for (SupernodeId c : children_[x]) {
        root[c] = s;
        scratch_.push_back(c);
      }
    }
  }
  return root;
}

}  // namespace slugger::summary
