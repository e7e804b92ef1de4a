#include "stream/edge_overlay.hpp"

#include <algorithm>
#include <unordered_set>

namespace slugger::stream {

namespace {

/// Sorted-insert position of `neighbor` in a per-node correction list.
std::vector<NeighborOverride>::iterator LowerBound(
    std::vector<NeighborOverride>& list, NodeId neighbor) {
  return std::lower_bound(list.begin(), list.end(), neighbor,
                          [](const NeighborOverride& o, NodeId key) {
                            return o.neighbor < key;
                          });
}

uint64_t PairKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

EdgeSign EdgeOverlay::CorrectionSign(NodeId u, NodeId v) const {
  return summary::FindOverrideSign(DeltasOf(u), v);
}

void EdgeOverlay::SetDirected(NodeId from, NodeId to, EdgeSign sign) {
  std::vector<NeighborOverride>& list = deltas_[from];
  auto pos = LowerBound(list, to);
  if (pos != list.end() && pos->neighbor == to) {
    pos->sign = sign;
    return;
  }
  list.insert(pos, NeighborOverride{to, sign});
}

void EdgeOverlay::EraseDirected(NodeId from, NodeId to) {
  auto it = deltas_.find(from);
  if (it == deltas_.end()) return;
  std::vector<NeighborOverride>& list = it->second;
  auto pos = LowerBound(list, to);
  if (pos != list.end() && pos->neighbor == to) list.erase(pos);
  if (list.empty()) deltas_.erase(it);
}

void EdgeOverlay::SetCorrection(NodeId u, NodeId v, EdgeSign sign) {
  SetDirected(u, v, sign);
  SetDirected(v, u, sign);
}

void EdgeOverlay::EraseCorrection(NodeId u, NodeId v) {
  EraseDirected(u, v);
  EraseDirected(v, u);
}

graph::Graph ApplyOverlay(const graph::Graph& base,
                          const EdgeOverlay& overlay) {
  std::unordered_set<uint64_t> removed;
  removed.reserve(overlay.removed_count() * 2);
  std::vector<Edge> edges;
  edges.reserve(base.num_edges() + overlay.added_count());
  overlay.ForEachCorrection([&](NodeId u, NodeId v, EdgeSign sign) {
    if (sign > 0) {
      edges.push_back(MakeEdge(u, v));
    } else {
      removed.insert(PairKey(u, v));
    }
  });
  for (const Edge& e : base.Edges()) {
    if (removed.empty() || removed.count(PairKey(e.first, e.second)) == 0) {
      edges.push_back(e);
    }
  }
  return graph::Graph::FromEdges(base.num_nodes(), edges);
}

}  // namespace slugger::stream
