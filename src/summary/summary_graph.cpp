#include "summary/summary_graph.hpp"

#include <cassert>

namespace slugger::summary {

SummaryGraph::SummaryGraph(NodeId num_leaves) : forest_(num_leaves) {
  adj_.resize(num_leaves);
}

SummaryGraph::SummaryGraph(const graph::Graph& g)
    : SummaryGraph(g.num_nodes()) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    adj_[u].Assign(g.Neighbors(u), +1);
  }
  p_count_ = g.num_edges();
}

EdgeSign SummaryGraph::GetSign(SupernodeId a, SupernodeId b) const {
  return adj_[a].Get(b);
}

bool SummaryGraph::AddEdge(SupernodeId a, SupernodeId b, EdgeSign sign) {
  assert(sign == 1 || sign == -1);
  assert(forest_.IsAlive(a) && forest_.IsAlive(b));
  assert(a == b || (!forest_.IsProperAncestor(a, b) &&
                    !forest_.IsProperAncestor(b, a)));
  const EdgeSign existing = adj_[a].Get(b);
  if (existing != 0) {
    assert(existing == sign && "sign flip requires RemoveEdge first");
    return false;
  }
  adj_[a].Add(b, sign);
  if (a != b) adj_[b].Add(a, sign);
  if (sign > 0) {
    ++p_count_;
  } else {
    ++n_count_;
  }
  return true;
}

EdgeSign SummaryGraph::RemoveEdge(SupernodeId a, SupernodeId b) {
  const EdgeSign sign = adj_[a].Erase(b);
  if (sign == 0) return 0;
  if (a != b) {
    const EdgeSign mirror = adj_[b].Erase(a);
    assert(mirror == sign);
    (void)mirror;
  }
  if (sign > 0) {
    --p_count_;
  } else {
    --n_count_;
  }
  return sign;
}

void SummaryGraph::CollectLeaves(SupernodeId s, std::vector<NodeId>* out,
                                 std::vector<SupernodeId>* stack) const {
  out->clear();
  forest_.ForEachLeafWith(stack, s, [&](NodeId u) { out->push_back(u); });
}

}  // namespace slugger::summary
