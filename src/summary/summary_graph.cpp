#include "summary/summary_graph.hpp"

#include <cassert>

namespace slugger::summary {

SummaryGraph::SummaryGraph(NodeId num_leaves) : forest_(num_leaves) {
  adj_.resize(num_leaves);
}

EdgeSign SummaryGraph::GetSign(SupernodeId a, SupernodeId b) const {
  const EdgeSign* sign = adj_[a].Find(b);
  return sign != nullptr ? *sign : 0;
}

bool SummaryGraph::AddEdge(SupernodeId a, SupernodeId b, EdgeSign sign) {
  assert(sign == 1 || sign == -1);
  assert(forest_.IsAlive(a) && forest_.IsAlive(b));
  assert(a == b || (!forest_.IsProperAncestor(a, b) &&
                    !forest_.IsProperAncestor(b, a)));
  const EdgeSign* existing = adj_[a].Find(b);
  if (existing != nullptr) {
    assert(*existing == sign && "sign flip requires RemoveEdge first");
    return false;
  }
  adj_[a].Put(b, sign);
  if (a != b) adj_[b].Put(a, sign);
  if (sign > 0) {
    ++p_count_;
  } else {
    ++n_count_;
  }
  return true;
}

EdgeSign SummaryGraph::RemoveEdge(SupernodeId a, SupernodeId b) {
  const EdgeSign* existing = adj_[a].Find(b);
  if (existing == nullptr) return 0;
  EdgeSign sign = *existing;
  adj_[a].Erase(b);
  if (a != b) adj_[b].Erase(a);
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
