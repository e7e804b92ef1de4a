// Breadth-first search over any neighbor source.
#ifndef SLUGGER_ALGS_BFS_HPP_
#define SLUGGER_ALGS_BFS_HPP_

#include <deque>
#include <vector>

#include "algs/neighbor_source.hpp"

namespace slugger::algs {

inline constexpr uint32_t kUnreached = 0xFFFFFFFFu;

/// Hop distances from `start`; kUnreached marks other components.
template <typename Source>
std::vector<uint32_t> BfsDistances(Source& src, NodeId start) {
  std::vector<uint32_t> dist(src.num_nodes(), kUnreached);
  std::deque<NodeId> queue;
  dist[start] = 0;
  queue.push_back(start);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : src.Neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<uint32_t> BfsOnGraph(const graph::Graph& g, NodeId start);

}  // namespace slugger::algs

#endif  // SLUGGER_ALGS_BFS_HPP_
