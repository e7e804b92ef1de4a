// Global triangle counting over any neighbor source.
#ifndef SLUGGER_ALGS_TRIANGLES_HPP_
#define SLUGGER_ALGS_TRIANGLES_HPP_

#include <algorithm>
#include <vector>

#include "algs/neighbor_source.hpp"

namespace slugger::algs {

/// Counts triangles by sorted-adjacency intersection. Neighbor lists are
/// materialized once per node (for summaries this is one partial
/// decompression per node, §VIII-B).
template <typename Source>
uint64_t CountTriangles(Source& src) {
  const NodeId n = src.num_nodes();
  std::vector<std::vector<NodeId>> up(n);  // neighbors v > u only
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : src.Neighbors(u)) {
      if (v > u) up[u].push_back(v);
    }
    std::sort(up[u].begin(), up[u].end());
  }
  uint64_t triangles = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : up[u]) {
      // |up(u) ∩ up(v)| closes triangles u < v < w.
      const auto& a = up[u];
      const auto& b = up[v];
      size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          ++triangles;
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  return triangles;
}

uint64_t TrianglesOnGraph(const graph::Graph& g);

}  // namespace slugger::algs

#endif  // SLUGGER_ALGS_TRIANGLES_HPP_
