// PageRank by power iteration over any neighbor source (paper Alg. 6).
#ifndef SLUGGER_ALGS_PAGERANK_HPP_
#define SLUGGER_ALGS_PAGERANK_HPP_

#include <vector>

#include "algs/neighbor_source.hpp"

namespace slugger::algs {

/// Runs `iterations` rounds of the paper's undirected PageRank with
/// damping factor d; isolated-node mass is redistributed uniformly.
template <typename Source>
std::vector<double> PageRank(Source& src, double d, uint32_t iterations) {
  const NodeId n = src.num_nodes();
  std::vector<double> rank(n, n ? 1.0 / n : 0.0);
  std::vector<double> next(n, 0.0);
  for (uint32_t t = 0; t < iterations; ++t) {
    // Retained mass is tallied in the push loop (a node pushes all of its
    // rank, so summing rank[u] over non-isolated u equals summing next),
    // and the damping pass re-zeros next in place for the next round —
    // two passes over the vectors per iteration instead of four.
    double mass = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      auto nbrs = src.Neighbors(u);
      if (nbrs.empty()) continue;
      const double share = rank[u] / static_cast<double>(nbrs.size());
      mass += rank[u];
      for (NodeId w : nbrs) next[w] += share;
    }
    const double teleport = (1.0 - d * mass) / static_cast<double>(n);
    for (NodeId v = 0; v < n; ++v) {
      rank[v] = d * next[v] + teleport;
      next[v] = 0.0;
    }
  }
  return rank;
}

std::vector<double> PageRankOnGraph(const graph::Graph& g, double d,
                                    uint32_t iterations);

/// PageRank through the batch-aware adapter: one amortized
/// QueryNeighborsBatch sweep materializes the adjacency, then the T
/// power iterations run on plain array reads. Identical output to
/// PageRankOnHierarchy up to summation-order rounding (both serve the
/// represented graph exactly).
std::vector<double> PageRankOnSummaryBatched(const summary::SummaryGraph& s,
                                             double d, uint32_t iterations);

}  // namespace slugger::algs

#endif  // SLUGGER_ALGS_PAGERANK_HPP_
