#include "algs/pagerank.hpp"

namespace slugger::algs {

std::vector<double> PageRankOnGraph(const graph::Graph& g, double d,
                                    uint32_t iterations) {
  RawSource src(g);
  return PageRank(src, d, iterations);
}

std::vector<double> PageRankOnSummaryBatched(const summary::SummaryGraph& s,
                                             double d, uint32_t iterations) {
  BatchedSummarySource src(s);
  return PageRank(src, d, iterations);
}

}  // namespace slugger::algs
