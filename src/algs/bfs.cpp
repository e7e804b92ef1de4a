#include "algs/bfs.hpp"

namespace slugger::algs {

std::vector<uint32_t> BfsOnGraph(const graph::Graph& g, NodeId start) {
  RawSource src(g);
  return BfsDistances(src, start);
}

}  // namespace slugger::algs
