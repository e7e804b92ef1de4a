#include "algs/triangles.hpp"

namespace slugger::algs {

uint64_t TrianglesOnGraph(const graph::Graph& g) {
  RawSource src(g);
  return CountTriangles(src);
}

}  // namespace slugger::algs
