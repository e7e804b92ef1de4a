// Scenario: compress a social-style graph once, then serve neighbor and
// analytics queries directly from the compressed form (paper §VIII-B/C)
// without ever fully decompressing it — the compress-then-serve lifecycle
// the slugger::Engine / slugger::CompressedGraph facade is built around.
//
// Build & run:   ./build/examples/compress_and_query [num_nodes]
#include <cstdio>
#include <optional>

#include "algs/bfs.hpp"
#include "algs/pagerank.hpp"
#include "algs/summary_ops.hpp"
#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace slugger;

  // A social network with duplication-driven redundancy — the kind of
  // input where hierarchical summarization pays off (PAPER.md; see the
  // README "Quickstart" and "API" sections for the serving pattern).
  NodeId nodes = 30000;
  if (argc > 1) {
    std::optional<uint32_t> parsed = ParseUint32(argv[1]);
    if (!parsed.has_value() || *parsed == 0) {
      std::fprintf(stderr, "invalid node count '%s'\nusage: %s [num_nodes >= 1]\n",
                   argv[1], argv[0]);
      return 2;
    }
    nodes = *parsed;
  }
  graph::Graph g = gen::DuplicationDivergence(nodes, 3, 0.45, 0.7, 2024);
  std::printf("social graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  EngineOptions options;
  options.config.iterations = 20;
  options.config.seed = 2024;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  if (!compressed.ok()) {
    std::fprintf(stderr, "summarize failed: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }
  const CompressedGraph& cg = compressed.value();
  std::printf("compressed to %.1f%% of the input edge count "
              "(|P+|=%llu |P-|=%llu |H|=%llu)\n\n",
              100.0 * cg.stats().RelativeSize(g.num_edges()),
              static_cast<unsigned long long>(cg.stats().p_count),
              static_cast<unsigned long long>(cg.stats().n_count),
              static_cast<unsigned long long>(cg.stats().h_count));

  // 1. Point queries: neighbors straight off the compressed graph. One
  //    QueryScratch per serving thread makes this safe to run from a
  //    whole reader pool concurrently (see bench_query_throughput).
  QueryScratch scratch;
  Rng rng(7);
  WallTimer timer;
  const int kProbes = 100000;
  uint64_t total_degree = 0;
  for (int i = 0; i < kProbes; ++i) {
    total_degree +=
        cg.Neighbors(static_cast<NodeId>(rng.Below(g.num_nodes())), &scratch)
            .size();
  }
  std::printf("%d neighbor queries in %.1f ms (avg %.2f us, avg degree "
              "%.1f)\n",
              kProbes, timer.Millis(), timer.Micros() / kProbes,
              static_cast<double>(total_degree) / kProbes);

  // 2. Analytics on the compressed form: PageRank + BFS.
  timer.Restart();
  std::vector<double> rank = algs::PageRankOnHierarchy(cg.summary(), 0.85, 10);
  std::printf("PageRank (10 iters) on the summary: %.1f ms\n", timer.Millis());
  NodeId top = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (rank[u] > rank[top]) top = u;
  }
  timer.Restart();
  auto dist = algs::BfsOnHierarchy(cg.summary(), top);
  uint64_t reached = 0;
  for (uint32_t d : dist) reached += d != algs::kUnreached;
  std::printf("BFS from top-ranked node %u reaches %llu nodes (%.1f ms)\n",
              top, static_cast<unsigned long long>(reached), timer.Millis());

  // 3. Cross-check against the raw graph.
  std::vector<double> raw_rank = algs::PageRankOnGraph(g, 0.85, 10);
  double max_err = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_err = std::max(max_err, std::abs(raw_rank[u] - rank[u]));
  }
  std::printf("max |PageRank(summary) - PageRank(raw)| = %.2e\n", max_err);
  return max_err < 1e-9 ? 0 : 1;
}
