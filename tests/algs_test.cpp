// Graph algorithms on summaries must agree with the raw graph (§VIII-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "algs/bfs.hpp"
#include "algs/dfs.hpp"
#include "algs/dijkstra.hpp"
#include "algs/pagerank.hpp"
#include "algs/summary_ops.hpp"
#include "algs/triangles.hpp"
#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "core/slugger.hpp"
#include "gen/generators.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace slugger::algs {
namespace {

struct Instance {
  graph::Graph g;
  summary::SummaryGraph summary;
};

Instance MakeInstance(uint64_t seed) {
  gen::PlantedHierarchyOptions opt;
  opt.branching = 3;
  opt.depth = 2;
  opt.leaf_size = 7;
  opt.leaf_density = 0.9;
  opt.pair_link_prob = 0.5;
  opt.pair_link_decay = 0.4;
  opt.noise_density = 0.003;
  graph::Graph g = gen::PlantedHierarchy(opt, seed);
  core::SluggerConfig config;
  config.iterations = 10;
  config.seed = seed;
  core::SluggerResult r = core::Summarize(g, config);
  return {std::move(g), std::move(r.summary)};
}

class AlgsOnSummary : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgsOnSummary, BfsDistancesMatch) {
  Instance inst = MakeInstance(GetParam());
  for (NodeId start : {NodeId{0}, inst.g.num_nodes() / 2}) {
    EXPECT_EQ(BfsOnGraph(inst.g, start), BfsOnHierarchy(inst.summary, start));
  }
}

TEST_P(AlgsOnSummary, DfsVisitsSameComponent) {
  Instance inst = MakeInstance(GetParam());
  auto raw = DfsOnGraph(inst.g, 0);
  auto cmp = DfsOnSummary(inst.summary, 0);
  // Neighbor order differs between sources; compare visited sets.
  std::set<NodeId> raw_set(raw.begin(), raw.end());
  std::set<NodeId> cmp_set(cmp.begin(), cmp.end());
  EXPECT_EQ(raw_set, cmp_set);
}

TEST_P(AlgsOnSummary, PageRankMatches) {
  Instance inst = MakeInstance(GetParam());
  auto raw = PageRankOnGraph(inst.g, 0.85, 20);
  auto cmp = PageRankOnHierarchy(inst.summary, 0.85, 20);
  ASSERT_EQ(raw.size(), cmp.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    // The hierarchy-native path runs the same recurrence but sums block
    // contributions in a different order, so agreement is up to rounding,
    // not bitwise.
    EXPECT_NEAR(raw[i], cmp[i], 1e-9) << "node " << i;
  }
}

TEST_P(AlgsOnSummary, BatchedSourceAdjacencyMatchesRaw) {
  Instance inst = MakeInstance(GetParam());
  // A small block size forces several batch sweeps over one instance.
  BatchedSummarySource batched(inst.summary, 64);
  ASSERT_EQ(batched.num_nodes(), inst.g.num_nodes());
  for (NodeId u = 0; u < inst.g.num_nodes(); ++u) {
    std::span<const NodeId> got = batched.Neighbors(u);
    std::vector<NodeId> sorted(got.begin(), got.end());
    std::sort(sorted.begin(), sorted.end());
    std::span<const NodeId> want = inst.g.Neighbors(u);
    ASSERT_EQ(sorted, std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
  }
}

TEST_P(AlgsOnSummary, PageRankBatchedMatchesRaw) {
  Instance inst = MakeInstance(GetParam());
  auto raw = PageRankOnGraph(inst.g, 0.85, 20);
  auto batched = PageRankOnSummaryBatched(inst.summary, 0.85, 20);
  ASSERT_EQ(raw.size(), batched.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(raw[i], batched[i], 1e-12) << "node " << i;
  }
}

TEST_P(AlgsOnSummary, DijkstraMatchesAndEqualsBfs) {
  Instance inst = MakeInstance(GetParam());
  NodeId start = 1;
  auto dij_raw = DijkstraOnGraph(inst.g, start);
  auto dij_sum = DijkstraOnSummary(inst.summary, start);
  auto bfs = BfsOnGraph(inst.g, start);
  ASSERT_EQ(dij_raw.size(), dij_sum.size());
  for (size_t i = 0; i < dij_raw.size(); ++i) {
    EXPECT_EQ(dij_raw[i], dij_sum[i]);
    uint64_t bfs_d = bfs[i] == kUnreached ? kInfDistance : bfs[i];
    EXPECT_EQ(dij_raw[i], bfs_d) << "unit-weight Dijkstra == BFS";
  }
}

TEST_P(AlgsOnSummary, TriangleCountsMatch) {
  Instance inst = MakeInstance(GetParam());
  EXPECT_EQ(TrianglesOnGraph(inst.g), TrianglesOnHierarchy(inst.summary));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgsOnSummary,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

// ---------------------------------------------------------------------
// Hierarchy-native agreement suite: PageRank / BFS / triangles computed
// directly on the summary (algs/summary_ops) must agree with the raw
// graph on structures the planted-hierarchy fixture does not cover —
// skewed RMAT and unstructured ER, where the summary keeps many flat
// superedges and signed corrections.

summary::SummaryGraph Summarize(const graph::Graph& g, uint64_t seed) {
  core::SluggerConfig config;
  config.iterations = 10;
  config.seed = seed;
  return core::Summarize(g, config).summary;
}

struct NamedGraph {
  const char* name;
  graph::Graph (*make)();
};

graph::Graph RmatGraph() { return gen::RMat(9, 4096, 0.57, 0.19, 0.19, 13); }
graph::Graph ErGraph() { return gen::ErdosRenyi(600, 2400, 17); }

class HierarchyNative : public ::testing::TestWithParam<NamedGraph> {};

TEST_P(HierarchyNative, PageRankAgreesWithRaw) {
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  auto raw = PageRankOnGraph(g, 0.85, 20);
  auto native = PageRankOnHierarchy(s, 0.85, 20);
  ASSERT_EQ(raw.size(), native.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(raw[i], native[i], 1e-9) << "node " << i;
  }
}

TEST_P(HierarchyNative, BfsAgreesWithRaw) {
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  for (NodeId start : {NodeId{0}, g.num_nodes() / 3, g.num_nodes() - 1}) {
    EXPECT_EQ(BfsOnGraph(g, start), BfsOnHierarchy(s, start))
        << "start " << start;
  }
}

TEST_P(HierarchyNative, TrianglesAgreeWithRaw) {
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  EXPECT_EQ(TrianglesOnGraph(g), TrianglesOnHierarchy(s));
}

TEST_P(HierarchyNative, BatchedSourceAnalyticsAgreeWithRaw) {
  // The adjacency adapter sweeps the summary's record layout; on these
  // n-edge-heavy summaries every list, and the traversals run over them,
  // must still be the raw graph's.
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  for (size_t block_size : {size_t{64}, size_t{1} << 16}) {
    BatchedSummarySource batched(s, block_size);
    ASSERT_EQ(batched.num_nodes(), g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::span<const NodeId> got = batched.Neighbors(u);
      std::vector<NodeId> sorted(got.begin(), got.end());
      std::sort(sorted.begin(), sorted.end());
      std::span<const NodeId> want = g.Neighbors(u);
      ASSERT_EQ(sorted, std::vector<NodeId>(want.begin(), want.end()))
          << "block " << block_size << ", node " << u;
    }
  }
  for (NodeId start : {NodeId{0}, g.num_nodes() / 3, g.num_nodes() - 1}) {
    // Neighbor order differs between sources; compare visited sets.
    std::vector<NodeId> raw = DfsOnGraph(g, start);
    std::vector<NodeId> cmp = DfsOnSummary(s, start);
    EXPECT_EQ(std::set<NodeId>(raw.begin(), raw.end()),
              std::set<NodeId>(cmp.begin(), cmp.end()))
        << "start " << start;
    EXPECT_EQ(DijkstraOnGraph(g, start), DijkstraOnSummary(s, start))
        << "start " << start;
  }
}

TEST_P(HierarchyNative, DegreesAreExact) {
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  SummaryOps ops(s);
  SummaryOps::Scratch scratch;
  std::vector<int64_t> deg = ops.Degrees(&scratch);
  ASSERT_EQ(deg.size(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(deg[u], static_cast<int64_t>(g.Neighbors(u).size()))
        << "node " << u;
  }
}

TEST_P(HierarchyNative, PoolResultsMatchSerial) {
  graph::Graph g = GetParam().make();
  summary::SummaryGraph s = Summarize(g, 5);
  ThreadPool pool(4);
  // Integer passes are order-independent, so pooled triangles are exact;
  // pooled PageRank merges per-worker difference arrays in a fixed
  // order, so it is compared at rounding tolerance.
  EXPECT_EQ(TrianglesOnHierarchy(s), TrianglesOnHierarchy(s, &pool));
  auto serial = PageRankOnHierarchy(s, 0.85, 20);
  auto pooled = PageRankOnHierarchy(s, 0.85, 20, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], pooled[i], 1e-12) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, HierarchyNative,
    ::testing::Values(NamedGraph{"rmat", RmatGraph}, NamedGraph{"er", ErGraph}),
    [](const ::testing::TestParamInfo<NamedGraph>& info) {
      return info.param.name;
    });

// Overlay-aware analytics: after random edits, the DynamicGraph's
// hierarchy-native results must equal decode-then-compute on the mutated
// graph — live, with the overlay entering as correction terms.
TEST(HierarchyNativeOverlay, DynamicGraphAnalyticsMatchDecode) {
  graph::Graph g = gen::ErdosRenyi(300, 1200, 23);
  EngineOptions options;
  options.config.iterations = 10;
  options.config.seed = 7;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();

  DynamicGraphOptions dopt;
  dopt.auto_compact = false;  // keep every edit in the overlay
  DynamicGraph dg(std::move(compressed).value(), dopt);

  Rng rng(29);
  std::vector<EdgeEdit> edits;
  for (int i = 0; i < 200; ++i) {
    NodeId u = static_cast<NodeId>(rng.Below(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.Below(g.num_nodes()));
    if (u == v) continue;
    edits.push_back({u, v, rng.NextDouble() < 0.5 ? EditKind::kInsert
                                                  : EditKind::kDelete});
  }
  ASSERT_TRUE(dg.ApplyEdits(edits).ok());
  ASSERT_GT(dg.stats().corrections, 0u);

  graph::Graph mutated = dg.Decode();
  auto raw_pr = PageRankOnGraph(mutated, 0.85, 20);
  auto live_pr = dg.PageRank(0.85, 20);
  ASSERT_EQ(raw_pr.size(), live_pr.size());
  for (size_t i = 0; i < raw_pr.size(); ++i) {
    EXPECT_NEAR(raw_pr[i], live_pr[i], 1e-9) << "node " << i;
  }
  for (NodeId start : {NodeId{0}, g.num_nodes() / 2}) {
    EXPECT_EQ(BfsOnGraph(mutated, start), dg.Bfs(start)) << "start " << start;
  }
  EXPECT_EQ(TrianglesOnGraph(mutated), dg.Triangles());
  ThreadPool pool(4);
  EXPECT_EQ(TrianglesOnGraph(mutated), dg.Triangles(&pool));
}

TEST(HierarchyNativeFacade, CompressedGraphAnalytics) {
  graph::Graph g = gen::Caveman(8, 12, 0.1, 31);
  EngineOptions options;
  options.config.iterations = 10;
  options.config.seed = 7;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const CompressedGraph& cg = compressed.value();

  EXPECT_EQ(TrianglesOnGraph(g), cg.Triangles());
  EXPECT_EQ(BfsOnGraph(g, 0), cg.Bfs(0));
  // Out-of-range start is absorbed, never UB: nothing is reachable.
  std::vector<uint32_t> dist = cg.Bfs(g.num_nodes() + 5);
  EXPECT_TRUE(std::all_of(dist.begin(), dist.end(),
                          [](uint32_t d) { return d == kUnreached; }));
  auto raw = PageRankOnGraph(g, 0.85, 20);
  auto facade = cg.PageRank(0.85, 20);
  ASSERT_EQ(raw.size(), facade.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(raw[i], facade[i], 1e-9) << "node " << i;
  }
}

TEST(HierarchyNativeEdgeCases, EmptyAndIsolated) {
  // Empty summary: no nodes at all.
  summary::SummaryGraph empty(0);
  EXPECT_EQ(TrianglesOnHierarchy(empty), 0u);
  EXPECT_TRUE(PageRankOnHierarchy(empty, 0.85, 5).empty());

  // Edgeless graph: every node isolated; PageRank is uniform teleport,
  // BFS reaches only the start.
  graph::Graph g = graph::Graph::FromEdges(5, {});
  summary::SummaryGraph s = Summarize(g, 3);
  EXPECT_EQ(TrianglesOnHierarchy(s), 0u);
  auto pr = PageRankOnHierarchy(s, 0.85, 5);
  ASSERT_EQ(pr.size(), 5u);
  for (double v : pr) EXPECT_NEAR(v, 0.2, 1e-12);
  auto dist = BfsOnHierarchy(s, 2);
  EXPECT_EQ(dist[2], 0u);
  for (NodeId u : {0u, 1u, 3u, 4u}) EXPECT_EQ(dist[u], kUnreached);
}

TEST(Algs, KnownTriangleCount) {
  // K4 has 4 triangles.
  graph::Graph g = graph::Graph::FromEdges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(TrianglesOnGraph(g), 4u);
}

TEST(Algs, BfsUnreachableMarked) {
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 1}});
  auto dist = BfsOnGraph(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreached);
}

TEST(Algs, PageRankSumsToOne) {
  graph::Graph g = gen::ErdosRenyi(100, 300, 3);
  auto pr = PageRankOnGraph(g, 0.85, 30);
  double sum = 0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace slugger::algs
