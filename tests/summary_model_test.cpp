// Tests for the hierarchical graph summarization model: forest surgery,
// superedge semantics, decode, partial decompression, stats, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/generators.hpp"
#include "summary/decode.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/serialize.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"
#include "summary/verify.hpp"
#include "util/random.hpp"

namespace slugger::summary {
namespace {

// ------------------------------------------------------------- forest
TEST(Forest, InitialSingletons) {
  HierarchyForest f(4);
  EXPECT_EQ(f.num_leaves(), 4u);
  EXPECT_EQ(f.alive_count(), 4u);
  EXPECT_EQ(f.h_count(), 0u);
  for (SupernodeId s = 0; s < 4; ++s) {
    EXPECT_TRUE(f.IsRoot(s));
    EXPECT_TRUE(f.IsLeaf(s));
    EXPECT_EQ(f.Size(s), 1u);
  }
}

TEST(Forest, CreateParentTracksEverything) {
  HierarchyForest f(4);
  SupernodeId m = f.CreateParent(0, 1);
  EXPECT_EQ(m, 4u);
  EXPECT_EQ(f.h_count(), 2u);
  EXPECT_EQ(f.Size(m), 2u);
  EXPECT_EQ(f.Parent(0), m);
  EXPECT_FALSE(f.IsRoot(0));
  EXPECT_TRUE(f.IsRoot(m));
  EXPECT_EQ(f.Root(0), m);
  EXPECT_TRUE(f.IsProperAncestor(m, 0));
  EXPECT_FALSE(f.IsProperAncestor(0, m));

  SupernodeId m2 = f.CreateParent(m, 2);
  EXPECT_EQ(f.h_count(), 4u);
  EXPECT_EQ(f.Size(m2), 3u);
  EXPECT_EQ(f.Root(0), m2);
  EXPECT_EQ(f.TreeHeight(m2), 2u);
  EXPECT_EQ(f.MaxHeight(), 2u);
}

TEST(Forest, LeafIterationCoversSubnodes) {
  HierarchyForest f(6);
  SupernodeId a = f.CreateParent(0, 1);
  SupernodeId b = f.CreateParent(2, 3);
  SupernodeId m = f.CreateParent(a, b);
  std::set<NodeId> leaves;
  f.ForEachLeaf(m, [&](NodeId u) { leaves.insert(u); });
  EXPECT_EQ(leaves, (std::set<NodeId>{0, 1, 2, 3}));
}

TEST(Forest, SpliceOutRootPromotesChildren) {
  HierarchyForest f(4);
  SupernodeId m = f.CreateParent(0, 1);
  f.SpliceOut(m);
  EXPECT_FALSE(f.IsAlive(m));
  EXPECT_TRUE(f.IsRoot(0));
  EXPECT_TRUE(f.IsRoot(1));
  EXPECT_EQ(f.h_count(), 0u);
}

TEST(Forest, SpliceOutInternalRelinksToParent) {
  HierarchyForest f(6);
  SupernodeId a = f.CreateParent(0, 1);
  SupernodeId m = f.CreateParent(a, 2);
  EXPECT_EQ(f.h_count(), 4u);
  f.SpliceOut(a);
  EXPECT_EQ(f.h_count(), 3u);  // drops by exactly 1
  EXPECT_EQ(f.Parent(0), m);
  EXPECT_EQ(f.Parent(1), m);
  ASSERT_EQ(f.Children(m).size(), 3u);
  EXPECT_EQ(f.Size(m), 3u);
}

TEST(Forest, AdoptChildPropagatesSizes) {
  HierarchyForest f(5);
  SupernodeId m = f.CreateParent(0, 1);
  f.AdoptChild(m, 2);
  EXPECT_EQ(f.Size(m), 3u);
  EXPECT_EQ(f.h_count(), 3u);
  EXPECT_EQ(f.Root(2), m);
}

TEST(Forest, AvgLeafDepth) {
  HierarchyForest f(4);
  f.CreateParent(0, 1);  // leaves 0,1 at depth 1; 2,3 at depth 0
  EXPECT_DOUBLE_EQ(f.AvgLeafDepth(), 0.5);
}

TEST(Forest, ComputeRootMap) {
  HierarchyForest f(5);
  SupernodeId a = f.CreateParent(0, 1);
  SupernodeId m = f.CreateParent(a, 2);
  auto roots = f.ComputeRootMap();
  EXPECT_EQ(roots[0], m);
  EXPECT_EQ(roots[1], m);
  EXPECT_EQ(roots[a], m);
  EXPECT_EQ(roots[3], 3u);
}

// ------------------------------------------------------- summary edges
TEST(SummaryGraph, EdgeBookkeeping) {
  SummaryGraph s(4);
  EXPECT_TRUE(s.AddEdge(0, 1, +1));
  EXPECT_FALSE(s.AddEdge(1, 0, +1));  // same undirected edge
  EXPECT_TRUE(s.AddEdge(2, 3, -1));
  EXPECT_EQ(s.p_count(), 1u);
  EXPECT_EQ(s.n_count(), 1u);
  EXPECT_EQ(s.GetSign(0, 1), 1);
  EXPECT_EQ(s.GetSign(1, 0), 1);
  EXPECT_EQ(s.GetSign(0, 2), 0);
  EXPECT_EQ(s.RemoveEdge(0, 1), 1);
  EXPECT_EQ(s.RemoveEdge(0, 1), 0);
  EXPECT_EQ(s.p_count(), 0u);
}

TEST(SummaryGraph, SelfLoopCountsOnce) {
  SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  EXPECT_TRUE(s.AddEdge(m, m, +1));
  EXPECT_EQ(s.p_count(), 1u);
  EXPECT_EQ(s.EdgeCountOf(m), 1u);
  int count = 0;
  s.ForEachEdge([&](SupernodeId a, SupernodeId b, EdgeSign) {
    ++count;
    EXPECT_EQ(a, b);
  });
  EXPECT_EQ(count, 1);
}

TEST(SummaryGraph, CostIsSumOfComponents) {
  SummaryGraph s(4);
  s.AddEdge(0, 1, +1);
  SupernodeId m = s.Merge(2, 3);
  s.AddEdge(m, 0, -1);
  EXPECT_EQ(s.Cost(), 1u + 1u + 2u);  // one p, one n, two h-edges
}

TEST(SummaryGraph, EdgeCountsMatchARecountUnderChurn) {
  // Random AddEdge / RemoveEdge churn over leaves, two merged supernodes
  // and self-loops, with a few hubs whose lists cross the index threshold
  // both ways. After every step, each supernode's edge and n-edge counts,
  // and p_count and n_count, must equal a recount from ForEachEdge, in
  // which a self-loop counts once.
  SummaryGraph s(40);
  std::vector<SupernodeId> nodes = {s.Merge(0, 1), s.Merge(2, 3)};
  for (SupernodeId leaf = 4; leaf < 40; ++leaf) nodes.push_back(leaf);
  Rng rng(31);
  const SupernodeId cap = s.forest().capacity();
  for (int step = 0; step < 4000; ++step) {
    // Half the edges touch one of four hubs.
    const SupernodeId x = nodes[rng.Below(rng.Chance(0.5) ? 4 : nodes.size())];
    const SupernodeId y = nodes[rng.Below(nodes.size())];
    const EdgeSign present = s.GetSign(x, y);
    const bool shrink = step % 1000 >= 600;  // every 1000 steps: 600 up
    if (present != 0 && (shrink || rng.Chance(0.3))) {
      ASSERT_EQ(s.RemoveEdge(y, x), present);
    } else if (present == 0 && !shrink) {
      ASSERT_TRUE(s.AddEdge(x, y, rng.Chance(0.25) ? -1 : +1));
    }
    std::vector<size_t> edges(cap, 0);
    std::vector<size_t> negatives(cap, 0);
    uint64_t p = 0;
    uint64_t n = 0;
    s.ForEachEdge([&](SupernodeId a, SupernodeId b, EdgeSign sign) {
      ++edges[a];
      negatives[a] += sign < 0;
      if (a != b) {
        ++edges[b];
        negatives[b] += sign < 0;
      }
      ++(sign > 0 ? p : n);
    });
    ASSERT_EQ(s.p_count(), p) << "step " << step;
    ASSERT_EQ(s.n_count(), n) << "step " << step;
    for (SupernodeId v : nodes) {
      ASSERT_EQ(s.EdgeCountOf(v), edges[v]) << "step " << step;
      ASSERT_EQ(s.NegativeCountOf(v), negatives[v]) << "step " << step;
    }
  }
}

TEST(SummaryGraph, TrivialSummaryFromCsrMatchesEdgeByEdge) {
  // A hub of degree 60 (past the index threshold) plus random edges.
  std::vector<Edge> edges = gen::ErdosRenyi(120, 400, 8).Edges();
  for (NodeId v = 1; v <= 60; ++v) edges.push_back(MakeEdge(0, v));
  const graph::Graph g = graph::Graph::FromEdges(120, edges);
  const SummaryGraph from_csr(g);
  SummaryGraph edge_by_edge(g.num_nodes());
  for (const Edge& e : g.Edges()) {
    edge_by_edge.AddEdge(e.first, e.second, +1);
  }
  EXPECT_EQ(from_csr.p_count(), g.num_edges());
  EXPECT_EQ(from_csr.n_count(), 0u);
  EXPECT_EQ(SerializeSummary(from_csr), SerializeSummary(edge_by_edge));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(from_csr.EdgeCountOf(u), g.Degree(u));
    for (NodeId v : g.Neighbors(u)) EXPECT_EQ(from_csr.GetSign(u, v), 1);
  }
  EXPECT_EQ(Decode(from_csr), g);
}

// ----------------------------------------------------- decode semantics
TEST(Decode, TrivialSummaryIsIdentity) {
  graph::Graph g = gen::ErdosRenyi(40, 100, 3);
  SummaryGraph s(g);
  EXPECT_EQ(Decode(s), g);
  EXPECT_TRUE(VerifyLossless(g, s).ok());
}

TEST(Decode, SupernodeSelfLoopIsClique) {
  SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  SupernodeId m2 = s.Merge(m, 2);
  s.AddEdge(m2, m2, +1);
  graph::Graph g = Decode(s);
  EXPECT_EQ(g.num_edges(), 3u);  // triangle on {0,1,2}
}

TEST(Decode, NegativeEdgeCancels) {
  // The paper's running example (Fig. 2, final state): supernode
  // X = {0,1,2,3} with child Y = {2,3}; p-edge (X, {5}) asserts four edges
  // and n-edge (Y, {5}) removes two of them.
  SummaryGraph s(6);
  SupernodeId y = s.Merge(2, 3);       // {2,3}
  SupernodeId x0 = s.Merge(0, 1);      // {0,1}
  SupernodeId x = s.Merge(x0, y);      // {0,1,2,3}
  s.AddEdge(x, 5, +1);
  s.AddEdge(y, 5, -1);
  graph::Graph g = Decode(s);
  EXPECT_TRUE(g.HasEdge(0, 5));
  EXPECT_TRUE(g.HasEdge(1, 5));
  EXPECT_FALSE(g.HasEdge(2, 5));
  EXPECT_FALSE(g.HasEdge(3, 5));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Decode, Fig2WorkedExample) {
  // Full Fig. 2 input: nodes 0..6. Edges: {0,1,2,3} x {5} minus (2,5),(3,5)
  // is part of it; reconstruct the figure's 14-edge input graph:
  // 0-1, 0-2, 0-3, 1-2, 1-3, 2-3 (clique on 0..3), 0-5, 1-5, 2-4, 3-4,
  // 0-4, 1-4, 4-5, 5-6. (A plausible reading of the figure; the exact
  // edge set matters less than the lossless round trip.)
  graph::Graph g = graph::Graph::FromEdges(
      7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 5}, {1, 5},
          {2, 4}, {3, 4}, {0, 4}, {1, 4}, {4, 5}, {5, 6}});
  ASSERT_EQ(g.num_edges(), 14u);

  // Encode exactly as the figure's final state: supernodes {0,1}, {2,3},
  // {0,1,2,3}; p-edges: clique self-loop, ({0..3},4), ({0..3},5) with
  // n-edge ({2,3},5); plus raw (4,5), (5,6).
  SummaryGraph s(7);
  SupernodeId ab = s.Merge(0, 1);
  SupernodeId cd = s.Merge(2, 3);
  SupernodeId all = s.Merge(ab, cd);
  s.AddEdge(all, all, +1);
  s.AddEdge(all, 4, +1);
  s.AddEdge(all, 5, +1);
  s.AddEdge(cd, 5, -1);
  s.AddEdge(4, 5, +1);
  s.AddEdge(5, 6, +1);
  EXPECT_TRUE(VerifyLossless(g, s).ok())
      << VerifyLossless(g, s).ToString();
  // Cost: 5 p-edges + 1 n-edge + 6 h-edges = 12 < 14 input edges; after
  // pruning {0,1} (no incident edges) the paper reaches 10.
  EXPECT_EQ(s.Cost(), 12u);
  s.SpliceOut(ab);
  EXPECT_EQ(s.Cost(), 11u);
  EXPECT_TRUE(VerifyLossless(g, s).ok());
}

TEST(Verify, DetectsMismatch) {
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 1}, {1, 2}});
  SummaryGraph s(3);
  s.AddEdge(0, 1, +1);  // missing (1,2)
  Status status = VerifyLossless(g, s);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("missing"), std::string::npos);
}

// ---------------------------------------------- partial decompression
TEST(NeighborQuery, MatchesDecodeOnRandomSummaries) {
  // Build structured summaries and compare per-node neighborhoods against
  // the fully decoded graph.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    gen::PlantedHierarchyOptions opt;
    opt.branching = 3;
    opt.depth = 2;
    opt.leaf_size = 6;
    opt.leaf_density = 0.9;
    opt.pair_link_prob = 0.5;
    opt.pair_link_decay = 0.4;
    graph::Graph g = gen::PlantedHierarchy(opt, seed);
    SummaryGraph s(g);
    // Hand-merge a few sibling pairs with explicit encodings to create
    // hierarchy: merge nodes (2i, 2i+1) and re-encode nothing (identity).
    for (NodeId u = 0; u + 1 < 12; u += 2) s.Merge(u, u + 1);
    graph::Graph decoded = Decode(s);
    const CoverLayout layout(s);
    QueryScratch scratch;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<NodeId> got = QueryNeighbors(layout, u, &scratch);
      std::sort(got.begin(), got.end());
      auto want = decoded.Neighbors(u);
      ASSERT_EQ(got.size(), want.size()) << "node " << u;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    }
  }
}

TEST(NeighborQuery, HierarchicalCancellation) {
  SummaryGraph s(6);
  SupernodeId y = s.Merge(2, 3);
  SupernodeId x = s.Merge(s.Merge(0, 1), y);
  s.AddEdge(x, 5, +1);
  s.AddEdge(y, 5, -1);
  const CoverLayout layout(s);
  QueryScratch scratch;
  EXPECT_EQ(QueryNeighbors(layout, 0, &scratch).size(), 1u);
  EXPECT_EQ(QueryNeighbors(layout, 2, &scratch).size(), 0u);
  std::vector<NodeId> n5 = QueryNeighbors(layout, 5, &scratch);
  std::sort(n5.begin(), n5.end());
  EXPECT_EQ(n5, (std::vector<NodeId>{0, 1}));
}

// ----------------------------------------------------------------- stats
TEST(Stats, CountsAndFractions) {
  SummaryGraph s(5);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, 2, +1);
  s.AddEdge(3, 4, -1);
  SummaryStats stats = ComputeStats(s);
  EXPECT_EQ(stats.num_subnodes, 5u);
  EXPECT_EQ(stats.num_supernodes, 6u);
  EXPECT_EQ(stats.num_roots, 4u);  // m, 2, 3, 4
  EXPECT_EQ(stats.p_count, 1u);
  EXPECT_EQ(stats.n_count, 1u);
  EXPECT_EQ(stats.h_count, 2u);
  EXPECT_EQ(stats.cost, 4u);
  EXPECT_EQ(stats.max_height, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_leaf_depth, 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(stats.PFraction() + stats.NFraction() + stats.HFraction(),
                   1.0);
  EXPECT_DOUBLE_EQ(stats.RelativeSize(8), 0.5);
}

// ------------------------------------------------------------ serialize
TEST(Serialize, RoundTripPreservesSemantics) {
  graph::Graph g = gen::Caveman(4, 8, 0.1, 5);
  SummaryGraph s(g);
  SupernodeId m = s.Merge(0, 1);
  SupernodeId m2 = s.Merge(m, 2);
  s.AddEdge(m2, m2, -1);  // arbitrary extra structure
  std::string buffer = SerializeSummary(s);
  auto loaded = DeserializeSummary(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Cost(), s.Cost());
  EXPECT_EQ(Decode(loaded.value()), Decode(s));
}

TEST(Serialize, RejectsCorruptedBuffers) {
  graph::Graph g = gen::ErdosRenyi(30, 60, 1);
  SummaryGraph s(g);
  s.Merge(0, 1);
  std::string buffer = SerializeSummary(s);
  // Flipping any single byte must never crash; most flips are detected.
  int rejected = 0;
  for (size_t i = 0; i < buffer.size(); i += 3) {
    std::string corrupt = buffer;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    auto result = DeserializeSummary(corrupt);
    if (!result.ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST(Serialize, RejectsTruncation) {
  SummaryGraph s(10);
  s.AddEdge(0, 1, +1);
  std::string buffer = SerializeSummary(s);
  for (size_t cut = 1; cut < buffer.size(); ++cut) {
    auto result = DeserializeSummary(buffer.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(Serialize, FileRoundTrip) {
  graph::Graph g = gen::ErdosRenyi(30, 80, 2);
  SummaryGraph s(g);
  std::string path = "/tmp/slugger_summary_test.bin";
  ASSERT_TRUE(SaveSummary(s, path).ok());
  auto loaded = LoadSummary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Decode(loaded.value()), g);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slugger::summary
