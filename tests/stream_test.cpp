// Tests for the dynamic-update subsystem (ISSUE 5): a DynamicGraph must
// stay losslessly correct under arbitrary insert/delete streams — the
// oracle tests replay the same edits on a plain reference adjacency and
// demand exact agreement after every batch and after every compaction
// (fold and rebuild, on RMAT and ER) — and must serve concurrent
// readers while a background compaction folds and publishes (the churn
// test runs under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "stream/edge_overlay.hpp"
#include "summary/neighbor_query.hpp"
#include "util/random.hpp"

namespace slugger {
namespace {

CompressedGraph Compress(const graph::Graph& g, uint32_t iterations = 10) {
  EngineOptions options;
  options.config.iterations = iterations;
  options.config.seed = 7;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return std::move(compressed).value();
}

/// The oracle: a mutable adjacency-set graph the edit stream is replayed
/// on, independent of every data structure under test.
class RefGraph {
 public:
  explicit RefGraph(const graph::Graph& g) : adj_(g.num_nodes()) {
    for (const Edge& e : g.Edges()) {
      adj_[e.first].insert(e.second);
      adj_[e.second].insert(e.first);
    }
  }

  bool Apply(const EdgeEdit& e) {
    if (e.kind == EditKind::kInsert) {
      const bool inserted = adj_[e.u].insert(e.v).second;
      adj_[e.v].insert(e.u);
      return inserted;
    }
    const bool erased = adj_[e.u].erase(e.v) > 0;
    adj_[e.v].erase(e.u);
    return erased;
  }

  bool HasEdge(NodeId u, NodeId v) const { return adj_[u].count(v) > 0; }
  size_t Degree(NodeId u) const { return adj_[u].size(); }
  const std::set<NodeId>& Neighbors(NodeId u) const { return adj_[u]; }
  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }

  graph::Graph ToGraph() const {
    std::vector<Edge> edges;
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (NodeId v : adj_[u]) {
        if (u < v) edges.push_back({u, v});
      }
    }
    return graph::Graph::FromEdges(num_nodes(), edges);
  }

 private:
  std::vector<std::set<NodeId>> adj_;
};

/// Draws one random edit: inserts of random pairs, deletes of existing
/// edges (sampled through random probing of the reference), and explicit
/// re-inserts of recently deleted edges — the stream the acceptance
/// criteria demand (inserts + deletes, including re-inserts).
EdgeEdit RandomEdit(const RefGraph& ref, Rng& rng,
                    std::deque<Edge>* recently_deleted) {
  const NodeId n = ref.num_nodes();
  const double kind = rng.NextDouble();
  if (kind < 0.2 && !recently_deleted->empty()) {
    const Edge e = recently_deleted->front();
    recently_deleted->pop_front();
    return {e.first, e.second, EditKind::kInsert};
  }
  NodeId u = static_cast<NodeId>(rng.Below(n));
  NodeId v = static_cast<NodeId>(rng.Below(n));
  while (v == u) v = static_cast<NodeId>(rng.Below(n));
  if (kind < 0.6) {
    // Delete: bias toward actual edges by probing u's neighborhood.
    const std::set<NodeId>& nbrs = ref.Neighbors(u);
    if (!nbrs.empty()) {
      size_t skip = rng.Below(nbrs.size());
      auto it = nbrs.begin();
      std::advance(it, skip);
      v = *it;
      recently_deleted->push_back(MakeEdge(u, v));
      if (recently_deleted->size() > 256) recently_deleted->pop_front();
    }
    return {u, v, EditKind::kDelete};
  }
  return {u, v, EditKind::kInsert};
}

/// Exact agreement of every node's degree and a sample of neighbor
/// lists (plus every node the batch touched) against the oracle.
void ExpectAgrees(const DynamicGraph& dg, const RefGraph& ref,
                  std::span<const EdgeEdit> last_batch, Rng& rng) {
  const NodeId n = ref.num_nodes();
  std::vector<NodeId> all(n);
  for (NodeId u = 0; u < n; ++u) all[u] = u;
  std::vector<uint64_t> degrees;
  OverlayBatchScratch batch_scratch;
  ASSERT_TRUE(dg.DegreeBatch(all, &degrees, &batch_scratch).ok());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(degrees[u], ref.Degree(u)) << "degree of node " << u;
  }

  std::vector<NodeId> probes;
  for (const EdgeEdit& e : last_batch.subspan(
           last_batch.size() > 32 ? last_batch.size() - 32 : 0)) {
    probes.push_back(e.u);
    probes.push_back(e.v);
  }
  for (int i = 0; i < 64; ++i) {
    probes.push_back(static_cast<NodeId>(rng.Below(n)));
  }

  QueryScratch scratch;
  for (NodeId u : probes) {
    std::vector<NodeId> got = dg.Neighbors(u, &scratch);
    std::sort(got.begin(), got.end());
    const std::set<NodeId>& want = ref.Neighbors(u);
    ASSERT_EQ(got, std::vector<NodeId>(want.begin(), want.end()))
        << "neighbors of node " << u;
  }

  // The batched read path must agree with the single path on the probes.
  BatchResult batch;
  ASSERT_TRUE(dg.NeighborsBatch(probes, &batch, &batch_scratch).ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<NodeId> got(batch[i].begin(), batch[i].end());
    std::sort(got.begin(), got.end());
    const std::set<NodeId>& want = ref.Neighbors(probes[i]);
    ASSERT_EQ(got, std::vector<NodeId>(want.begin(), want.end()))
        << "batched neighbors of node " << probes[i];
  }
}

struct OracleCase {
  const char* name;
  bool rmat;
  bool fold;  ///< policy pins fold compactions; otherwise rebuilds
};

class StreamOracle : public ::testing::TestWithParam<OracleCase> {};

/// The acceptance-criteria oracle: a long random stream of inserts,
/// deletes, and re-inserts, exact agreement after every batch, and a
/// full losslessness proof (decode + published-snapshot Verify) after
/// every compaction.
TEST_P(StreamOracle, RandomEditStreamStaysLossless) {
  const OracleCase& c = GetParam();
  graph::Graph g = c.rmat
                       ? gen::RMat(10, 5000, 0.57, 0.19, 0.19, 11)
                       : gen::ErdosRenyi(1500, 5000, 12);
  RefGraph ref(g);

  DynamicGraphOptions options;
  options.auto_compact = false;  // deterministic compaction points
  options.rebuild.config.iterations = 6;
  options.rebuild.config.seed = 5;
  if (c.fold) {
    options.policy.max_fold_dirty_fraction = 1.0;
    options.policy.rebuild_after_folded = ~0ull;
  } else {
    options.policy.max_fold_dirty_fraction = 0.0;  // every compaction rebuilds
  }
  DynamicGraph dg(Compress(g), options);

  Rng rng((c.rmat ? 0xABCDull : 0xDCBAull) + (c.fold ? 1 : 0));
  std::deque<Edge> recently_deleted;
  // 50k-edit streams on the fold cases, 25k on the rebuild cases (each
  // rebuild re-summarizes): 150k edits across the suite, every 1000-edit
  // prefix checked against the oracle.
  const size_t kBatches = c.fold ? 50 : 25;
  const size_t kBatchSize = 1000;
  uint64_t ref_changes = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<EdgeEdit> batch;
    batch.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(RandomEdit(ref, rng, &recently_deleted));
    }
    ASSERT_TRUE(dg.ApplyEdits(batch).ok());
    for (const EdgeEdit& e : batch) ref_changes += ref.Apply(e);
    ExpectAgrees(dg, ref, batch, rng);

    if ((b + 1) % 8 == 0) {
      const uint64_t version_before = dg.registry().version();
      ASSERT_TRUE(dg.Compact().ok());
      DynamicGraphStats stats = dg.stats();
      EXPECT_EQ(stats.corrections, 0u) << "compaction must drain the overlay";
      EXPECT_EQ(dg.registry().version(), version_before + 1);
      if (c.fold) {
        EXPECT_GE(stats.compactions_fold, 1u);
        EXPECT_EQ(stats.compactions_rebuild, 0u);
      } else {
        EXPECT_GE(stats.compactions_rebuild, 1u);
        EXPECT_EQ(stats.compactions_fold, 0u);
      }
      // Losslessness proof: the published base IS the mutated graph.
      const graph::Graph expected = ref.ToGraph();
      SnapshotRegistry::Snapshot snap = dg.registry().Current();
      ASSERT_TRUE(snap->Verify(expected).ok());
      ASSERT_TRUE(dg.Decode() == expected);
      ExpectAgrees(dg, ref, {}, rng);
    }
  }
  DynamicGraphStats stats = dg.stats();
  EXPECT_EQ(stats.edits_applied, ref_changes)
      << "DynamicGraph and the oracle must agree on which edits changed "
         "the graph";
  ASSERT_TRUE(dg.Compact().ok());
  ASSERT_TRUE(dg.Decode() == ref.ToGraph());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, StreamOracle,
    ::testing::Values(OracleCase{"rmat_fold", true, true},
                      OracleCase{"rmat_rebuild", true, false},
                      OracleCase{"er_fold", false, true},
                      OracleCase{"er_rebuild", false, false}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

TEST(Stream, EditSemantics) {
  graph::Graph g = graph::Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}});
  DynamicGraphOptions options;
  options.auto_compact = false;
  DynamicGraph dg(Compress(g, 2), options);

  // Redundant insert of a present base edge.
  ASSERT_TRUE(dg.ApplyEdit({0, 1, EditKind::kInsert}).ok());
  EXPECT_EQ(dg.stats().edits_redundant, 1u);
  EXPECT_EQ(dg.stats().corrections, 0u);

  // Fresh insert, then deleting it cancels the correction entirely.
  ASSERT_TRUE(dg.ApplyEdit({0, 4, EditKind::kInsert}).ok());
  EXPECT_EQ(dg.stats().corrections, 1u);
  EXPECT_EQ(dg.Degree(4), 1u);
  ASSERT_TRUE(dg.ApplyEdit({0, 4, EditKind::kDelete}).ok());
  EXPECT_EQ(dg.stats().corrections, 0u);
  EXPECT_EQ(dg.Degree(4), 0u);

  // Delete a base edge, then re-insert it: the correction cancels.
  ASSERT_TRUE(dg.ApplyEdit({1, 2, EditKind::kDelete}).ok());
  EXPECT_EQ(dg.stats().corrections, 1u);
  EXPECT_EQ(dg.Degree(1), 1u);
  ASSERT_TRUE(dg.ApplyEdit({1, 2, EditKind::kInsert}).ok());
  EXPECT_EQ(dg.stats().corrections, 0u);
  EXPECT_EQ(dg.Degree(1), 2u);

  // Redundant delete of an absent edge.
  ASSERT_TRUE(dg.ApplyEdit({0, 3, EditKind::kDelete}).ok());
  EXPECT_EQ(dg.stats().corrections, 0u);
}

TEST(Stream, EditValidationRejectsWholeBatch) {
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 1}, {1, 2}});
  DynamicGraphOptions options;
  options.auto_compact = false;
  DynamicGraph dg(Compress(g, 2), options);

  const std::vector<EdgeEdit> out_of_range = {
      {0, 2, EditKind::kInsert},  // valid, but must not apply
      {1, 7, EditKind::kInsert},
  };
  Status status = dg.ApplyEdits(out_of_range);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(dg.stats().corrections, 0u) << "a rejected batch applies nothing";
  EXPECT_EQ(dg.Degree(0), 1u);

  const std::vector<EdgeEdit> self_loop = {{2, 2, EditKind::kInsert}};
  EXPECT_EQ(dg.ApplyEdits(self_loop).code(),
            Status::Code::kInvalidArgument);

  // Out-of-range reads mirror the CompressedGraph contract.
  QueryScratch scratch;
  EXPECT_TRUE(dg.Neighbors(99, &scratch).empty());
  EXPECT_EQ(dg.Degree(99), 0u);
  BatchResult out;
  OverlayBatchScratch batch_scratch;
  const std::vector<NodeId> bad_batch = {0, 99};
  EXPECT_EQ(dg.NeighborsBatch(bad_batch, &out, &batch_scratch).code(),
            Status::Code::kInvalidArgument);
}

TEST(Stream, QueryOverrideHookForcesPresenceAndAbsence) {
  graph::Graph g = gen::ErdosRenyi(200, 600, 3);
  CompressedGraph cg = Compress(g);
  const summary::CoverLayout layout(cg.summary());
  QueryScratch scratch;

  // Pick u with at least one neighbor; force one neighbor out and one
  // non-neighbor in, straight at the summary layer.
  NodeId u = 0;
  while (g.Degree(u) == 0) ++u;
  const NodeId removed = g.Neighbors(u)[0];
  NodeId added = 0;
  while (added == u || g.HasEdge(u, added)) ++added;

  const std::vector<summary::NeighborOverride> fixed = {{removed, -1},
                                                        {added, +1}};
  std::vector<NodeId> got =
      summary::QueryNeighbors(layout, u, &scratch, fixed);
  std::sort(got.begin(), got.end());
  std::set<NodeId> want(g.Neighbors(u).begin(), g.Neighbors(u).end());
  want.erase(removed);
  want.insert(added);
  EXPECT_EQ(got, std::vector<NodeId>(want.begin(), want.end()));
  // The scratch invariant is restored: a plain follow-up query agrees
  // with the unmodified graph.
  std::vector<NodeId> plain = summary::QueryNeighbors(layout, u, &scratch);
  EXPECT_EQ(plain.size(), g.Degree(u));
}

TEST(Stream, FoldAndRebuildProduceTheSameGraph) {
  graph::Graph g = gen::RMat(9, 2500, 0.57, 0.19, 0.19, 21);
  RefGraph ref(g);
  Rng rng(77);
  std::deque<Edge> recent;
  std::vector<EdgeEdit> edits;
  for (int i = 0; i < 3000; ++i) edits.push_back(RandomEdit(ref, rng, &recent));

  auto run = [&](double fold_fraction) {
    DynamicGraphOptions options;
    options.auto_compact = false;
    options.rebuild.config.iterations = 5;
    options.policy.max_fold_dirty_fraction = fold_fraction;
    DynamicGraph dg(Compress(g), options);
    EXPECT_TRUE(dg.ApplyEdits(edits).ok());
    EXPECT_TRUE(dg.Compact().ok());
    return dg.Decode();
  };

  graph::Graph folded = run(1.0);
  graph::Graph rebuilt = run(0.0);
  for (const EdgeEdit& e : edits) ref.Apply(e);
  const graph::Graph expected = ref.ToGraph();
  EXPECT_TRUE(folded == expected);
  EXPECT_TRUE(rebuilt == expected);
}

TEST(Stream, FoldOnChainedCorrectionsMatchesOracle) {
  // Corrections that chain through shared endpoints (a < b < c: {a,b},
  // then {b,c}): the fold rewrites the leaf pair {a,b} before it walks b,
  // and it reads b's coverage off the base's layout, not off the copy it
  // is rewriting. The folded summary must still decode to the edited
  // graph.
  graph::Graph g = gen::ErdosRenyi(600, 3000, 31);
  RefGraph ref(g);
  std::vector<EdgeEdit> edits;
  for (NodeId a = 0; a + 19 < ref.num_nodes(); a += 24) {
    const NodeId b = a + 7;
    const NodeId c = a + 19;
    for (const auto& [u, v] : {std::pair{a, b}, std::pair{b, c}}) {
      edits.push_back(
          {u, v, ref.HasEdge(u, v) ? EditKind::kDelete : EditKind::kInsert});
    }
  }

  DynamicGraphOptions options;
  options.auto_compact = false;
  options.policy.max_fold_dirty_fraction = 1.0;
  options.policy.rebuild_after_folded = ~0ull;
  DynamicGraph dg(Compress(g), options);
  ASSERT_TRUE(dg.ApplyEdits(edits).ok());
  for (const EdgeEdit& e : edits) ASSERT_TRUE(ref.Apply(e));
  ASSERT_EQ(dg.stats().corrections, edits.size());

  ASSERT_TRUE(dg.Compact().ok());
  const DynamicGraphStats stats = dg.stats();
  EXPECT_EQ(stats.compactions_fold, 1u);
  EXPECT_EQ(stats.compactions_rebuild, 0u);
  EXPECT_EQ(stats.corrections, 0u);
  EXPECT_TRUE(dg.Decode() == ref.ToGraph());
}

TEST(Stream, AutoCompactionTriggersAndPublishes) {
  graph::Graph g = gen::ErdosRenyi(800, 4000, 9);
  RefGraph ref(g);
  DynamicGraphOptions options;
  options.auto_compact = true;
  options.policy.min_corrections = 64;
  options.policy.max_overlay_ratio = 0.0;  // any 64 corrections trigger
  options.policy.max_fold_dirty_fraction = 1.0;
  options.rebuild.config.iterations = 4;
  DynamicGraph dg(Compress(g), options);

  Rng rng(31);
  std::deque<Edge> recent;
  for (int b = 0; b < 20; ++b) {
    std::vector<EdgeEdit> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(RandomEdit(ref, rng, &recent));
    ASSERT_TRUE(dg.ApplyEdits(batch).ok());
    for (const EdgeEdit& e : batch) ref.Apply(e);
  }
  dg.WaitForCompaction();
  DynamicGraphStats stats = dg.stats();
  EXPECT_GE(stats.compactions_fold + stats.compactions_rebuild, 1u);
  EXPECT_GE(dg.registry().version(), 2u);
  // Whatever raced, the final state is exact.
  ASSERT_TRUE(dg.Compact().ok());
  ASSERT_TRUE(dg.Decode() == ref.ToGraph());
}

TEST(Stream, BrokenRebuildOptionsSurfaceFromCompaction) {
  graph::Graph g = gen::ErdosRenyi(300, 900, 5);
  RefGraph ref(g);
  DynamicGraphOptions options;
  options.auto_compact = true;
  options.policy.min_corrections = 16;
  options.policy.max_overlay_ratio = 0.0;
  options.policy.max_fold_dirty_fraction = 0.0;  // force the rebuild path
  options.rebuild.config.iterations = 0;         // invalid: Engine rejects
  DynamicGraph dg(Compress(g, 3), options);

  Rng rng(1);
  std::deque<Edge> recent;
  for (int b = 0; b < 4; ++b) {
    std::vector<EdgeEdit> batch;
    for (int i = 0; i < 32; ++i) batch.push_back(RandomEdit(ref, rng, &recent));
    ASSERT_TRUE(dg.ApplyEdits(batch).ok());
    for (const EdgeEdit& e : batch) ref.Apply(e);
  }
  dg.WaitForCompaction();
  EXPECT_FALSE(dg.last_compaction_error().ok())
      << "a background compaction failure must not vanish with the worker";
  EXPECT_GE(dg.stats().compactions_failed, 1u);

  // Reads stay exact even while compaction is broken.
  QueryScratch scratch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(dg.Degree(u, &scratch), ref.Degree(u)) << "node " << u;
  }

  // An explicit Compact reports the same error afresh...
  EXPECT_EQ(dg.Compact().code(), Status::Code::kInvalidArgument);
  const uint64_t failed_after_explicit = dg.stats().compactions_failed;
  // ...but auto-compaction is paused: more edits spawn no doomed runs.
  std::vector<EdgeEdit> more;
  for (int i = 0; i < 64; ++i) more.push_back(RandomEdit(ref, rng, &recent));
  ASSERT_TRUE(dg.ApplyEdits(more).ok());
  for (const EdgeEdit& e : more) ref.Apply(e);
  dg.WaitForCompaction();
  EXPECT_EQ(dg.stats().compactions_failed, failed_after_explicit);
  ASSERT_TRUE(dg.Decode() == ref.ToGraph());
}

/// Readers hammer single + batched reads while one writer applies edits
/// and background compactions fold and publish under them. Run under
/// TSan in CI; the assertions here are well-formedness (every answer
/// comes from SOME consistent state — exactness is re-proved at the
/// end, single-threaded).
TEST(Stream, ConcurrentReadersDuringCompactionChurn) {
  graph::Graph g = gen::ErdosRenyi(2000, 8000, 17);
  RefGraph ref(g);
  DynamicGraphOptions options;
  options.auto_compact = true;
  options.policy.min_corrections = 256;
  options.policy.max_overlay_ratio = 0.0;
  options.policy.max_fold_dirty_fraction = 1.0;
  options.rebuild.config.iterations = 3;
  DynamicGraph dg(Compress(g, 6), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xBEEF + r);
      QueryScratch scratch;
      OverlayBatchScratch batch_scratch;
      BatchResult result;
      std::vector<NodeId> batch(64);
      std::vector<uint64_t> degrees;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId u = static_cast<NodeId>(rng.Below(g.num_nodes()));
        std::vector<NodeId> nbrs = dg.Neighbors(u, &scratch);
        std::sort(nbrs.begin(), nbrs.end());
        for (size_t i = 0; i < nbrs.size(); ++i) {
          ASSERT_LT(nbrs[i], g.num_nodes());
          if (i > 0) {
            ASSERT_NE(nbrs[i], nbrs[i - 1]) << "duplicate neighbor";
          }
          ASSERT_NE(nbrs[i], u) << "self-loop served";
        }
        for (NodeId& v : batch) {
          v = static_cast<NodeId>(rng.Below(g.num_nodes()));
        }
        ASSERT_TRUE(dg.NeighborsBatch(batch, &result, &batch_scratch).ok());
        ASSERT_TRUE(dg.DegreeBatch(batch, &degrees, &batch_scratch).ok());
        // Registry snapshots serve consistently too.
        SnapshotRegistry::Snapshot snap = dg.registry().Current();
        ASSERT_NE(snap, nullptr);
        (void)snap->Degree(u);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(99);
  std::deque<Edge> recent;
  for (int b = 0; b < 60; ++b) {
    std::vector<EdgeEdit> batch;
    for (int i = 0; i < 512; ++i) {
      batch.push_back(RandomEdit(ref, rng, &recent));
    }
    ASSERT_TRUE(dg.ApplyEdits(batch).ok());
    for (const EdgeEdit& e : batch) ref.Apply(e);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  dg.WaitForCompaction();
  ASSERT_TRUE(dg.Compact().ok());
  ASSERT_TRUE(dg.Decode() == ref.ToGraph());
  SnapshotRegistry::Snapshot final_snap = dg.registry().Current();
  ASSERT_TRUE(final_snap->Verify(ref.ToGraph()).ok());
}

}  // namespace
}  // namespace slugger
