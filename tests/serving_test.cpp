// Tests for the serving layer: batched neighbor/degree queries must agree
// exactly with the single-node path (on RMAT and ER inputs, with
// duplicates and adversarial orders), and a SnapshotRegistry swap must
// never interrupt or corrupt concurrent readers. The churn test runs
// under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/snapshot_registry.hpp"
#include "gen/generators.hpp"
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

std::vector<NodeId> SortedSingleAnswer(const CompressedGraph& cg, NodeId v,
                                       QueryScratch* scratch) {
  std::vector<NodeId> expected = cg.Neighbors(v, scratch);
  std::sort(expected.begin(), expected.end());
  return expected;
}

/// Batch answers must equal the single-node answers as sets, node by node
/// and in the caller's input order. The facade walks its record layout;
/// its single answers, overrides included, must also equal the walk over
/// the bare summary's own hierarchy.
void ExpectBatchAgreesWithSingles(const graph::Graph& g,
                                  const CompressedGraph& cg,
                                  const std::vector<NodeId>& nodes) {
  QueryScratch single_scratch;
  QueryScratch bare_scratch;
  BatchScratch batch_scratch;

  BatchResult sequential;
  ASSERT_TRUE(cg.NeighborsBatch(nodes, &sequential, &batch_scratch).ok());
  ASSERT_EQ(sequential.size(), nodes.size());

  std::vector<uint64_t> degrees_seq;
  ASSERT_TRUE(cg.DegreeBatch(nodes, &degrees_seq, &batch_scratch).ok());
  ASSERT_EQ(degrees_seq.size(), nodes.size());

  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<NodeId> expected =
        SortedSingleAnswer(cg, nodes[i], &single_scratch);
    std::vector<NodeId> got_seq(sequential[i].begin(), sequential[i].end());
    std::sort(got_seq.begin(), got_seq.end());
    ASSERT_EQ(got_seq, expected) << "sequential batch, position " << i
                                 << ", node " << nodes[i];
    ASSERT_EQ(degrees_seq[i], expected.size()) << "position " << i;
    // Lossless end to end: the compressed answers are the graph's.
    ASSERT_EQ(expected.size(), g.Degree(nodes[i])) << "node " << nodes[i];

    std::vector<NodeId> bare =
        summary::QueryNeighbors(cg.summary(), nodes[i], &bare_scratch);
    std::sort(bare.begin(), bare.end());
    ASSERT_EQ(bare, expected) << "bare summary walk, node " << nodes[i];
    // One override forcing a pair in, one forcing a pair out, sorted by
    // neighbor as the contract requires.
    const NodeId n = cg.num_nodes();
    std::vector<NeighborOverride> overrides = {
        {(nodes[i] + 1) % n, +1}, {(nodes[i] + 2) % n, -1}};
    std::sort(overrides.begin(), overrides.end(),
              [](const NeighborOverride& a, const NeighborOverride& b) {
                return a.neighbor < b.neighbor;
              });
    if (overrides[0].neighbor == overrides[1].neighbor) overrides.pop_back();
    std::vector<NodeId> facade =
        cg.Neighbors(nodes[i], &single_scratch, overrides);
    std::sort(facade.begin(), facade.end());
    std::vector<NodeId> walked = summary::QueryNeighbors(
        cg.summary(), nodes[i], &bare_scratch, overrides);
    std::sort(walked.begin(), walked.end());
    ASSERT_EQ(facade, walked) << "overridden, node " << nodes[i];
    ASSERT_EQ(cg.Degree(nodes[i], &single_scratch, overrides),
              summary::QueryDegree(cg.summary(), nodes[i], &bare_scratch,
                                   overrides))
        << "overridden degree, node " << nodes[i];
  }
}

/// A batch that covers every node, plus duplicates and a shuffled tail —
/// the orders a cache-unfriendly service would actually send.
std::vector<NodeId> AdversarialBatch(NodeId num_nodes, uint64_t seed) {
  std::vector<NodeId> nodes(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) nodes[v] = v;
  Rng rng(seed);
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::swap(nodes[v], nodes[rng.Below(num_nodes)]);
  }
  for (int i = 0; i < 200; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.Below(num_nodes)));
  }
  return nodes;
}

// --------------------------------------------------- batch vs single
TEST(BatchQuery, AgreesWithSingleQueriesOnRmat) {
  graph::Graph g = gen::RMat(10, 8192, 0.57, 0.19, 0.19, /*seed=*/3);
  CompressedGraph cg = Compress(g);
  ExpectBatchAgreesWithSingles(g, cg, AdversarialBatch(g.num_nodes(), 11));
}

TEST(BatchQuery, AgreesWithSingleQueriesOnErdosRenyi) {
  graph::Graph g = gen::ErdosRenyi(900, 5400, 21);
  CompressedGraph cg = Compress(g);
  ExpectBatchAgreesWithSingles(g, cg, AdversarialBatch(g.num_nodes(), 12));
}

TEST(BatchQuery, EdgeCaseBatches) {
  graph::Graph g = gen::ErdosRenyi(400, 1600, 5);
  CompressedGraph cg = Compress(g);

  BatchScratch scratch;
  BatchResult result;
  // Empty batch.
  ASSERT_TRUE(cg.NeighborsBatch({}, &result, &scratch).ok());
  EXPECT_EQ(result.size(), 0u);
  EXPECT_TRUE(result.neighbors.empty());
  std::vector<uint64_t> degrees;
  ASSERT_TRUE(cg.DegreeBatch({}, &degrees, &scratch).ok());
  EXPECT_TRUE(degrees.empty());

  // One node, repeated: every copy gets the full identical answer.
  std::vector<NodeId> repeated(64, 7);
  ASSERT_TRUE(cg.NeighborsBatch(repeated, &result, &scratch).ok());
  QueryScratch single;
  const std::vector<NodeId> expected = SortedSingleAnswer(cg, 7, &single);
  for (size_t i = 0; i < repeated.size(); ++i) {
    std::vector<NodeId> got(result[i].begin(), result[i].end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << i;
  }

  // A batch and a single query interleaved on the SAME scratch: the batch
  // pass must restore the all-zero invariant.
  ASSERT_TRUE(cg.NeighborsBatch(repeated, &result, &scratch).ok());
  EXPECT_EQ(summary::QueryNeighbors(cg.summary(), 7, &scratch.query).size(),
            expected.size());
}

// ------------------------------------------------------ snapshot swap
TEST(SnapshotRegistry, StartsEmptyAndVersionsEachPublish) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.version(), 0u);

  graph::Graph g = gen::ErdosRenyi(200, 800, 9);
  SnapshotRegistry::Snapshot first = registry.Publish(Compress(g, 2));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(registry.Current(), first);
  EXPECT_EQ(registry.version(), 1u);

  // Readers holding the old snapshot keep it across a swap.
  SnapshotRegistry::Snapshot second = registry.Publish(Compress(g, 6));
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_EQ(registry.Current(), second);
  EXPECT_NE(first, second);
  QueryScratch scratch;
  EXPECT_EQ(first->Degree(0, &scratch), second->Degree(0, &scratch));

  EXPECT_EQ(registry.Publish(SnapshotRegistry::Snapshot()).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(registry.version(), 2u);  // the failed publish did not swap
}

TEST(SnapshotRegistry, ConstructedWithInitialSnapshotServesImmediately) {
  graph::Graph g = gen::ErdosRenyi(150, 600, 10);
  SnapshotRegistry registry(Compress(g, 3));
  ASSERT_NE(registry.Current(), nullptr);
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.Current()->num_nodes(), g.num_nodes());
}

// The churn test: readers hammer Current()->queries while a writer swaps
// summaries underneath them. Every snapshot is a lossless summary of the
// same graph, so every answer must match the raw graph no matter which
// version a reader happens to hold — serving is uninterrupted and exact
// across swaps. TSan verifies the synchronization in CI.
TEST(SnapshotRegistry, ReadersServeUninterruptedAcrossSwaps) {
  graph::Graph g = gen::ErdosRenyi(500, 2500, 33);

  // Pre-build summaries of increasing quality outside the timed region.
  std::vector<CompressedGraph> versions;
  for (uint32_t iterations : {1, 3, 5, 8}) {
    versions.push_back(Compress(g, iterations));
  }

  SnapshotRegistry registry(std::move(versions.front()));
  constexpr unsigned kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> queries{0};
  std::vector<uint64_t> max_version_seen(kReaders, 0);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      QueryScratch scratch;
      BatchScratch batch_scratch;
      BatchResult result;
      std::vector<NodeId> batch(32);
      // do-while: every reader serves at least one batch even when a
      // single-core scheduler starves it until the writer finishes.
      do {
        SnapshotRegistry::Snapshot snap = registry.Current();
        max_version_seen[r] = std::max(max_version_seen[r],
                                       registry.version());
        for (NodeId& v : batch) {
          v = static_cast<NodeId>(rng.Below(g.num_nodes()));
        }
        if (!snap->NeighborsBatch(batch, &result, &batch_scratch).ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          if (result[i].size() != g.Degree(batch[i])) mismatches.fetch_add(1);
        }
        NodeId probe = static_cast<NodeId>(rng.Below(g.num_nodes()));
        if (snap->Degree(probe, &scratch) != g.Degree(probe)) {
          mismatches.fetch_add(1);
        }
        queries.fetch_add(batch.size() + 1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  // Writer: publish the remaining versions, letting readers run between
  // swaps.
  for (size_t i = 1; i < versions.size(); ++i) {
    while (queries.load() < i * 2000) std::this_thread::yield();
    registry.Publish(std::move(versions[i]));
  }
  while (queries.load() < versions.size() * 2000) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(queries.load(), versions.size() * 2000);
  EXPECT_EQ(registry.version(), versions.size());
  for (unsigned r = 0; r < kReaders; ++r) {
    EXPECT_GT(max_version_seen[r], 0u) << "reader " << r << " never ran";
  }
}

}  // namespace
}  // namespace slugger
