// Tests for the in-process sharding subsystem (ISSUE 8): deterministic
// partitioning and manifest round-trips, per-shard summarization, and
// the coordinator's scatter-gather contract — byte-identical agreement
// with a single-box CompressedGraph across shard counts (boundary
// nodes, duplicates, hostile ids included), degraded-shard Status
// paths, rebalance, and multi-reader churn with a mid-stream shard
// republish (the churn test runs under ThreadSanitizer in CI). Also
// covers the paged query-error counter on CompressedGraph.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "api/snapshot_registry.hpp"
#include "dist/coordinator.hpp"
#include "dist/manifest.hpp"
#include "dist/partitioner.hpp"
#include "dist/shard_summarizer.hpp"
#include "gen/datasets.hpp"
#include "gen/generators.hpp"
#include "graph/partition_stream.hpp"
#include "storage/storage.hpp"
#include "util/random.hpp"

namespace slugger {
namespace {

CompressedGraph Compress(const graph::Graph& g, uint64_t seed = 7,
                         uint32_t iterations = 10) {
  EngineOptions options;
  options.config.iterations = iterations;
  options.config.seed = seed;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return std::move(compressed).value();
}

ShardedGraph BuildSharded(const graph::Graph& g, uint32_t num_shards,
                          dist::PartitionStrategy strategy =
                              dist::PartitionOptions{}.strategy,
                          uint32_t num_threads = 0) {
  ShardedOptions options;
  options.partition.num_shards = num_shards;
  options.partition.strategy = strategy;
  options.num_threads = num_threads;
  options.engine.config.iterations = 10;
  options.engine.config.seed = 7;
  StatusOr<ShardedGraph> sharded = ShardedGraph::Build(g, options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

/// Every strategy PartitionGraph implements.
constexpr dist::PartitionStrategy kEveryStrategy[] = {
    dist::PartitionStrategy::kContiguous, dist::PartitionStrategy::kHashed,
    dist::PartitionStrategy::kShingle};

/// Share of g's edges whose endpoints have different home shards.
double CutFraction(const graph::Graph& g, const dist::ShardManifest& m) {
  uint64_t cut = 0;
  for (const Edge& e : g.Edges()) {
    if (m.HomeOf(e.first) != m.HomeOf(e.second)) ++cut;
  }
  return static_cast<double>(cut) / static_cast<double>(g.num_edges());
}

/// Permutation of all nodes plus 200 random duplicates — every node is
/// queried at least once, boundary nodes included.
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

/// The coordinator's canonical form of a single-box answer: same
/// offsets, each per-position neighbor list sorted ascending.
BatchResult CanonicalSingleBox(const CompressedGraph& cg,
                               const std::vector<NodeId>& nodes) {
  BatchResult expected;
  EXPECT_TRUE(cg.NeighborsBatch(nodes, &expected).ok());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::sort(expected.neighbors.begin() + expected.offsets[i],
              expected.neighbors.begin() + expected.offsets[i + 1]);
  }
  return expected;
}

/// Byte-identical agreement: offsets AND neighbor bytes, not just sets.
void ExpectShardedAgreesWithSingleBox(const graph::Graph& g,
                                      const CompressedGraph& single,
                                      const ShardedGraph& sharded,
                                      const std::vector<NodeId>& nodes) {
  const BatchResult expected = CanonicalSingleBox(single, nodes);

  BatchResult got;
  dist::GatherStats stats;
  ASSERT_TRUE(sharded.NeighborsBatch(nodes, &got, &stats).ok());
  ASSERT_EQ(got.offsets, expected.offsets);
  ASSERT_EQ(got.neighbors, expected.neighbors);

  std::vector<uint64_t> degrees;
  ASSERT_TRUE(sharded.DegreeBatch(nodes, &degrees).ok());
  ASSERT_EQ(degrees.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(degrees[i], expected.offsets[i + 1] - expected.offsets[i])
        << "position " << i << ", node " << nodes[i];
    // Lossless end to end: the stitched degree is the graph's.
    ASSERT_EQ(degrees[i], g.Degree(nodes[i])) << "node " << nodes[i];
  }
  // Isolated nodes route to no shard at all, so subqueries may be below
  // the batch size; it must still be positive and bounded by full fan-out.
  ASSERT_GT(stats.shards_dispatched, 0u);
  ASSERT_GT(stats.subqueries, 0u);
  ASSERT_LE(stats.subqueries, nodes.size() * sharded.num_shards());
}

// ----------------------------------------------------- partitioner

TEST(Partitioner, IsDeterministicForEveryStrategy) {
  graph::Graph g = gen::RMat(9, 4096, 0.57, 0.19, 0.19, /*seed=*/3);
  for (dist::PartitionStrategy strategy : kEveryStrategy) {
    dist::PartitionOptions options;
    options.num_shards = 4;
    options.strategy = strategy;
    StatusOr<dist::ShardManifest> a = dist::PartitionGraph(g, options);
    StatusOr<dist::ShardManifest> b = dist::PartitionGraph(g, options);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value(), b.value())
        << "strategy " << static_cast<int>(strategy);
    ASSERT_EQ(a.value().Serialize(), b.value().Serialize());
  }
}

TEST(Partitioner, EveryEdgeHasExactlyOneOwnerAndStatsAdd) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 11);
  dist::PartitionOptions options;
  options.num_shards = 4;
  StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, options);
  ASSERT_TRUE(manifest.ok());
  const dist::ShardManifest& m = manifest.value();

  uint64_t owned_total = 0, nodes_total = 0, degree_total = 0;
  for (const dist::ShardStats& s : m.shard_stats()) {
    owned_total += s.owned_edges;
    nodes_total += s.num_nodes;
    degree_total += s.total_degree;
    ASSERT_EQ(s.owned_edges, s.internal_edges + s.boundary_edges);
  }
  ASSERT_EQ(owned_total, g.num_edges());
  ASSERT_EQ(nodes_total, g.num_nodes());
  ASSERT_EQ(degree_total, 2 * g.num_edges());
  for (const Edge& e : g.Edges()) {
    ASSERT_EQ(m.OwnerOf(e), m.HomeOf(e.first));
  }
}

TEST(Partitioner, TouchSetsAreExactlyTheIncidentOwners) {
  graph::Graph g = gen::ErdosRenyi(300, 1500, 17);
  dist::PartitionOptions options;
  options.num_shards = 8;
  options.strategy = dist::PartitionStrategy::kHashed;
  StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, options);
  ASSERT_TRUE(manifest.ok());
  const dist::ShardManifest& m = manifest.value();

  // Brute-force the owners of each node's incident edges and compare.
  std::vector<std::vector<uint32_t>> expected(g.num_nodes());
  for (const Edge& e : g.Edges()) {
    expected[e.first].push_back(m.OwnerOf(e));
    expected[e.second].push_back(m.OwnerOf(e));
  }
  uint32_t boundary_nodes = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::sort(expected[v].begin(), expected[v].end());
    expected[v].erase(std::unique(expected[v].begin(), expected[v].end()),
                      expected[v].end());
    const std::span<const uint32_t> touch = m.TouchSet(v);
    ASSERT_EQ(std::vector<uint32_t>(touch.begin(), touch.end()), expected[v])
        << "node " << v;
    if (m.IsBoundary(v)) ++boundary_nodes;
  }
  // A hashed 8-way split of a random graph must create boundary nodes,
  // or the agreement tests would not exercise stitching at all.
  ASSERT_GT(boundary_nodes, 0u);
}

TEST(Partitioner, RejectsImpossibleShardCounts) {
  graph::Graph g = gen::ErdosRenyi(10, 20, 1);
  dist::PartitionOptions zero;
  zero.num_shards = 0;
  ASSERT_FALSE(dist::PartitionGraph(g, zero).ok());
  dist::PartitionOptions toomany;
  toomany.num_shards = 11;
  ASSERT_FALSE(dist::PartitionGraph(g, toomany).ok());
}

// Why kShingle exists: SLUGGER merges only nodes of one candidate group,
// and a cut edge is a merge no shard can make. On a planted hierarchy
// the min-hash order keeps nearly every block on one shard, while a
// hashed split cuts what a random one does (3/4 at 4 shards); both
// balance owned edges. Node ids are shuffled first, so neither strategy
// gains from the generator's block-contiguous ids.
TEST(Partitioner, ShingleCutsFewerEdgesThanHashedOnAPlantedHierarchy) {
  const graph::Graph planted =
      gen::GenerateDataset("EU-syn", gen::Scale::kTiny, 1);
  std::vector<NodeId> perm(planted.num_nodes());
  for (NodeId v = 0; v < planted.num_nodes(); ++v) perm[v] = v;
  Rng(61).Shuffle(perm);
  std::vector<Edge> edges;
  for (const Edge& e : planted.Edges()) {
    edges.push_back(MakeEdge(perm[e.first], perm[e.second]));
  }
  const graph::Graph g = graph::Graph::FromEdges(planted.num_nodes(), edges);
  dist::PartitionOptions shingle;
  shingle.strategy = dist::PartitionStrategy::kShingle;
  dist::PartitionOptions hashed;
  hashed.strategy = dist::PartitionStrategy::kHashed;
  StatusOr<dist::ShardManifest> by_shingle = dist::PartitionGraph(g, shingle);
  StatusOr<dist::ShardManifest> by_hash = dist::PartitionGraph(g, hashed);
  ASSERT_TRUE(by_shingle.ok() && by_hash.ok());

  const double shingle_cut = CutFraction(g, by_shingle.value());
  const double hashed_cut = CutFraction(g, by_hash.value());
  EXPECT_GT(hashed_cut, 0.7);
  EXPECT_LT(shingle_cut, 0.05);
  EXPECT_LT(by_shingle.value().EdgeSkew(), 1.05);
  EXPECT_LT(by_hash.value().EdgeSkew(), 1.05);
}

// Why kShingle places hubs first: otherwise the first hub pulls the
// dense core of a power-law graph onto one shard, and that shard
// summarizes slowest. On bench_dist's RMAT-14 graph the heaviest
// `shards` nodes must land on distinct shards, and no shard may hold
// much more than its even share of the hubs' (2·degree² > m) summed
// degree. Without the step, 1-2 shards take the top four and one shard
// holds about twice its share.
TEST(Partitioner, ShingleSpreadsPowerLawHubsAcrossShards) {
  const graph::Graph g = gen::RMat(14, 131072, 0.57, 0.19, 0.19, /*seed=*/7);
  dist::PartitionOptions options;
  options.num_shards = 4;
  options.strategy = dist::PartitionStrategy::kShingle;
  StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, options);
  ASSERT_TRUE(manifest.ok());
  const dist::ShardManifest& m = manifest.value();

  std::vector<NodeId> by_degree(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&g](NodeId a, NodeId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
    return a < b;
  });
  std::vector<uint32_t> top_homes;
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    top_homes.push_back(m.HomeOf(by_degree[i]));
  }
  std::sort(top_homes.begin(), top_homes.end());
  EXPECT_EQ(static_cast<uint32_t>(
                std::unique(top_homes.begin(), top_homes.end()) -
                top_homes.begin()),
            options.num_shards);

  std::vector<uint64_t> hub_degree(options.num_shards, 0);
  uint64_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint64_t d = g.Degree(v);
    if (2 * d * d > g.num_edges()) {
      hub_degree[m.HomeOf(v)] += d;
      total += d;
    }
  }
  const uint64_t heaviest =
      *std::max_element(hub_degree.begin(), hub_degree.end());
  EXPECT_LT(static_cast<double>(heaviest) * options.num_shards /
                static_cast<double>(total),
            1.25);
  EXPECT_LT(m.EdgeSkew(), 1.01);
}
// -------------------------------------------------------- manifest

TEST(Manifest, RoundTripsThroughBytesAndFiles) {
  graph::Graph g = gen::RMat(8, 2048, 0.6, 0.15, 0.15, /*seed=*/5);
  for (dist::PartitionStrategy strategy : kEveryStrategy) {
    for (uint32_t shards : {1u, 3u, 8u}) {
      SCOPED_TRACE("strategy " + std::to_string(static_cast<int>(strategy)) +
                   ", " + std::to_string(shards) + " shards");
      dist::PartitionOptions options;
      options.num_shards = shards;
      options.strategy = strategy;
      StatusOr<dist::ShardManifest> manifest =
          dist::PartitionGraph(g, options);
      ASSERT_TRUE(manifest.ok());

      const std::string bytes = manifest.value().Serialize();
      StatusOr<dist::ShardManifest> reparsed =
          dist::ShardManifest::Deserialize(bytes);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      ASSERT_EQ(reparsed.value(), manifest.value());

      const std::string path =
          testing::TempDir() + "/manifest_" + std::to_string(shards) + ".slgm";
      ASSERT_TRUE(manifest.value().Save(path).ok());
      StatusOr<dist::ShardManifest> loaded = dist::ShardManifest::Load(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded.value(), manifest.value());
      std::remove(path.c_str());
    }
  }
}

TEST(Manifest, UnknownStrategyIsCorruption) {
  // Well-formed, checksummed images that differ only in the strategy:
  // the last enumerator loads, one past it is rejected.
  const auto image = [](dist::PartitionStrategy strategy) {
    return dist::ShardManifest(1, 0, strategy, {}, {}, {},
                               std::vector<dist::ShardStats>(1))
        .Serialize();
  };
  StatusOr<dist::ShardManifest> last = dist::ShardManifest::Deserialize(
      image(dist::PartitionStrategy::kShingle));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().strategy(), dist::PartitionStrategy::kShingle);

  const auto unknown = static_cast<dist::PartitionStrategy>(
      static_cast<int>(dist::PartitionStrategy::kShingle) + 1);
  StatusOr<dist::ShardManifest> past_last =
      dist::ShardManifest::Deserialize(image(unknown));
  ASSERT_FALSE(past_last.ok());
  EXPECT_EQ(past_last.status().code(), Status::Code::kCorruption);
  EXPECT_NE(past_last.status().ToString().find("unknown partition strategy"),
            std::string::npos)
      << past_last.status().ToString();
}

// kRetiredBalancedDegree (value 2) no longer partitions, but the field
// records how a deployment was built; nothing reads it as an input. So
// a stored manifest that names it loads, and its shards serve the single
// box's answers.
TEST(Manifest, RetiredStrategyLoadsAndServesButCannotPartition) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 13);
  dist::PartitionOptions retired;
  retired.strategy = dist::PartitionStrategy::kRetiredBalancedDegree;
  StatusOr<dist::ShardManifest> rejected = dist::PartitionGraph(g, retired);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(rejected.status().ToString().find("retired"), std::string::npos)
      << rejected.status().ToString();

  // A manifest as a balanced-degree build stored it: a node map, its
  // touch sets and stats, and strategy 2.
  dist::PartitionOptions hashed;
  hashed.strategy = dist::PartitionStrategy::kHashed;
  StatusOr<dist::ShardManifest> partition = dist::PartitionGraph(g, hashed);
  ASSERT_TRUE(partition.ok());
  const dist::ShardManifest& m = partition.value();
  std::vector<uint64_t> touch_offsets{0};
  std::vector<uint32_t> touch_shards;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const uint32_t> touch = m.TouchSet(v);
    touch_shards.insert(touch_shards.end(), touch.begin(), touch.end());
    touch_offsets.push_back(touch_shards.size());
  }
  const dist::ShardManifest stored(
      m.num_shards(), m.num_edges(),
      dist::PartitionStrategy::kRetiredBalancedDegree,
      std::vector<uint32_t>(m.node_map().begin(), m.node_map().end()),
      std::move(touch_offsets), std::move(touch_shards), m.shard_stats());
  const std::string path = testing::TempDir() + "/manifest_retired.slgm";
  ASSERT_TRUE(stored.Save(path).ok());
  StatusOr<dist::ShardManifest> loaded = dist::ShardManifest::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value(), stored);
  EXPECT_EQ(loaded.value().strategy(),
            dist::PartitionStrategy::kRetiredBalancedDegree);

  dist::ShardSummarizeOptions summarize;
  summarize.engine.config.iterations = 10;
  summarize.engine.config.seed = 7;
  StatusOr<std::vector<CompressedGraph>> shards =
      dist::ShardSummarizer(summarize).SummarizeShards(g, loaded.value());
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  dist::ServingEpoch epoch;
  epoch.manifest = std::make_shared<const dist::ShardManifest>(
      std::move(loaded).value());
  for (CompressedGraph& shard : shards.value()) {
    epoch.shards.push_back(
        std::make_shared<SnapshotRegistry>(std::move(shard)));
  }
  dist::Coordinator coordinator(std::move(epoch));
  ASSERT_TRUE(coordinator.status().ok()) << coordinator.status().ToString();
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 37);
  const BatchResult expected = CanonicalSingleBox(Compress(g), nodes);
  BatchResult got;
  ASSERT_TRUE(coordinator.NeighborsBatch(nodes, &got).ok());
  ASSERT_EQ(got.offsets, expected.offsets);
  ASSERT_EQ(got.neighbors, expected.neighbors);
}

TEST(Manifest, EveryTruncationAndBitFlipIsRejected) {
  graph::Graph g = gen::ErdosRenyi(64, 256, 9);
  dist::PartitionOptions options;
  options.num_shards = 4;
  StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, options);
  ASSERT_TRUE(manifest.ok());
  const std::string bytes = manifest.value().Serialize();

  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<dist::ShardManifest> parsed =
        dist::ShardManifest::Deserialize(bytes.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "truncation to " << len << " bytes accepted";
  }
  // The trailing checksum covers the whole payload, so any flip anywhere
  // must be rejected (as Corruption or a structural InvalidArgument).
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    StatusOr<dist::ShardManifest> parsed =
        dist::ShardManifest::Deserialize(corrupt);
    ASSERT_FALSE(parsed.ok()) << "bit flip at " << pos << " accepted";
  }
}

// ----------------------------------------- sharded vs single box

TEST(ShardedServing, AgreesWithSingleBoxOnRmatAcrossShardCounts) {
  graph::Graph g = gen::RMat(10, 8192, 0.57, 0.19, 0.19, /*seed=*/3);
  CompressedGraph single = Compress(g);
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 11);
  // One thread dispatches and stitches on the calling thread; four give
  // the coordinator a pool, so this batch of over 512 nodes is dispatched
  // and stitched on it, whatever the host's core count.
  for (uint32_t threads : {1u, 4u}) {
    for (dist::PartitionStrategy strategy : kEveryStrategy) {
      for (uint32_t shards : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, strategy " +
                     std::to_string(static_cast<int>(strategy)) + ", " +
                     std::to_string(shards) + " shards");
        ShardedGraph sharded = BuildSharded(g, shards, strategy, threads);
        ASSERT_EQ(sharded.num_shards(), shards);
        ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);
      }
    }
  }
}

TEST(ShardedServing, AgreesWithSingleBoxOnErdosRenyiEveryStrategy) {
  graph::Graph g = gen::ErdosRenyi(900, 5400, 21);
  CompressedGraph single = Compress(g);
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 12);
  for (dist::PartitionStrategy strategy : kEveryStrategy) {
    ShardedGraph sharded = BuildSharded(g, 4, strategy);
    // The split must produce boundary nodes for this to test stitching.
    uint32_t boundary = 0;
    const std::shared_ptr<const dist::ShardManifest> manifest =
        sharded.manifest();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (manifest->IsBoundary(v)) ++boundary;
    }
    ASSERT_GT(boundary, 0u) << "strategy " << static_cast<int>(strategy);
    ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);
  }
}

TEST(ShardedServing, OutOfRangeIdFailsExactlyLikeSingleBox) {
  graph::Graph g = gen::ErdosRenyi(200, 800, 31);
  CompressedGraph single = Compress(g);
  ShardedGraph sharded = BuildSharded(g, 4);

  const std::vector<NodeId> nodes = {3, 7, g.num_nodes(), 1};
  BatchResult single_out, sharded_out;
  Status single_status = single.NeighborsBatch(nodes, &single_out);
  dist::GatherStats stats;
  Status sharded_status = sharded.NeighborsBatch(nodes, &sharded_out, &stats);
  ASSERT_FALSE(single_status.ok());
  ASSERT_FALSE(sharded_status.ok());
  // Same contract AND the same message, so clients can switch backends
  // without re-learning the error surface.
  ASSERT_EQ(sharded_status.ToString(), single_status.ToString());
  ASSERT_EQ(stats.shards_dispatched, 0u) << "validation must precede fan-out";
}

TEST(ShardedServing, EmptyBatchIsOkAndEmpty) {
  graph::Graph g = gen::ErdosRenyi(50, 100, 2);
  ShardedGraph sharded = BuildSharded(g, 2);
  BatchResult out;
  ASSERT_TRUE(sharded.NeighborsBatch({}, &out).ok());
  ASSERT_EQ(out.size(), 0u);
  std::vector<uint64_t> degrees;
  ASSERT_TRUE(sharded.DegreeBatch({}, &degrees).ok());
  ASSERT_TRUE(degrees.empty());
}

// ------------------------------------------- degraded-shard paths

TEST(Coordinator, UnpublishedShardFailsBatchStrictlyAndDegradesGracefully) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 13);
  CompressedGraph single = Compress(g);
  ShardedGraph sharded = BuildSharded(g, 4);

  // Rebuild the epoch with shard 2's registry replaced by an empty one
  // (registered but never published — a crashed replica).
  const uint32_t victim = 2;
  dist::ServingEpoch degraded_epoch = *sharded.coordinator().epoch();
  ASSERT_GT(degraded_epoch.manifest->shard_stats()[victim].owned_edges, 0u);
  degraded_epoch.shards[victim] = std::make_shared<SnapshotRegistry>();

  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 29);

  // Strict coordinator: the batch fails with a Status naming the shard.
  dist::Coordinator strict(degraded_epoch);
  ASSERT_TRUE(strict.status().ok());
  BatchResult out;
  dist::GatherStats stats;
  Status failed = strict.NeighborsBatch(nodes, &out, &stats);
  ASSERT_FALSE(failed.ok());
  ASSERT_NE(failed.ToString().find("shard 2"), std::string::npos)
      << failed.ToString();
  ASSERT_EQ(out.size(), 0u) << "a failed batch must not leave partial output";
  ASSERT_EQ(stats.degraded.size(), 1u);
  ASSERT_EQ(stats.degraded[0].first, victim);

  // Degraded coordinator: the batch succeeds, the casualty is recorded,
  // and answers are a subset of the truth — exact wherever the victim
  // shard was not touched.
  dist::CoordinatorOptions tolerant;
  tolerant.allow_degraded = true;
  dist::Coordinator serve_what_we_have(degraded_epoch, tolerant);
  BatchResult partial;
  dist::GatherStats partial_stats;
  ASSERT_TRUE(
      serve_what_we_have.NeighborsBatch(nodes, &partial, &partial_stats).ok());
  ASSERT_EQ(partial_stats.degraded.size(), 1u);
  const BatchResult expected = CanonicalSingleBox(single, nodes);
  const std::shared_ptr<const dist::ShardManifest> manifest =
      sharded.manifest();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::span<const NodeId> got = partial[i];
    const std::span<const NodeId> full = expected[i];
    const std::span<const uint32_t> touch = manifest->TouchSet(nodes[i]);
    const bool touches_victim =
        std::find(touch.begin(), touch.end(), victim) != touch.end();
    if (!touches_victim) {
      ASSERT_TRUE(std::equal(got.begin(), got.end(), full.begin(), full.end()))
          << "untouched node " << nodes[i] << " must be exact";
    } else {
      ASSERT_TRUE(std::includes(full.begin(), full.end(), got.begin(),
                                got.end()))
          << "degraded answer for node " << nodes[i]
          << " must be a subset of the truth";
    }
  }
}

TEST(Coordinator, MalformedEpochLeavesItInertWithAStatus) {
  dist::Coordinator no_manifest(dist::ServingEpoch{});
  ASSERT_FALSE(no_manifest.status().ok());
  BatchResult out;
  Status failed = no_manifest.NeighborsBatch({}, &out);
  ASSERT_EQ(failed.ToString(), no_manifest.status().ToString());

  graph::Graph g = gen::ErdosRenyi(50, 100, 3);
  StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, {});
  ASSERT_TRUE(manifest.ok());
  dist::ServingEpoch missing_registries;
  missing_registries.manifest = std::make_shared<const dist::ShardManifest>(
      std::move(manifest).value());
  dist::Coordinator mismatched(missing_registries);
  ASSERT_FALSE(mismatched.status().ok());
}

TEST(Coordinator, RejectedAdoptKeepsTheOldEpochServing) {
  graph::Graph g = gen::ErdosRenyi(200, 1000, 7);
  CompressedGraph single = Compress(g);
  ShardedGraph sharded = BuildSharded(g, 2);
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 5);

  ASSERT_FALSE(sharded.coordinator().AdoptEpoch(dist::ServingEpoch{}).ok());
  ASSERT_TRUE(sharded.coordinator().status().ok())
      << "a serving coordinator must not lose its healthy verdict";
  ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);
}

TEST(Coordinator, AdoptEpochRetiresTheOldEpochOutsideItsLock) {
  // Regression test: AdoptEpoch used to drop the last reference to the
  // retired epoch while still holding epoch_mu_. A destructor that
  // re-enters the coordinator (or merely a large epoch teardown) would
  // then run inside the lock, stalling — or here, deadlocking — every
  // concurrent status()/epoch() reader. The traced registry's deleter
  // calls status(): with the retire-outside-lock discipline it returns;
  // with the regression this test hangs on the non-recursive mutex.
  graph::Graph g = gen::ErdosRenyi(50, 100, 11);
  StatusOr<dist::ShardManifest> partitioned = dist::PartitionGraph(g, {});
  ASSERT_TRUE(partitioned.ok());
  auto manifest = std::make_shared<const dist::ShardManifest>(
      std::move(partitioned).value());

  dist::Coordinator* coord_ptr = nullptr;
  std::atomic<bool> deleter_ran{false};
  std::atomic<bool> status_ok_in_deleter{false};

  dist::ServingEpoch first;
  first.manifest = manifest;
  {
    auto inner = std::make_shared<SnapshotRegistry>();
    first.shards.emplace_back(
        inner.get(), [inner, &coord_ptr, &deleter_ran,
                      &status_ok_in_deleter](SnapshotRegistry*) mutable {
          if (coord_ptr != nullptr) {
            status_ok_in_deleter.store(coord_ptr->status().ok());
          }
          deleter_ran.store(true);
          inner.reset();
        });
  }
  for (uint32_t s = 1; s < manifest->num_shards(); ++s) {
    first.shards.push_back(std::make_shared<SnapshotRegistry>());
  }

  dist::Coordinator coord(std::move(first));
  ASSERT_TRUE(coord.status().ok());
  coord_ptr = &coord;

  dist::ServingEpoch second;
  second.manifest = manifest;
  for (uint32_t s = 0; s < manifest->num_shards(); ++s) {
    second.shards.push_back(std::make_shared<SnapshotRegistry>());
  }
  ASSERT_TRUE(coord.AdoptEpoch(std::move(second)).ok());

  EXPECT_TRUE(deleter_ran.load())
      << "the adopt must have dropped the last reference to the old epoch";
  EXPECT_TRUE(status_ok_in_deleter.load())
      << "status() must be reachable while the retired epoch tears down";
}

// ------------------------------------------- republish + rebalance

TEST(ShardedServing, ShardLocalRepublishKeepsAnswersInvariant) {
  graph::Graph g = gen::RMat(9, 4096, 0.57, 0.19, 0.19, /*seed=*/19);
  CompressedGraph single = Compress(g);
  ShardedGraph sharded = BuildSharded(g, 4);
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 23);
  ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);

  // Republish shard 1 with a summary from a different seed and effort:
  // a different hierarchy over the SAME edge set. Lossless means the
  // answers cannot move.
  const std::shared_ptr<const dist::ShardManifest> manifest =
      sharded.manifest();
  graph::Graph shard_graph =
      graph::BuildShardGraph(g, manifest->node_map(), 1);
  sharded.shard_registry(1)->Publish(
      Compress(shard_graph, /*seed=*/99, /*iterations=*/3));
  ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);
}

TEST(ShardedServing, RebalanceSwapsTheEpochAndKeepsAnswers) {
  graph::Graph g = gen::RMat(9, 4096, 0.6, 0.15, 0.15, /*seed=*/41);
  CompressedGraph single = Compress(g);
  // Contiguous on an RMAT graph concentrates the dense low-id quadrant
  // on shard 0 — reliably skewed, so the rebalance has work to do.
  ShardedGraph sharded =
      BuildSharded(g, 4, dist::PartitionStrategy::kContiguous);
  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 43);

  const double skew = sharded.CostSkew();
  ASSERT_GE(skew, 1.0);

  // Above-current threshold: a no-op that must not touch the epoch.
  const std::shared_ptr<const dist::ShardManifest> before =
      sharded.manifest();
  StatusOr<RebalanceReport> noop = sharded.Rebalance(g, skew + 1.0);
  ASSERT_TRUE(noop.ok());
  ASSERT_FALSE(noop.value().rebalanced);
  ASSERT_EQ(sharded.manifest().get(), before.get());

  // Force a rebalance (any skew beats a 0.99 budget) and require the
  // default strategy in the new manifest plus unchanged answers.
  StatusOr<RebalanceReport> forced = sharded.Rebalance(g, 0.99);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ASSERT_TRUE(forced.value().rebalanced);
  ASSERT_EQ(sharded.manifest()->strategy(), dist::PartitionOptions{}.strategy);
  ASSERT_LE(forced.value().skew_after, forced.value().skew_before + 1e-9);
  ExpectShardedAgreesWithSingleBox(g, single, sharded, nodes);

  // Forced again, the re-partition yields the node map already serving:
  // a no-op that keeps the epoch.
  const std::shared_ptr<const dist::ShardManifest> rebalanced =
      sharded.manifest();
  StatusOr<RebalanceReport> repeat = sharded.Rebalance(g, 0.99);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  ASSERT_FALSE(repeat.value().rebalanced);
  ASSERT_EQ(sharded.manifest().get(), rebalanced.get());

  // Wrong graph: rejected before any repartitioning.
  graph::Graph other = gen::ErdosRenyi(10, 20, 1);
  ASSERT_FALSE(sharded.Rebalance(other, 0.5).ok());

  // A deployment built with the default already serves the partition a
  // rebalance computes, so a forced call re-summarizes nothing and
  // reports the skew unchanged.
  ShardedGraph by_default = BuildSharded(g, 4);
  const std::shared_ptr<const dist::ShardManifest> default_before =
      by_default.manifest();
  ASSERT_EQ(*default_before, *rebalanced);
  StatusOr<RebalanceReport> again = by_default.Rebalance(g, 0.99);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_FALSE(again.value().rebalanced);
  ASSERT_EQ(by_default.manifest().get(), default_before.get());
  ASSERT_EQ(again.value().skew_after, again.value().skew_before);
  ExpectShardedAgreesWithSingleBox(g, single, by_default, nodes);
}

// --------------------------------------------------- reader churn

// Many readers serve batches while one shard's registry republishes
// alternating summaries of the same shard edge set mid-stream. Readers
// must see byte-identical answers throughout (lossless invariance), and
// TSan must see no races. Sequential dispatch (no pool) is the mode
// documented safe for concurrent batch callers.
TEST(ShardedServing, ConcurrentReadersSurviveShardRepublishChurn) {
  graph::Graph g = gen::ErdosRenyi(600, 3600, 47);
  CompressedGraph single = Compress(g);
  ShardedOptions options;
  options.partition.num_shards = 4;
  options.engine.config.iterations = 10;
  options.engine.config.seed = 7;
  options.parallel_dispatch = false;
  StatusOr<ShardedGraph> built = ShardedGraph::Build(g, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedGraph& sharded = built.value();

  const std::vector<NodeId> nodes = AdversarialBatch(g.num_nodes(), 53);
  const BatchResult expected = CanonicalSingleBox(single, nodes);

  // Two interchangeable summaries of the churned shard, prepared before
  // the readers start so the writer loop is pure Publish.
  const std::shared_ptr<const dist::ShardManifest> manifest =
      sharded.manifest();
  graph::Graph shard_graph =
      graph::BuildShardGraph(g, manifest->node_map(), 0);
  SnapshotRegistry::Snapshot variants[2] = {
      std::make_shared<const CompressedGraph>(
          Compress(shard_graph, /*seed=*/101, /*iterations=*/3)),
      std::make_shared<const CompressedGraph>(
          Compress(shard_graph, /*seed=*/202, /*iterations=*/12)),
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_served{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      BatchResult out;
      std::vector<uint64_t> degrees;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!sharded.NeighborsBatch(nodes, &out).ok() ||
            out.offsets != expected.offsets ||
            out.neighbors != expected.neighbors) {
          mismatches.fetch_add(1);
          break;
        }
        if (!sharded.DegreeBatch(nodes, &degrees).ok()) {
          mismatches.fetch_add(1);
          break;
        }
        batches_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::shared_ptr<SnapshotRegistry> registry = sharded.shard_registry(0);
  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(registry->Publish(variants[swap % 2]).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let readers overlap the final snapshot too, then stop.
  while (batches_served.load(std::memory_order_relaxed) < 8 &&
         mismatches.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(mismatches.load(), 0);
  ASSERT_GT(batches_served.load(), 0u);
}

// ------------------------------------- satellite: paged query errors

TEST(QueryErrors, InMemoryHandleNeverCounts) {
  graph::Graph g = gen::ErdosRenyi(100, 400, 3);
  CompressedGraph cg = Compress(g);
  (void)cg.Neighbors(5);
  (void)cg.Degree(5);
  ASSERT_EQ(cg.query_errors(), 0u);
  ASSERT_TRUE(cg.last_status().ok());
}

TEST(QueryErrors, PagedIoFailuresAreCountedAndLastStatusSet) {
  graph::Graph g = gen::ErdosRenyi(500, 4000, 13);
  CompressedGraph cg = Compress(g);
  const std::string path = testing::TempDir() + "/query_errors.slg2";
  ASSERT_TRUE(storage::Save(cg, path, {}).ok());

  storage::OpenOptions open;
  // The pread backend turns a truncated file into plain read errors;
  // mmap would SIGBUS on a fault past the new EOF.
  open.buffer.io = storage::Io::kPread;
  StatusOr<CompressedGraph> paged = storage::Open(path, open);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(paged.value().paged());
  ASSERT_EQ(paged.value().query_errors(), 0u);

  // Truncate the file behind the open handle: record-page faults now
  // hit EOF. The single-query path degrades to an empty answer but the
  // counter and last_status() expose what happened.
  ASSERT_EQ(truncate(path.c_str(), 128), 0);
  NodeId victim = 0;
  while (victim < g.num_nodes() && g.Degree(victim) == 0) ++victim;
  ASSERT_LT(victim, g.num_nodes());

  const std::vector<NodeId>& answer = paged.value().Neighbors(victim);
  ASSERT_TRUE(answer.empty());
  ASSERT_GT(paged.value().query_errors(), 0u);
  ASSERT_FALSE(paged.value().last_status().ok());

  const uint64_t after_single = paged.value().query_errors();
  BatchResult out;
  ASSERT_FALSE(paged.value().NeighborsBatch({{victim}}, &out).ok());
  ASSERT_GT(paged.value().query_errors(), after_single);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slugger
