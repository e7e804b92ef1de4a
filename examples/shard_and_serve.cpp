// Scenario: one graph outgrows a single summarizer, so the service
// shards it in-process. slugger::ShardedGraph partitions the graph,
// summarizes every shard concurrently, and serves batched queries
// through a scatter-gather coordinator whose answers are byte-identical
// to a single box. The walkthrough then exercises the operational
// moves a sharded deployment lives by:
//   1. a shard-local refresh — republish a better summary of one
//      shard's edge set, no coordination, answers invariant;
//   2. a skew check + Rebalance — re-partition onto the default
//      strategy and atomically install a new epoch while queries keep
//      flowing (a no-op here: the deployment is already on it);
//   3. a degraded shard — lose one replica and watch the strict
//      coordinator fail the batch with a Status naming the casualty.
//
// Build & run:
//   ./build/example_shard_and_serve [num_nodes] [num_shards]
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "api/snapshot_registry.hpp"
#include "dist/coordinator.hpp"
#include "gen/generators.hpp"
#include "graph/partition_stream.hpp"
#include "obs/export.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace slugger;

  NodeId nodes = 20000;
  uint32_t num_shards = 4;
  const char* names[] = {"num_nodes", "num_shards"};
  uint32_t* targets[] = {&nodes, &num_shards};
  for (int a = 1; a < argc && a <= 2; ++a) {
    std::optional<uint32_t> parsed = ParseUint32(argv[a]);
    if (!parsed.has_value() || *parsed == 0) {
      std::fprintf(stderr,
                   "invalid %s '%s'\n"
                   "usage: %s [num_nodes >= 1] [num_shards >= 1]\n",
                   names[a - 1], argv[a], argv[0]);
      return 2;
    }
    *targets[a - 1] = *parsed;
  }

  graph::Graph g = gen::BarabasiAlbert(nodes, 4, 0.3, /*seed=*/17);
  std::printf("serving graph: %u nodes, %llu edges, %u shards\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              num_shards);

  // Metrics: dump the process-wide registry as Prometheus text while
  // the walkthrough serves — shard builds, coordinator batches, and
  // snapshot publishes all land in it. The final dump at Stop() is
  // what a real deployment's /metrics endpoint would be scraped for.
  // (With -DSLUGGER_OBS=OFF the registry is empty and dumps are blank.)
  obs::PeriodicDumper metrics_dumper(
      [](const std::string& text) {
        std::printf("--- metrics dump (%zu bytes) ---\n%s--- end metrics ---\n",
                    text.size(), text.c_str());
      },
      /*interval_seconds=*/1.0);
  metrics_dumper.Start();

  // Build: partition + per-shard summarize + publish, one call.
  ShardedOptions options;
  options.partition.num_shards = num_shards;
  options.engine.config.iterations = 10;
  options.engine.config.seed = 17;
  WallTimer build_timer;
  StatusOr<ShardedGraph> built = ShardedGraph::Build(g, options);
  if (!built.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  ShardedGraph& sharded = built.value();
  std::printf("built %u shards in %.2fs (cost skew %.2f)\n",
              sharded.num_shards(), build_timer.Seconds(),
              sharded.CostSkew());
  const std::shared_ptr<const dist::ShardManifest> manifest =
      sharded.manifest();
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    const dist::ShardStats& st = manifest->shard_stats()[s];
    std::printf("  shard %u: %llu nodes, %llu edges (%llu boundary)\n", s,
                static_cast<unsigned long long>(st.num_nodes),
                static_cast<unsigned long long>(st.owned_edges),
                static_cast<unsigned long long>(st.boundary_edges));
  }

  // Serve a batch and check it against the graph itself.
  Rng rng(0x5EED);
  std::vector<NodeId> batch(2000);
  for (NodeId& v : batch) v = static_cast<NodeId>(rng.Below(g.num_nodes()));
  BatchResult answers;
  dist::GatherStats stats;
  Status served = sharded.NeighborsBatch(batch, &answers, &stats);
  if (!served.ok()) {
    std::fprintf(stderr, "batch failed: %s\n", served.ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (answers[i].size() != g.Degree(batch[i])) {
      std::fprintf(stderr, "answer mismatch at node %u\n", batch[i]);
      return 1;
    }
  }
  std::printf(
      "batch of %zu served: %u shards touched, %llu subqueries, "
      "stitch %.1f%% of dispatch\n",
      batch.size(), stats.shards_dispatched,
      static_cast<unsigned long long>(stats.subqueries),
      stats.max_shard_seconds > 0
          ? 100.0 * stats.stitch_seconds / stats.max_shard_seconds
          : 0.0);

  // 1. Shard-local refresh: a better summary of the SAME shard edges
  // goes live with one Publish; lossless means answers cannot move.
  const uint32_t refreshed = 0;
  graph::Graph shard_graph =
      graph::BuildShardGraph(g, manifest->node_map(), refreshed);
  EngineOptions better;
  better.config.iterations = 40;
  better.config.seed = 18;
  Engine refine(better);
  StatusOr<CompressedGraph> refined = refine.Summarize(shard_graph);
  if (!refined.ok()) {
    std::fprintf(stderr, "refresh summarize failed: %s\n",
                 refined.status().ToString().c_str());
    return 1;
  }
  sharded.shard_registry(refreshed)->Publish(std::move(refined).value());
  BatchResult after_refresh;
  if (!sharded.NeighborsBatch(batch, &after_refresh).ok() ||
      after_refresh.neighbors != answers.neighbors ||
      after_refresh.offsets != answers.offsets) {
    std::fprintf(stderr, "refresh changed answers — lossless bug\n");
    return 1;
  }
  std::printf("shard %u republished; answers byte-identical\n", refreshed);

  // 2. Rebalance when skew demands it. A 0.99 budget is always
  // exceeded, but this deployment already serves the default partition,
  // which is what a rebalance computes, so it reports no-op and keeps
  // the epoch; one built with kContiguous or kHashed would be
  // re-partitioned, re-summarized and swapped atomically.
  StatusOr<RebalanceReport> rebalanced = sharded.Rebalance(g, 0.99);
  if (!rebalanced.ok()) {
    std::fprintf(stderr, "rebalance failed: %s\n",
                 rebalanced.status().ToString().c_str());
    return 1;
  }
  std::printf("rebalance: %s, skew %.2f -> %.2f\n",
              rebalanced.value().rebalanced ? "repartitioned" : "no-op",
              rebalanced.value().skew_before, rebalanced.value().skew_after);
  BatchResult after_rebalance;
  if (!sharded.NeighborsBatch(batch, &after_rebalance).ok() ||
      after_rebalance.neighbors != answers.neighbors) {
    std::fprintf(stderr, "rebalance changed answers — epoch swap bug\n");
    return 1;
  }

  // 3. Degraded shard: drop one replica from a copy of the epoch and
  // serve through a strict coordinator — the batch fails loudly instead
  // of quietly missing edges.
  dist::ServingEpoch degraded = *sharded.coordinator().epoch();
  degraded.shards[0] = std::make_shared<SnapshotRegistry>();
  dist::Coordinator strict(degraded);
  BatchResult ignored;
  Status failure = strict.NeighborsBatch(batch, &ignored);
  std::printf("degraded shard 0 (strict): %s\n",
              failure.ToString().c_str());
  if (failure.ok()) {
    std::fprintf(stderr, "strict coordinator served a missing shard\n");
    return 1;
  }
  metrics_dumper.Stop();
  std::printf("emitted %llu metrics dumps while serving\n",
              static_cast<unsigned long long>(metrics_dumper.dumps()));
  std::printf("done\n");
  return 0;
}
