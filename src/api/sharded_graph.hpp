// slugger::ShardedGraph — the facade over the sharded pipeline
// (ISSUE 8): partition + per-shard summarize + publish + coordinate in
// one call, mirroring how Engine + CompressedGraph wrap the single-box
// pipeline. A service that outgrows one summary keeps the same batch
// query surface; only construction changes.
//
//   slugger::ShardedOptions options;
//   options.num_shards = 4;
//   auto sharded = slugger::ShardedGraph::Build(g, options);
//   sharded.value().NeighborsBatch(nodes, &out);          // == single box
//   sharded.value().Rebalance(g, /*max_skew=*/1.5);       // when skewed
//
// Lifecycle: Build runs the offline pipeline (deterministic partition,
// concurrent per-shard Engine::Summarize) and starts serving. Each
// shard's SnapshotRegistry is exposed so a refresh job can republish a
// better summary of the SAME shard edge set at any time without
// coordination (answers are invariant across lossless republishes).
// Rebalance is the coordinated path: it re-partitions and, when the node
// map changes, re-summarizes and atomically installs the new manifest +
// registries as one epoch.
//
// Thread-safety: queries follow the Coordinator contract (any number
// of concurrent callers when no dispatch pool is configured; one
// pooled dispatcher at a time otherwise). Build and Rebalance are
// mutating and need external exclusion against each other, but queries
// may run concurrently with Rebalance — they serve the old epoch until
// the atomic swap and the new one after.
#ifndef SLUGGER_API_SHARDED_GRAPH_HPP_
#define SLUGGER_API_SHARDED_GRAPH_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/compressed_graph.hpp"
#include "api/engine.hpp"
#include "api/snapshot_registry.hpp"
#include "dist/coordinator.hpp"
#include "dist/manifest.hpp"
#include "dist/partitioner.hpp"
#include "dist/shard_summarizer.hpp"
#include "graph/graph.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace slugger {

struct ShardedOptions {
  /// Partitioner knobs (shard count, assignment strategy).
  dist::PartitionOptions partition;

  /// Per-shard engine knobs (num_threads is overridden to 1; see
  /// dist::ShardSummarizer).
  EngineOptions engine;

  /// Workers for the shared pool driving per-shard summarization and,
  /// when parallel_dispatch is set, coordinator fan-out. 0 = auto.
  uint32_t num_threads = 0;

  /// Give the coordinator the pool for parallel shard dispatch. Leave
  /// false when many threads will query one ShardedGraph concurrently
  /// (pooled dispatch admits one batch caller at a time).
  bool parallel_dispatch = true;

  /// Forwarded to the coordinator (see dist::CoordinatorOptions).
  double shard_time_budget_seconds = 0.0;
  bool allow_degraded = false;

  /// Offline-run hooks, fanned in across shards.
  dist::ShardProgress progress;
  const CancelToken* cancel = nullptr;
};

/// Outcome of a Rebalance call, whether or not it re-partitioned.
struct RebalanceReport {
  bool rebalanced = false;
  double skew_before = 1.0;
  double skew_after = 1.0;  ///< == skew_before when not rebalanced
};

class ShardedGraph {
 public:
  /// Empty handle (0 shards, null coordinator); useful only as a
  /// move-assign target — every accessor assumes a Build()-made object.
  ShardedGraph() = default;

  /// Runs the whole offline pipeline and starts serving. Errors from
  /// option validation, partitioning, or any shard's summarization
  /// surface here; a cancelled run still builds (lossless best-so-far
  /// shard summaries, the Engine contract).
  static StatusOr<ShardedGraph> Build(const graph::Graph& g,
                                      const ShardedOptions& options = {});

  ShardedGraph(ShardedGraph&&) = default;
  ShardedGraph& operator=(ShardedGraph&&) = default;

  NodeId num_nodes() const { return num_nodes_; }
  uint32_t num_shards() const;

  /// The manifest of the epoch currently serving.
  std::shared_ptr<const dist::ShardManifest> manifest() const;

  /// Scatter-gather queries; identical contract (and answers) to a
  /// single-box CompressedGraph — see dist::Coordinator.
  Status NeighborsBatch(std::span<const NodeId> nodes, BatchResult* out,
                        dist::GatherStats* stats = nullptr) const;
  Status DegreeBatch(std::span<const NodeId> nodes,
                     std::vector<uint64_t>* degrees,
                     dist::GatherStats* stats = nullptr) const;

  /// Live cost skew (see dist::Coordinator::CostSkew).
  double CostSkew() const;

  /// The rebalance hook: when CostSkew() exceeds `max_skew`,
  /// re-partition g (the same graph Build saw — the facade does not
  /// retain it) with the default strategy (dist::PartitionOptions{}),
  /// re-summarize every shard, and atomically install the new epoch.
  /// Readers never pause: in-flight batches finish on the old epoch.
  /// No-op (rebalanced = false) while the skew is within budget, and
  /// also when the re-partition yields the node map already serving:
  /// the partition is a pure function of g, so a deployment built with
  /// the default cannot get below its own skew this way. To restore a
  /// shard that a republish made worse, Publish a fresh summary of it
  /// through shard_registry(s).
  StatusOr<RebalanceReport> Rebalance(const graph::Graph& g, double max_skew);

  /// Shard s's registry, for shard-local refresh jobs (republishing a
  /// better summary of the same shard edges needs no coordination) and
  /// for tests that inject degraded shards. Owned jointly with the
  /// serving epoch; s must be < num_shards().
  std::shared_ptr<SnapshotRegistry> shard_registry(uint32_t s) const;

  /// The coordinator, for advanced consumers (epoch swaps, options).
  dist::Coordinator& coordinator() { return *coordinator_; }
  const dist::Coordinator& coordinator() const { return *coordinator_; }

 private:
  /// Summarize every shard of `manifest` and wrap each in a fresh
  /// registry, shared by Build and Rebalance.
  static StatusOr<dist::ServingEpoch> BuildEpoch(
      const graph::Graph& g, dist::ShardManifest manifest,
      const ShardedOptions& options, ThreadPool* pool);

  ShardedOptions options_;
  NodeId num_nodes_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<dist::Coordinator> coordinator_;
};

}  // namespace slugger

#endif  // SLUGGER_API_SHARDED_GRAPH_HPP_
