#include "api/sharded_graph.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace slugger {

StatusOr<dist::ServingEpoch> ShardedGraph::BuildEpoch(
    const graph::Graph& g, dist::ShardManifest manifest,
    const ShardedOptions& options, ThreadPool* pool) {
  dist::ShardSummarizeOptions summarize;
  summarize.engine = options.engine;
  summarize.pool = pool;
  summarize.progress = options.progress;
  summarize.cancel = options.cancel;
  dist::ShardSummarizer summarizer(std::move(summarize));
  StatusOr<std::vector<CompressedGraph>> shards =
      summarizer.SummarizeShards(g, manifest);
  if (!shards.ok()) return shards.status();

  dist::ServingEpoch epoch;
  epoch.manifest =
      std::make_shared<const dist::ShardManifest>(std::move(manifest));
  epoch.shards.reserve(shards.value().size());
  for (CompressedGraph& shard : shards.value()) {
    epoch.shards.push_back(
        std::make_shared<SnapshotRegistry>(std::move(shard)));
  }
  return epoch;
}

StatusOr<ShardedGraph> ShardedGraph::Build(const graph::Graph& g,
                                           const ShardedOptions& options) {
  ShardedGraph sharded;
  sharded.options_ = options;
  sharded.num_nodes_ = g.num_nodes();
  const unsigned threads = options.num_threads == 0
                               ? ThreadPool::DefaultThreads()
                               : options.num_threads;
  if (threads > 1) sharded.pool_ = std::make_unique<ThreadPool>(threads);

  StatusOr<dist::ShardManifest> manifest =
      dist::PartitionGraph(g, options.partition);
  if (!manifest.ok()) return manifest.status();
  StatusOr<dist::ServingEpoch> epoch = BuildEpoch(
      g, std::move(manifest).value(), options, sharded.pool_.get());
  if (!epoch.ok()) return epoch.status();

  dist::CoordinatorOptions coordinate;
  coordinate.pool =
      options.parallel_dispatch ? sharded.pool_.get() : nullptr;
  coordinate.allow_degraded = options.allow_degraded;
  sharded.coordinator_ = std::make_unique<dist::Coordinator>(
      std::move(epoch).value(), coordinate);
  Status healthy = sharded.coordinator_->status();
  if (!healthy.ok()) return healthy;
  return sharded;
}

uint32_t ShardedGraph::num_shards() const {
  std::shared_ptr<const dist::ServingEpoch> epoch = coordinator_->epoch();
  return epoch != nullptr ? epoch->manifest->num_shards() : 0;
}

std::shared_ptr<const dist::ShardManifest> ShardedGraph::manifest() const {
  std::shared_ptr<const dist::ServingEpoch> epoch = coordinator_->epoch();
  return epoch != nullptr ? epoch->manifest : nullptr;
}

Status ShardedGraph::NeighborsBatch(std::span<const NodeId> nodes,
                                    BatchResult* out,
                                    dist::GatherStats* stats) const {
  return coordinator_->NeighborsBatch(nodes, out, stats);
}

Status ShardedGraph::DegreeBatch(std::span<const NodeId> nodes,
                                 std::vector<uint64_t>* degrees,
                                 dist::GatherStats* stats) const {
  return coordinator_->DegreeBatch(nodes, degrees, stats);
}

double ShardedGraph::CostSkew() const { return coordinator_->CostSkew(); }

StatusOr<RebalanceReport> ShardedGraph::Rebalance(const graph::Graph& g,
                                                  double max_skew) {
  if (g.num_nodes() != num_nodes_) {
    return Status::InvalidArgument(
        "Rebalance needs the graph this deployment serves (" +
        std::to_string(num_nodes_) + " nodes), got " +
        std::to_string(g.num_nodes()));
  }
  RebalanceReport report;
  report.skew_before = CostSkew();
  report.skew_after = report.skew_before;
  if (report.skew_before <= max_skew) return report;

  // The default strategy re-partitions regardless of how the deployment
  // started: it balances owned edges and keeps each node beside its
  // neighbours, so every shard stays small. It is a pure function of g,
  // so a deployment already on it gets its own node map back, and
  // re-summarizing that would rebuild the same shards at the same skew.
  dist::PartitionOptions partition = options_.partition;
  partition.strategy = dist::PartitionOptions{}.strategy;
  StatusOr<dist::ShardManifest> repartitioned =
      dist::PartitionGraph(g, partition);
  if (!repartitioned.ok()) return repartitioned.status();
  if (std::ranges::equal(repartitioned.value().node_map(),
                         manifest()->node_map())) {
    return report;
  }
  StatusOr<dist::ServingEpoch> epoch = BuildEpoch(
      g, std::move(repartitioned).value(), options_, pool_.get());
  if (!epoch.ok()) return epoch.status();
  Status adopted = coordinator_->AdoptEpoch(std::move(epoch).value());
  if (!adopted.ok()) return adopted;
  report.rebalanced = true;
  report.skew_after = CostSkew();
  return report;
}

std::shared_ptr<SnapshotRegistry> ShardedGraph::shard_registry(
    uint32_t s) const {
  std::shared_ptr<const dist::ServingEpoch> epoch = coordinator_->epoch();
  if (epoch == nullptr || s >= epoch->shards.size()) return nullptr;
  return epoch->shards[s];
}

}  // namespace slugger
