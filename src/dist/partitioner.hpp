// slugger::dist — deterministic edge-cut partitioning of an input graph
// into N shards (ISSUE 8, tentpole part 1).
//
// PartitionGraph assigns every node a home shard under one of three
// deterministic strategies, derives edge ownership via the manifest's
// smaller-endpoint rule, and returns the ShardManifest the rest of the
// pipeline (ShardSummarizer, Coordinator) consumes. Determinism is a
// hard contract: the same graph and options always produce the same
// manifest, byte for byte — rebalancing audits and the dist_test
// round-trip depend on it. No randomness, no iteration-order hazards.
#ifndef SLUGGER_DIST_PARTITIONER_HPP_
#define SLUGGER_DIST_PARTITIONER_HPP_

#include <cstdint>

#include "dist/manifest.hpp"
#include "graph/graph.hpp"
#include "util/status.hpp"

namespace slugger::dist {

struct PartitionOptions {
  /// Number of shards; must be >= 1 (one shard degenerates to the
  /// single-box pipeline and is the agreement baseline of dist_test).
  uint32_t num_shards = 4;

  /// kShingle, the default, places each node beside its neighbours
  /// while balancing owned edges. SLUGGER merges only nodes of one
  /// candidate group, which it forms by min-hash shingle, and a cut edge
  /// is a merge no shard can make. At 4 shards a split that ignores
  /// adjacency (kHashed, or the retired degree-balanced greedy) cuts
  /// about 75% of the edges; kShingle cuts 2-5% of a planted
  /// hierarchy's and 44% of LJ-syn's, so the shard summaries sum to near
  /// the single box's size, and it balances owned edges, which bound the
  /// slowest shard. kContiguous keeps node-id locality (cheapest to
  /// compute, skewed on power-law graphs) and kHashed spreads nodes
  /// uniformly. kRetiredBalancedDegree is rejected (InvalidArgument).
  PartitionStrategy strategy = PartitionStrategy::kShingle;
};

/// Partitions g into options.num_shards shards. InvalidArgument when
/// num_shards is 0 or exceeds max(1, num_nodes) — a shard with no
/// possible nodes could never own an edge and only distorts skew
/// accounting — or when the strategy is retired or unknown.
StatusOr<ShardManifest> PartitionGraph(const graph::Graph& g,
                                       const PartitionOptions& options = {});

}  // namespace slugger::dist

#endif  // SLUGGER_DIST_PARTITIONER_HPP_
