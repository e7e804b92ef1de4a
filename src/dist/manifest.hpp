// slugger::dist::ShardManifest — the shared contract of a sharded
// deployment (ISSUE 8). The partitioner produces one; the shard
// summarizer and the coordinator both consume it and nothing else, so
// the three agree on exactly one question: which shard owns which edge.
//
// Ownership rule (deterministic, total): a canonical edge {u, v} with
// u <= v is owned by the home shard of u, its smaller endpoint. An
// internal edge (both endpoints homed on one shard) trivially lands on
// that shard; a boundary edge lands on the smaller endpoint's home.
// Every edge therefore belongs to exactly one shard — per-shard
// summaries never overlap, so scatter-gather answers are disjoint
// unions and degrees add across shards.
//
// The routing side of the same rule: the edges incident to node v live
// in v's own home shard plus the home shards of v's smaller-id
// boundary neighbors. The manifest precomputes that set per node (the
// "touch set", stored as a CSR over shard ids) so the coordinator
// dispatches each query only to shards that can contribute — most
// nodes touch exactly one shard; only boundary nodes fan out.
//
// A manifest is immutable after construction and safe to share across
// any number of reader threads.
#ifndef SLUGGER_DIST_MANIFEST_HPP_
#define SLUGGER_DIST_MANIFEST_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/types.hpp"

namespace slugger::dist {

/// How the partitioner assigned nodes to home shards (recorded in the
/// manifest so a rebalance or an audit can reproduce the run).
enum class PartitionStrategy : uint8_t {
  kContiguous = 0,  ///< equal-width node-id ranges
  kHashed = 1,      ///< multiplicative hash of the node id
  /// Retired degree-balanced greedy (heaviest node to the lightest
  /// shard). PartitionGraph rejects it; a stored manifest that names it
  /// still loads, since the field is a record, not an input.
  kRetiredBalancedDegree = 2,
  kShingle = 3,  ///< min-hash order, each node beside its neighbours
};

/// Per-shard accounting the partitioner computes while streaming edges;
/// the coordinator's rebalance policy reads these (and the live
/// snapshots' summary costs) to decide when the partition has skewed.
struct ShardStats {
  uint64_t num_nodes = 0;       ///< nodes homed on this shard
  uint64_t owned_edges = 0;     ///< edges this shard summarizes
  uint64_t internal_edges = 0;  ///< owned edges with both endpoints homed here
  uint64_t boundary_edges = 0;  ///< owned edges crossing a shard boundary
  uint64_t total_degree = 0;    ///< summed degree of homed nodes

  bool operator==(const ShardStats&) const = default;
};

class ShardManifest {
 public:
  ShardManifest() = default;

  /// Assembled by the partitioner: `node_shard[v]` is v's home shard
  /// (every entry < num_shards), `touch_offsets`/`touch_shards` the CSR
  /// of per-node touch sets (each row sorted ascending, deduplicated).
  ShardManifest(uint32_t num_shards, uint64_t num_edges,
                PartitionStrategy strategy, std::vector<uint32_t> node_shard,
                std::vector<uint64_t> touch_offsets,
                std::vector<uint32_t> touch_shards,
                std::vector<ShardStats> shard_stats);

  uint32_t num_shards() const { return num_shards_; }
  NodeId num_nodes() const { return static_cast<NodeId>(node_shard_.size()); }
  uint64_t num_edges() const { return num_edges_; }
  PartitionStrategy strategy() const { return strategy_; }

  /// Home shard of v (v must be < num_nodes()).
  uint32_t HomeOf(NodeId v) const { return node_shard_[v]; }

  /// The whole node→home-shard map, for bulk consumers (the per-shard
  /// edge streams in graph/partition_stream.hpp take exactly this).
  std::span<const uint32_t> node_map() const { return node_shard_; }

  /// Owner of a canonical edge {first, second} with first <= second:
  /// the home shard of the smaller endpoint. THE ownership rule — every
  /// producer and consumer of per-shard edge sets must route through
  /// this function (or TouchSet, which is derived from it).
  uint32_t OwnerOf(const Edge& e) const { return node_shard_[e.first]; }

  /// Shards holding at least one edge incident to v, sorted ascending.
  /// Empty for isolated nodes. v must be < num_nodes().
  std::span<const uint32_t> TouchSet(NodeId v) const {
    return std::span<const uint32_t>(touch_shards_)
        .subspan(touch_offsets_[v], touch_offsets_[v + 1] - touch_offsets_[v]);
  }

  /// True when some edge incident to v is owned outside v's home shard
  /// (equivalently, |TouchSet(v)| > 1, or == 1 but not the home).
  bool IsBoundary(NodeId v) const {
    const std::span<const uint32_t> touch = TouchSet(v);
    return touch.size() > 1 || (touch.size() == 1 && touch[0] != HomeOf(v));
  }

  const std::vector<ShardStats>& shard_stats() const { return shard_stats_; }

  /// Owned-edge skew of the partition: max over shards of owned_edges
  /// divided by the even-split mean (1.0 = perfectly balanced). 0 shards
  /// or 0 edges report 1.0 — nothing to skew.
  double EdgeSkew() const;

  bool operator==(const ShardManifest&) const = default;

  /// Compact varint image (magic + version + payload + checksum); the
  /// persistence story of a deployment's partition decision, analogous
  /// to slugger::storage for summaries.
  std::string Serialize() const;

  /// Parses an untrusted image: every count is bounded before it sizes
  /// an allocation, every shard id is range-checked, the CSR must be
  /// monotone, and the trailing checksum must match — Corruption /
  /// InvalidArgument on any violation, never a crash.
  static StatusOr<ShardManifest> Deserialize(const std::string& bytes);

  /// File round-trip helpers over Serialize/Deserialize.
  Status Save(const std::string& path) const;
  static StatusOr<ShardManifest> Load(const std::string& path);

 private:
  uint32_t num_shards_ = 0;
  uint64_t num_edges_ = 0;
  PartitionStrategy strategy_ = PartitionStrategy::kContiguous;
  std::vector<uint32_t> node_shard_;     ///< size num_nodes
  std::vector<uint64_t> touch_offsets_;  ///< size num_nodes + 1 (0 when empty)
  std::vector<uint32_t> touch_shards_;   ///< CSR payload, rows sorted
  std::vector<ShardStats> shard_stats_;  ///< size num_shards
};

}  // namespace slugger::dist

#endif  // SLUGGER_DIST_MANIFEST_HPP_
