#include "dist/partitioner.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_generation.hpp"
#include "util/hashing.hpp"
#include "util/random.hpp"

namespace slugger::dist {

namespace {

std::vector<uint32_t> AssignContiguous(NodeId n, uint32_t shards) {
  std::vector<uint32_t> node_shard(n);
  for (NodeId v = 0; v < n; ++v) {
    node_shard[v] = static_cast<uint32_t>(
        static_cast<uint64_t>(v) * shards / std::max<NodeId>(n, 1));
  }
  return node_shard;
}

std::vector<uint32_t> AssignHashed(NodeId n, uint32_t shards) {
  std::vector<uint32_t> node_shard(n);
  for (NodeId v = 0; v < n; ++v) {
    node_shard[v] = static_cast<uint32_t>(Mix64(v) % shards);
  }
  return node_shard;
}

/// Fixed key of AssignShingle's node hash: the partition is a pure
/// function of the graph, never of a summarizer seed.
constexpr uint64_t kShingleKey = 0x5A1D;

/// Min-hash order plus linear deterministic greedy on owned edges.
///
/// Nodes arrive in ascending order of their level-0 shingle, the minimum
/// of a fixed hash over the closed neighbourhood (paper §III-B2), ties by
/// id, so nodes that SLUGGER would put in one candidate group arrive back
/// to back. Each goes to the shard holding most of its placed neighbours,
/// discounted by that shard's owned-edge load L against the even share
/// m / shards: score = placed neighbours × (m − shards × L). Ties go to
/// the lighter shard, then the lower id. A node with no positive score
/// (no placed neighbour, or all of them on full shards) goes to the
/// lightest shard. One sort plus O(m) placement.
///
/// Hubs, nodes with 2·degree² > m (at most √(8m) of them), are placed
/// first, heaviest first, each on the lightest shard. Otherwise the first
/// hub pulls the dense core of a power-law graph onto one shard, and that
/// shard summarizes slowest.
std::vector<uint32_t> AssignShingle(const graph::Graph& g, uint32_t shards) {
  const NodeId n = g.num_nodes();
  const uint64_t m = g.num_edges();

  std::vector<core::KeyedRoot> order(n);
  {
    const KeyedHash hash(kShingleKey);
    std::vector<uint64_t> base(n);
    for (NodeId v = 0; v < n; ++v) base[v] = hash(v);
    for (NodeId v = 0; v < n; ++v) {
      uint64_t shingle = base[v];
      for (NodeId u : g.Neighbors(v)) shingle = std::min(shingle, base[u]);
      order[v] = {shingle, v};
    }
  }
  {
    std::vector<core::KeyedRoot> scratch;
    std::vector<uint32_t> bucket_end;
    core::SortByShingle(&order, &scratch, &bucket_end);
  }

  // What placing v adds to its shard: the edges v owns as their smaller
  // endpoint (manifest.hpp's ownership rule).
  std::vector<uint32_t> owned(n, 0);
  for (const Edge& e : g.Edges()) ++owned[e.first];

  constexpr uint32_t kUnplaced = ~0u;
  std::vector<uint32_t> node_shard(n, kUnplaced);
  std::vector<uint64_t> load(shards, 0);
  // Lightest shard by (load, id); stale entries are skipped on read.
  using Load = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t s = 0; s < shards; ++s) heap.push({0, s});
  const auto lightest = [&] {
    while (heap.top().first != load[heap.top().second]) heap.pop();
    return heap.top().second;
  };
  const auto place = [&](NodeId v, uint32_t s) {
    node_shard[v] = s;
    load[s] += owned[v];
    heap.push({load[s], s});
  };

  std::vector<NodeId> hubs;
  for (NodeId v = 0; v < n; ++v) {
    if (static_cast<uint64_t>(g.Degree(v)) * g.Degree(v) > m / 2) {
      hubs.push_back(v);
    }
  }
  std::sort(hubs.begin(), hubs.end(), [&g](NodeId a, NodeId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
    return a < b;
  });
  for (NodeId v : hubs) place(v, lightest());

  std::vector<uint32_t> placed(shards, 0);  // placed neighbours per shard
  std::vector<uint32_t> touched;            // shards with placed > 0
  for (const core::KeyedRoot& entry : order) {
    const NodeId v = entry.second;
    if (node_shard[v] != kUnplaced) continue;
    touched.clear();
    for (NodeId u : g.Neighbors(v)) {
      const uint32_t s = node_shard[u];
      if (s != kUnplaced && placed[s]++ == 0) touched.push_back(s);
    }
    uint32_t best = kUnplaced;
    __int128 best_score = 0;
    for (uint32_t s : touched) {
      const __int128 score =
          placed[s] * (static_cast<__int128>(m) -
                       static_cast<__int128>(shards) * load[s]);
      placed[s] = 0;
      if (score < best_score || (score == 0 && best == kUnplaced)) continue;
      if (score > best_score || load[s] < load[best] ||
          (load[s] == load[best] && s < best)) {
        best = s;
        best_score = score;
      }
    }
    place(v, best != kUnplaced ? best : lightest());
  }
  return node_shard;
}

}  // namespace

StatusOr<ShardManifest> PartitionGraph(const graph::Graph& g,
                                       const PartitionOptions& options) {
  const NodeId n = g.num_nodes();
  const uint32_t shards = options.num_shards;
  if (shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (shards > std::max<NodeId>(n, 1)) {
    return Status::InvalidArgument(
        "num_shards (" + std::to_string(shards) + ") exceeds node count (" +
        std::to_string(n) + "); empty shards cannot own edges");
  }

  std::vector<uint32_t> node_shard;
  switch (options.strategy) {
    case PartitionStrategy::kContiguous:
      node_shard = AssignContiguous(n, shards);
      break;
    case PartitionStrategy::kHashed:
      node_shard = AssignHashed(n, shards);
      break;
    case PartitionStrategy::kRetiredBalancedDegree:
      return Status::InvalidArgument(
          "partition strategy 2 (balanced-degree) is retired: manifests "
          "that name it still load, but new partitions use kShingle, "
          "kHashed or kContiguous");
    case PartitionStrategy::kShingle:
      node_shard = AssignShingle(g, shards);
      break;
    default:
      return Status::InvalidArgument("unknown partition strategy");
  }

  // Touch sets: for each node, the deduplicated owners of its incident
  // edges. The owner of {u, v} is the smaller endpoint's home, so v's
  // incident owners are shard(v) for neighbors above v and shard(u) for
  // neighbors below — one pass over each sorted adjacency list.
  std::vector<uint64_t> touch_offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<uint32_t> touch_shards;
  std::vector<uint32_t> row;
  for (NodeId v = 0; v < n; ++v) {
    row.clear();
    for (NodeId u : g.Neighbors(v)) {
      row.push_back(node_shard[std::min(u, v)]);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    touch_shards.insert(touch_shards.end(), row.begin(), row.end());
    touch_offsets[v + 1] = touch_shards.size();
  }

  std::vector<ShardStats> stats(shards);
  for (NodeId v = 0; v < n; ++v) {
    ShardStats& home = stats[node_shard[v]];
    ++home.num_nodes;
    home.total_degree += g.Degree(v);
  }
  for (const Edge& e : g.Edges()) {
    ShardStats& owner = stats[node_shard[e.first]];
    ++owner.owned_edges;
    if (node_shard[e.first] == node_shard[e.second]) {
      ++owner.internal_edges;
    } else {
      ++owner.boundary_edges;
    }
  }

  return ShardManifest(shards, g.num_edges(), options.strategy,
                       std::move(node_shard), std::move(touch_offsets),
                       std::move(touch_shards), std::move(stats));
}

}  // namespace slugger::dist
