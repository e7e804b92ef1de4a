// slugger::dist::Coordinator — scatter-gather serving over per-shard
// SnapshotRegistry replicas (ISSUE 8, tentpole part 3). Modeled on the
// RediSearch coordinator's distribute/stitch split: the front end owns
// no graph data, only the manifest (routing) and one registry per shard
// (serving state), and every batch is split, dispatched, and stitched
// back into input order.
//
// Answer contract: byte-identical to a single-box CompressedGraph over
// the same graph — same InvalidArgument on out-of-range ids, same
// offsets, and each neighbor list sorted ascending (the canonical
// serving order; per-shard contributions are disjoint because every
// edge is owned by exactly one shard, so the stitch is a merge, never a
// dedup). A degree is the size of the stitched list.
//
// Consistency across swaps: a batch reads one ServingEpoch (manifest +
// registries) grabbed atomically at entry. Shard-local republish into a
// registry needs no coordination — any lossless summary of the same
// shard edge set serves identical answers, so readers may span versions
// freely (the dist_test churn test runs exactly that under TSan).
// Changing the PARTITION is different: manifest and all shard summaries
// must swap together, which is what AdoptEpoch is for (the rebalance
// path in slugger::ShardedGraph).
//
// Thread-safety: with options.pool == nullptr every method is safe from
// any number of concurrent callers (per-thread scratch comes from the
// scratch-free CompressedGraph overloads). A non-null pool parallelizes
// shard dispatch but ThreadPool::Run serves one job at a time, so only
// one thread may drive pooled batches on a given pool concurrently —
// the same rule as CompressedGraph's parallel batch overloads.
#ifndef SLUGGER_DIST_COORDINATOR_HPP_
#define SLUGGER_DIST_COORDINATOR_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/compressed_graph.hpp"
#include "api/snapshot_registry.hpp"
#include "dist/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace slugger {
class ThreadPool;
}  // namespace slugger

namespace slugger::dist {

/// One consistent view of the cluster: the partition decision and the
/// per-shard serving registries it routes to. Immutable once installed;
/// a rebalance installs a fresh epoch instead of mutating this one.
struct ServingEpoch {
  std::shared_ptr<const ShardManifest> manifest;
  std::vector<std::shared_ptr<SnapshotRegistry>> shards;
};

struct CoordinatorOptions {
  /// Parallel shard dispatch (one task per contributing shard). Null:
  /// shards are queried sequentially on the calling thread, which is
  /// also the only mode safe for concurrent batch callers.
  ThreadPool* pool = nullptr;

  /// false (default): the first failing shard fails the whole batch
  /// with its Status. true: failing shards contribute empty answers,
  /// the batch succeeds, and GatherStats::degraded names the casualties
  /// — the "serve what we have" posture of a real fleet.
  bool allow_degraded = false;
};

/// Per-batch observability: where the batch went and what it cost.
struct GatherStats {
  uint32_t shards_dispatched = 0;  ///< shards with a non-empty sub-batch
  uint64_t subqueries = 0;         ///< summed sub-batch sizes (fan-out cost)
  double max_shard_seconds = 0.0;  ///< slowest shard's dispatch time
  double stitch_seconds = 0.0;     ///< gather + reorder + sort time
  std::vector<std::pair<uint32_t, Status>> degraded;  ///< shard -> failure
  /// Trace id of this batch's root span (0 with SLUGGER_OBS=OFF): the
  /// per-shard dispatch spans in obs::MetricsRegistry::RecentSpans()
  /// carry it as their parent, linking a slow batch to its slow shard.
  obs::SpanId span_id = 0;
};

class Coordinator {
 public:
  /// Installs the initial epoch. An invalid epoch (null manifest,
  /// registry count != num_shards, null registry) leaves the
  /// coordinator inert: status() reports why and every batch fails
  /// with it — the Engine idiom for constructors that cannot throw.
  explicit Coordinator(ServingEpoch initial, CoordinatorOptions options = {});

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Verdict of the most recent epoch install (construction or
  /// AdoptEpoch). Returned by value: the verdict may be replaced by a
  /// concurrent AdoptEpoch, so a reference would race.
  Status status() const SLUGGER_REQUIRES(!epoch_mu_);

  const CoordinatorOptions& options() const { return options_; }

  /// The epoch new batches will read; in-flight batches keep the one
  /// they grabbed (shared_ptr pins it, registry snapshots pin the
  /// summaries — nothing a swap can pull out from under a reader).
  std::shared_ptr<const ServingEpoch> epoch() const
      SLUGGER_REQUIRES(!epoch_mu_);

  /// Atomically replaces the served epoch (the rebalance publish step).
  /// InvalidArgument on a malformed epoch; the old epoch keeps serving.
  /// The retired epoch (and whatever snapshots only it still pins) is
  /// released outside epoch_mu_, SnapshotRegistry-style.
  Status AdoptEpoch(ServingEpoch next) SLUGGER_REQUIRES(!epoch_mu_);

  /// Scatter-gather NeighborsBatch: answers land in *out in input
  /// order, each list sorted ascending. InvalidArgument if any id is
  /// >= num_nodes() (*out untouched). A shard failure either fails the
  /// batch (*out emptied) or, with allow_degraded, is recorded in
  /// *stats while the batch succeeds. `stats` may be null.
  Status NeighborsBatch(std::span<const NodeId> nodes, BatchResult* out,
                        GatherStats* stats = nullptr) const;

  /// Scatter-gather DegreeBatch under the same contract: degrees->at(i)
  /// is the size of nodes[i]'s stitched list, counted off a
  /// NeighborsBatch into a list buffer this thread keeps. InvalidArgument
  /// leaves *degrees untouched; a strict-mode shard failure empties it.
  Status DegreeBatch(std::span<const NodeId> nodes,
                     std::vector<uint64_t>* degrees,
                     GatherStats* stats = nullptr) const;

  /// Cost skew of the live deployment: max over shards of the current
  /// snapshot's summary cost, divided by the even-split mean. Shards
  /// with no published snapshot fall back to their manifest owned-edge
  /// count (the pre-summarization proxy). 1.0 = perfectly balanced;
  /// ShardedGraph::Rebalance re-partitions when this passes a
  /// threshold.
  double CostSkew() const;

 private:
  Status ValidateEpoch(const ServingEpoch& epoch) const;

  CoordinatorOptions options_;
  mutable Mutex epoch_mu_;
  Status epoch_status_ SLUGGER_GUARDED_BY(epoch_mu_);
  std::shared_ptr<const ServingEpoch> epoch_ SLUGGER_GUARDED_BY(epoch_mu_);
};

}  // namespace slugger::dist

#endif  // SLUGGER_DIST_COORDINATOR_HPP_
