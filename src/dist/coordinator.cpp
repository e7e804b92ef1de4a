#include "dist/coordinator.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "obs/metrics.hpp"
#include "util/radix_sort.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace slugger::dist {

namespace {

// Fan-out health of the scatter-gather tier. Slow/degraded/failed are
// counted unconditionally — a caller that passes no GatherStats still
// shows up on the dashboard.
struct CoordObs {
  obs::Counter* batches = obs::MetricsRegistry::Global().GetCounter(
      "slugger_coord_batches_total", "scatter-gather batches served");
  obs::Counter* subqueries = obs::MetricsRegistry::Global().GetCounter(
      "slugger_coord_subqueries_total",
      "per-shard sub-batch entries dispatched");
  obs::Counter* slow_shards = obs::MetricsRegistry::Global().GetCounter(
      "slugger_coord_slow_shards_total",
      "shard dispatches over the configured time budget");
  obs::Counter* degraded_batches = obs::MetricsRegistry::Global().GetCounter(
      "slugger_coord_degraded_batches_total",
      "batches served with at least one failed shard (allow_degraded)");
  obs::Counter* failed_batches = obs::MetricsRegistry::Global().GetCounter(
      "slugger_coord_failed_batches_total",
      "batches failed by a shard error (strict mode)");
  obs::Histogram* dispatch_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "slugger_coord_dispatch_seconds",
          obs::HistogramOptions{1e-6, 2.0, 24},
          "per-shard dispatch latency");
  obs::Histogram* stitch_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_coord_stitch_seconds", obs::HistogramOptions{1e-6, 2.0, 24},
      "gather + reorder + sort time per batch");
  obs::Histogram* batch_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_coord_batch_seconds", obs::HistogramOptions{1e-6, 2.0, 24},
      "whole scatter-gather batch latency");
};

const CoordObs& Obs() {
  static CoordObs handles;
  return handles;
}

}  // namespace

Coordinator::Coordinator(ServingEpoch initial, CoordinatorOptions options)
    : options_(options) {
  // A rejected initial epoch is observed through status(): the Engine
  // idiom for constructors that cannot throw.
  (void)AdoptEpoch(std::move(initial));
}

Status Coordinator::status() const {
  MutexLock lock(&epoch_mu_);
  return epoch_status_;
}

Status Coordinator::ValidateEpoch(const ServingEpoch& epoch) const {
  if (epoch.manifest == nullptr) {
    return Status::InvalidArgument("epoch has no manifest");
  }
  if (epoch.shards.size() != epoch.manifest->num_shards()) {
    return Status::InvalidArgument(
        "epoch has " + std::to_string(epoch.shards.size()) +
        " shard registries but the manifest declares " +
        std::to_string(epoch.manifest->num_shards()) + " shards");
  }
  for (size_t s = 0; s < epoch.shards.size(); ++s) {
    if (epoch.shards[s] == nullptr) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " registry is null");
    }
  }
  return Status::OK();
}

std::shared_ptr<const ServingEpoch> Coordinator::epoch() const {
  MutexLock lock(&epoch_mu_);
  return epoch_;
}

Status Coordinator::AdoptEpoch(ServingEpoch next) {
  Status valid = ValidateEpoch(next);
  if (!valid.ok()) {
    MutexLock lock(&epoch_mu_);
    // Record the rejection only while inert; a serving coordinator
    // keeps its healthy verdict and the old epoch keeps serving.
    if (epoch_ == nullptr) epoch_status_ = valid;
    return valid;
  }
  auto installed = std::make_shared<const ServingEpoch>(std::move(next));
  std::shared_ptr<const ServingEpoch> retired;
  {
    MutexLock lock(&epoch_mu_);
    retired = std::move(epoch_);
    epoch_ = std::move(installed);
    epoch_status_ = Status::OK();
  }
  // `retired` drops here, outside epoch_mu_: if this was the last owner
  // of the old epoch (whole registries of summaries), its destruction
  // must not stall concurrent status()/epoch() readers.
  return Status::OK();
}

double Coordinator::CostSkew() const {
  std::shared_ptr<const ServingEpoch> epoch = this->epoch();
  if (epoch == nullptr) return 1.0;
  const ShardManifest& manifest = *epoch->manifest;
  const uint32_t shards = manifest.num_shards();
  uint64_t total = 0;
  uint64_t max_cost = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    SnapshotRegistry::Snapshot snap = epoch->shards[s]->Current();
    const uint64_t cost = snap != nullptr
                              ? snap->stats().cost
                              : manifest.shard_stats()[s].owned_edges;
    total += cost;
    max_cost = std::max(max_cost, cost);
  }
  if (total == 0 || shards == 0) return 1.0;
  return static_cast<double>(max_cost) * shards / static_cast<double>(total);
}

namespace {

struct ShardAnswer {
  Status status;
  summary::BatchResult result;
  std::vector<uint64_t> degrees;
  double seconds = 0.0;
};

/// Per-calling-thread scatter/gather buffers, reused across batches so a
/// serving loop stops paying allocation churn after warmup (the same
/// economics as CompressedGraph's thread-local scratches). Workers of a
/// dispatch pool only ever touch disjoint `answers` and `cursor` entries
/// and their own `sort` entry; the containers themselves are owned and
/// resized by the calling thread.
struct GatherScratch {
  std::vector<std::vector<uint32_t>> positions;
  std::vector<std::vector<NodeId>> sub_nodes;
  std::vector<ShardAnswer> answers;
  std::vector<uint32_t> active;
  std::vector<uint64_t> cursor;
  std::vector<ListSortScratch> sort;  ///< one per stitch worker
};

GatherScratch& ThreadLocalGatherScratch() {
  thread_local GatherScratch scratch;
  return scratch;
}

}  // namespace

template <bool kDegreesOnly>
Status Coordinator::RunScatterGather(std::span<const NodeId> nodes,
                                     summary::BatchResult* out,
                                     std::vector<uint64_t>* degrees,
                                     GatherStats* stats) const {
  std::shared_ptr<const ServingEpoch> epoch = this->epoch();
  if (epoch == nullptr) return status();
  const ShardManifest& manifest = *epoch->manifest;
  const size_t batch = nodes.size();

  // Same contract (and message shape) as CompressedGraph::ValidateBatch:
  // a hostile id fails the whole batch before any shard is touched.
  for (size_t i = 0; i < batch; ++i) {
    if (nodes[i] >= manifest.num_nodes()) {
      return Status::InvalidArgument(
          "batch node id " + std::to_string(nodes[i]) + " at position " +
          std::to_string(i) + " is out of range (graph has " +
          std::to_string(manifest.num_nodes()) + " nodes)");
    }
  }

  // Scatter: route each position to the shards that can contribute.
  // Isolated nodes route nowhere and fall out of the stitch as empty
  // answers / zero degrees, exactly like the single box.
  const uint32_t num_shards = manifest.num_shards();
  GatherScratch& scratch = ThreadLocalGatherScratch();
  scratch.positions.resize(num_shards);
  scratch.sub_nodes.resize(num_shards);
  scratch.answers.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    scratch.positions[s].clear();
    scratch.sub_nodes[s].clear();
  }
  std::vector<std::vector<uint32_t>>& positions = scratch.positions;
  std::vector<std::vector<NodeId>>& sub_nodes = scratch.sub_nodes;
  uint64_t subqueries = 0;
  for (size_t i = 0; i < batch; ++i) {
    for (uint32_t s : manifest.TouchSet(nodes[i])) {
      positions[s].push_back(static_cast<uint32_t>(i));
      sub_nodes[s].push_back(nodes[i]);
      ++subqueries;
    }
  }
  std::vector<uint32_t>& active = scratch.active;
  active.clear();
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (!sub_nodes[s].empty()) active.push_back(s);
  }

  // Root span of this batch; per-shard dispatch spans hang off it so a
  // span dump reconstructs the fan-out of one slow batch. The id is
  // surfaced through GatherStats for callers that log their own traces.
  const CoordObs& obs = Obs();
  obs.batches->Add(1);
  obs.subqueries->Add(subqueries);
  obs::ScopedSpan batch_span(&obs::MetricsRegistry::Global(), "coord.batch",
                             /*parent=*/0, obs.batch_seconds, batch);
  if (stats != nullptr) stats->span_id = batch_span.id();

  std::vector<ShardAnswer>& answers = scratch.answers;
  const auto dispatch_one = [&](uint32_t s) {
    obs::ScopedSpan dispatch_span(&obs::MetricsRegistry::Global(),
                                  "coord.dispatch", batch_span.id(),
                                  Obs().dispatch_seconds, s);
    WallTimer timer;
    ShardAnswer& a = answers[s];
    a.status = Status::OK();
    SnapshotRegistry::Snapshot snap = epoch->shards[s]->Current();
    if (snap == nullptr) {
      a.status = Status::NotFound("shard " + std::to_string(s) +
                                  " has no published snapshot");
    } else if constexpr (kDegreesOnly) {
      a.status = snap->DegreeBatch(sub_nodes[s], &a.degrees);
    } else {
      a.status = snap->NeighborsBatch(sub_nodes[s], &a.result);
    }
    a.seconds = timer.Seconds();
  };

  if (options_.pool != nullptr && options_.pool->size() > 1 &&
      active.size() > 1) {
    options_.pool->Run(active.size(), [&](uint64_t t, unsigned) {
      dispatch_one(active[t]);
    });
  } else {
    for (uint32_t s : active) dispatch_one(s);
  }

  // Account the fan-out and collect casualties before stitching. Budget
  // and failure accounting always reaches the registry, whether or not
  // the caller asked for GatherStats.
  Status first_failure;
  uint32_t first_failed_shard = 0;
  for (uint32_t s : active) {
    const ShardAnswer& a = answers[s];
    const bool over_budget = options_.shard_time_budget_seconds > 0 &&
                             a.seconds > options_.shard_time_budget_seconds;
    if (over_budget) obs.slow_shards->Add(1);
    if (stats != nullptr) {
      stats->max_shard_seconds = std::max(stats->max_shard_seconds, a.seconds);
      if (over_budget) ++stats->slow_shards;
    }
    if (!a.status.ok()) {
      if (stats != nullptr) stats->degraded.emplace_back(s, a.status);
      if (first_failure.ok()) {
        first_failure = a.status;
        first_failed_shard = s;
      }
    }
  }
  if (stats != nullptr) {
    stats->shards_dispatched = static_cast<uint32_t>(active.size());
    stats->subqueries = subqueries;
  }
  if (!first_failure.ok()) {
    if (options_.allow_degraded) {
      obs.degraded_batches->Add(1);
    } else {
      obs.failed_batches->Add(1);
    }
  }
  if (!first_failure.ok() && !options_.allow_degraded) {
    if constexpr (kDegreesOnly) {
      degrees->clear();
    } else {
      out->neighbors.clear();
      out->offsets.clear();
    }
    return Status::IOError("shard " + std::to_string(first_failed_shard) +
                           " failed: " + first_failure.ToString());
  }

  // Gather: per-shard contributions are disjoint (one owner per edge),
  // so degrees add and neighbor lists concatenate; the final ascending
  // sort per position is what makes the output canonical and
  // byte-comparable to a single box regardless of shard count.
  WallTimer stitch_timer;
  if constexpr (kDegreesOnly) {
    degrees->assign(batch, 0);
    for (uint32_t s : active) {
      const ShardAnswer& a = answers[s];
      if (!a.status.ok()) continue;
      for (size_t k = 0; k < a.degrees.size(); ++k) {
        (*degrees)[positions[s][k]] += a.degrees[k];
      }
    }
  } else {
    out->offsets.assign(batch + 1, 0);
    for (uint32_t s : active) {
      const ShardAnswer& a = answers[s];
      if (!a.status.ok()) continue;
      for (size_t k = 0; k < a.result.size(); ++k) {
        out->offsets[positions[s][k] + 1] += a.result[k].size();
      }
    }
    for (size_t i = 0; i < batch; ++i) {
      out->offsets[i + 1] += out->offsets[i];
    }
    out->neighbors.resize(out->offsets[batch]);
    std::vector<uint64_t>& cursor = scratch.cursor;
    cursor.assign(out->offsets.begin(), out->offsets.end() - 1);
    // Each range of positions copies its sub-answers into place (a
    // shard's positions ascend, so they are one run of its entries) and
    // sorts every list ascending. Dispatch leaves sub-answers in the
    // shards' emission order (different summaries emit in different
    // orders, so sorting there would still need a re-sort at boundary
    // positions; paying once here is strictly less work). Each
    // kListSortGrain positions are one radix sort of (position, id) tags
    // on the id bits, scattered back by position. Ranges write disjoint
    // slices of out->neighbors and cursor, so they ride the pool, one
    // task each, when one is available.
    const auto id_bits =
        static_cast<unsigned>(std::bit_width(manifest.num_nodes() - 1u));
    const auto stitch_range = [&](uint64_t begin, uint64_t end,
                                  unsigned worker) {
      for (uint32_t s : active) {
        const ShardAnswer& a = answers[s];
        if (!a.status.ok()) continue;
        const std::vector<uint32_t>& at = positions[s];
        size_t k = static_cast<size_t>(
            std::lower_bound(at.begin(), at.end(), begin) - at.begin());
        for (; k < at.size() && at[k] < end; ++k) {
          const std::span<const NodeId> src = a.result[k];
          std::copy(src.begin(), src.end(),
                    out->neighbors.begin() + cursor[at[k]]);
          cursor[at[k]] += src.size();
        }
      }
      RadixSortLists(out->offsets, out->neighbors, begin, end, id_bits,
                     &scratch.sort[worker]);
    };
    const bool pooled = options_.pool != nullptr &&
                        options_.pool->size() > 1 && batch > 512;
    scratch.sort.resize(pooled ? options_.pool->size() : 1);
    if (pooled) {
      options_.pool->ParallelFor(batch, kListSortGrain, stitch_range);
    } else {
      stitch_range(0, batch, 0);
    }
  }
  const double stitch_seconds = stitch_timer.Seconds();
  obs.stitch_seconds->Observe(stitch_seconds);
  if (stats != nullptr) stats->stitch_seconds = stitch_seconds;
  return Status::OK();
}

Status Coordinator::NeighborsBatch(std::span<const NodeId> nodes,
                                   BatchResult* out,
                                   GatherStats* stats) const {
  return RunScatterGather<false>(nodes, out, nullptr, stats);
}

Status Coordinator::DegreeBatch(std::span<const NodeId> nodes,
                                std::vector<uint64_t>* degrees,
                                GatherStats* stats) const {
  return RunScatterGather<true>(nodes, nullptr, degrees, stats);
}

}  // namespace slugger::dist
