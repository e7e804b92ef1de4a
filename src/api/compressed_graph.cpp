#include "api/compressed_graph.hpp"

#include <atomic>
#include <utility>

#include "algs/summary_ops.hpp"
#include "obs/metrics.hpp"
#include "storage/paged_source.hpp"
#include "summary/decode.hpp"
#include "summary/verify.hpp"
#include "util/sync.hpp"

namespace slugger {

namespace {

// Serving-path metrics. Counters are always-on (one relaxed add); the
// single-query latency histogram is sampled 1-in-64 so the two clock
// reads amortize to ~nothing against the ~3M q/s hot path.
struct QueryObs {
  obs::Counter* single = obs::MetricsRegistry::Global().GetCounter(
      "slugger_query_single_total", "single Neighbors/Degree calls");
  obs::Counter* batches = obs::MetricsRegistry::Global().GetCounter(
      "slugger_query_batch_total", "NeighborsBatch/DegreeBatch calls");
  obs::Counter* batch_nodes = obs::MetricsRegistry::Global().GetCounter(
      "slugger_query_batch_nodes_total", "nodes answered by batch calls");
  obs::Counter* errors = obs::MetricsRegistry::Global().GetCounter(
      "slugger_query_errors_total",
      "paged-backend query failures (absorbed or surfaced)");
  obs::Counter* paged = obs::MetricsRegistry::Global().GetCounter(
      "slugger_query_paged_total", "queries served by the paged backend");
  obs::Histogram* single_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_query_single_seconds", obs::HistogramOptions{1e-7, 2.0, 24},
      "single-query latency, sampled 1-in-64");
  obs::Histogram* batch_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_query_batch_seconds", obs::HistogramOptions{1e-6, 2.0, 24},
      "whole-batch latency");
};

const QueryObs& Obs() {
  static QueryObs handles;
  return handles;
}

/// The single-query latency histogram every 64th call on this thread,
/// null otherwise (a null ScopedTimer never touches the clock).
obs::Histogram* SampledSingleHistogram() {
  if constexpr (!obs::kEnabled) return nullptr;
  thread_local uint32_t tick = 0;
  return ((++tick & 63u) == 0) ? Obs().single_seconds : nullptr;
}

/// Backing store of the scratch-free query overloads. One scratch per
/// thread serves every CompressedGraph: the coverage counters are all
/// zero between queries, so switching summaries only ever grows the
/// buffers.
QueryScratch& ThreadLocalScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

/// Same lifecycle for the batched path.
BatchScratch& ThreadLocalBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace

// States: 0 = serving paged, 1 = materialized (summary/layout set),
// 2 = materialization failed (error set; queries keep serving paged).
struct CompressedGraph::PagedBox {
  std::shared_ptr<storage::PagedSummarySource> source;
  Mutex mu;
  std::atomic<int> state{0};
  // summary / layout are written once under mu and PUBLISHED by the
  // release-store of state (readers acquire-load state == 1 before
  // touching them), so they are protocol-synchronized, not guarded-by —
  // the sync.hpp convention for verify-once/publish-once data.
  std::shared_ptr<const summary::SummaryGraph> summary;
  std::shared_ptr<const summary::CoverLayout> layout;
  Status error SLUGGER_GUARDED_BY(mu);

  // Query-error observability (query_errors()/last_status()): counted
  // even on the single-query paths that degrade errors to empty answers.
  std::atomic<uint64_t> query_errors{0};
  Mutex err_mu;
  Status last_error SLUGGER_GUARDED_BY(err_mu);

  void RecordError(const Status& failed) SLUGGER_REQUIRES(!err_mu) {
    query_errors.fetch_add(1, std::memory_order_relaxed);
    Obs().errors->Add(1);  // process-wide mirror of the per-instance count
    MutexLock lock(&err_mu);
    last_error = failed;
  }
};

struct CompressedGraph::LayoutBox {
  Mutex mu;
  // Written once under mu and PUBLISHED by the release-store of ready.
  std::unique_ptr<const summary::CoverLayout> layout SLUGGER_GUARDED_BY(mu);
  std::atomic<const summary::CoverLayout*> ready{nullptr};

  const summary::CoverLayout& Get(const summary::SummaryGraph& summary)
      SLUGGER_REQUIRES(!mu) {
    const summary::CoverLayout* built = ready.load(std::memory_order_acquire);
    if (built != nullptr) return *built;
    MutexLock lock(&mu);
    if (layout == nullptr) {
      layout = std::make_unique<const summary::CoverLayout>(summary);
      ready.store(layout.get(), std::memory_order_release);
    }
    return *layout;
  }
};

CompressedGraph::CompressedGraph() : layout_(std::make_shared<LayoutBox>()) {}

CompressedGraph::CompressedGraph(summary::SummaryGraph summary)
    : summary_(std::move(summary)),
      stats_(summary::ComputeStats(summary_)),
      layout_(std::make_shared<LayoutBox>()),
      num_nodes_(summary_.num_leaves()) {}

CompressedGraph::CompressedGraph(summary::SummaryGraph summary,
                                 summary::SummaryStats stats)
    : summary_(std::move(summary)),
      stats_(stats),
      layout_(std::make_shared<LayoutBox>()),
      num_nodes_(summary_.num_leaves()) {}

CompressedGraph::CompressedGraph(
    std::shared_ptr<storage::PagedSummarySource> source)
    : stats_(source->Stats()),
      num_nodes_(source->num_leaves()),
      box_(std::make_shared<PagedBox>()) {
  box_->source = std::move(source);
}

bool CompressedGraph::ServePaged() const {
  return box_ != nullptr && box_->state.load(std::memory_order_acquire) != 1;
}

bool CompressedGraph::paged() const { return ServePaged(); }

uint64_t CompressedGraph::query_errors() const {
  return box_ ? box_->query_errors.load(std::memory_order_relaxed) : 0;
}

Status CompressedGraph::last_status() const {
  if (!box_) return Status::OK();
  MutexLock lock(&box_->err_mu);
  return box_->last_error;
}

std::shared_ptr<storage::PagedSummarySource> CompressedGraph::paged_source()
    const {
  return box_ ? box_->source : nullptr;
}

const summary::SummaryGraph& CompressedGraph::ActiveSummary() const {
  if (box_ && box_->state.load(std::memory_order_acquire) == 1) {
    return *box_->summary;
  }
  return summary_;
}

const summary::CoverLayout& CompressedGraph::ActiveLayout() const {
  if (box_ && box_->state.load(std::memory_order_acquire) == 1) {
    return *box_->layout;
  }
  return layout_->Get(summary_);
}

Status CompressedGraph::Materialize() const {
  if (!box_) return Status::OK();
  if (box_->state.load(std::memory_order_acquire) == 1) return Status::OK();
  MutexLock lock(&box_->mu);
  const int state = box_->state.load(std::memory_order_relaxed);
  if (state == 1) return Status::OK();
  if (state == 2) return box_->error;
  StatusOr<summary::SummaryGraph> rebuilt = box_->source->Materialize();
  if (!rebuilt.ok()) {
    box_->error = rebuilt.status();
    box_->state.store(2, std::memory_order_release);
    return box_->error;
  }
  auto owned = std::make_shared<const summary::SummaryGraph>(
      std::move(rebuilt).value());
  box_->layout = std::make_shared<const summary::CoverLayout>(*owned);
  box_->summary = std::move(owned);
  box_->state.store(1, std::memory_order_release);
  return Status::OK();
}

const summary::SummaryGraph& CompressedGraph::summary() const {
  // A failed materialization is sticky (box_->error); this reference
  // accessor degrades to the empty in-memory summary, and callers that
  // need the verdict call Materialize() directly.
  if (box_) (void)Materialize();
  return ActiveSummary();
}

const std::vector<NodeId>& CompressedGraph::Neighbors(
    NodeId v, QueryScratch* scratch) const {
  return Neighbors(v, scratch, {});
}

const std::vector<NodeId>& CompressedGraph::Neighbors(
    NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides) const {
  Obs().single->Add(1);
  obs::ScopedTimer obs_timer(SampledSingleHistogram());
  if (v >= num_nodes_) {
    // The in-memory walk asserts v is in range (an out-of-range id is a
    // caller bug at that layer); the facade absorbs hostile ids here
    // instead.
    scratch->result.clear();
    return scratch->result;
  }
  if (ServePaged()) {
    // This overload has no error channel, so a paged I/O or corruption
    // failure degrades to the empty list the walk leaves behind;
    // query_errors()/last_status() record it and the batch APIs surface it.
    Obs().paged->Add(1);
    Status served = box_->source->Neighbors(v, scratch, overrides);
    if (!served.ok()) box_->RecordError(served);
    return scratch->result;
  }
  return summary::QueryNeighbors(ActiveLayout(), v, scratch, overrides);
}

const std::vector<NodeId>& CompressedGraph::Neighbors(NodeId v) const {
  return Neighbors(v, &ThreadLocalScratch());
}

size_t CompressedGraph::Degree(NodeId v, QueryScratch* scratch) const {
  return Degree(v, scratch, {});
}

size_t CompressedGraph::Degree(
    NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides) const {
  Obs().single->Add(1);
  obs::ScopedTimer obs_timer(SampledSingleHistogram());
  if (v >= num_nodes_) return 0;
  if (ServePaged()) {
    Obs().paged->Add(1);
    StatusOr<uint64_t> degree = box_->source->Degree(v, scratch, overrides);
    if (!degree.ok()) {
      box_->RecordError(degree.status());
      return 0;
    }
    return static_cast<size_t>(degree.value());
  }
  return summary::QueryDegree(ActiveLayout(), v, scratch, overrides);
}

size_t CompressedGraph::Degree(NodeId v) const {
  return Degree(v, &ThreadLocalScratch());
}

Status CompressedGraph::ValidateBatch(std::span<const NodeId> nodes) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= num_nodes_) {
      return Status::InvalidArgument(
          "batch node id " + std::to_string(nodes[i]) + " at position " +
          std::to_string(i) + " is out of range (graph has " +
          std::to_string(num_nodes_) + " nodes)");
    }
  }
  return Status::OK();
}

Status CompressedGraph::NeighborsBatch(std::span<const NodeId> nodes,
                                       BatchResult* out,
                                       BatchScratch* scratch) const {
  Status valid = ValidateBatch(nodes);
  if (!valid.ok()) return valid;
  const QueryObs& o = Obs();
  o.batches->Add(1);
  o.batch_nodes->Add(nodes.size());
  obs::ScopedTimer obs_timer(o.batch_seconds);
  if (ServePaged()) {
    o.paged->Add(1);
    Status served = box_->source->NeighborsBatch(nodes, out, scratch);
    if (!served.ok()) box_->RecordError(served);
    return served;
  }
  summary::QueryNeighborsBatch(ActiveLayout(), nodes, out, scratch);
  return Status::OK();
}

Status CompressedGraph::NeighborsBatch(std::span<const NodeId> nodes,
                                       BatchResult* out) const {
  return NeighborsBatch(nodes, out, &ThreadLocalBatchScratch());
}

Status CompressedGraph::DegreeBatch(std::span<const NodeId> nodes,
                                    std::vector<uint64_t>* degrees,
                                    BatchScratch* scratch) const {
  Status valid = ValidateBatch(nodes);
  if (!valid.ok()) return valid;
  const QueryObs& o = Obs();
  o.batches->Add(1);
  o.batch_nodes->Add(nodes.size());
  obs::ScopedTimer obs_timer(o.batch_seconds);
  if (ServePaged()) {
    o.paged->Add(1);
    Status served = box_->source->DegreeBatch(nodes, degrees, scratch);
    if (!served.ok()) box_->RecordError(served);
    return served;
  }
  summary::QueryDegreeBatch(ActiveLayout(), nodes, degrees, scratch);
  return Status::OK();
}

Status CompressedGraph::DegreeBatch(std::span<const NodeId> nodes,
                                    std::vector<uint64_t>* degrees) const {
  return DegreeBatch(nodes, degrees, &ThreadLocalBatchScratch());
}

std::vector<double> CompressedGraph::PageRank(double d, uint32_t iterations,
                                              ThreadPool* pool) const {
  if (box_ && !Materialize().ok()) return {};
  return algs::PageRankOnHierarchy(ActiveSummary(), d, iterations, pool);
}

std::vector<uint32_t> CompressedGraph::Bfs(NodeId start) const {
  if (start >= num_nodes_ || (box_ && !Materialize().ok())) {
    // Same absorb-hostile-ids stance as Neighbors(): nothing is reachable
    // from a node that does not exist (or a summary that cannot load).
    return std::vector<uint32_t>(num_nodes_, algs::kUnreached);
  }
  return algs::BfsOnHierarchy(ActiveSummary(), start);
}

uint64_t CompressedGraph::Triangles(ThreadPool* pool) const {
  if (box_ && !Materialize().ok()) return 0;
  return algs::TrianglesOnHierarchy(ActiveSummary(), pool);
}

graph::Graph CompressedGraph::Decode(ThreadPool* pool) const {
  // Sticky failure degrades to decoding the empty summary; the verdict
  // stays observable through a direct Materialize() call.
  if (box_) (void)Materialize();
  return summary::Decode(ActiveSummary(), pool);
}

Status CompressedGraph::Verify(const graph::Graph& expected,
                               ThreadPool* pool) const {
  Status ready = Materialize();
  if (!ready.ok()) return ready;
  return summary::VerifyLossless(expected, ActiveSummary(), pool);
}

}  // namespace slugger
