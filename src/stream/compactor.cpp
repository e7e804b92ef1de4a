#include "stream/compactor.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "summary/cover_layout.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/summary_graph.hpp"
#include "util/timer.hpp"

namespace slugger::stream {

namespace {

/// Corrections flattened to canonical (u < v, sign) triples and grouped
/// by u, so the fold runs ONE coverage pass per distinct smaller
/// endpoint instead of one per correction.
struct Correction {
  NodeId u;
  NodeId v;
  EdgeSign sign;
};

std::vector<Correction> SortedCorrections(const EdgeOverlay& overlay) {
  std::vector<Correction> all;
  all.reserve(overlay.correction_count());
  overlay.ForEachCorrection([&](NodeId u, NodeId v, EdgeSign sign) {
    all.push_back({u, v, sign});
  });
  std::sort(all.begin(), all.end(), [](const Correction& a,
                                       const Correction& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return all;
}

}  // namespace

Compactor::Compactor(CompactionPolicy policy, EngineOptions rebuild_options)
    : policy_(policy), engine_(std::move(rebuild_options)) {}

bool Compactor::ShouldCompact(const CompressedGraph& base,
                              const EdgeOverlay& overlay) const {
  const uint64_t corrections = overlay.correction_count();
  if (corrections < policy_.min_corrections) return false;
  const double cost = static_cast<double>(base.stats().cost);
  return static_cast<double>(corrections) >= policy_.max_overlay_ratio * cost;
}

StatusOr<CompressedGraph> Compactor::Compact(const CompressedGraph& base,
                                             const EdgeOverlay& overlay,
                                             const CancelToken* cancel,
                                             CompactionStats* stats) {
  WallTimer timer;
  CompactionStats local;
  local.corrections = overlay.correction_count();
  local.old_cost = base.stats().cost;

  const NodeId n = base.num_nodes();
  const double dirty_fraction =
      n == 0 ? 0.0
             : static_cast<double>(overlay.dirty_node_count()) /
                   static_cast<double>(n);
  const bool fold_allowed =
      dirty_fraction <= policy_.max_fold_dirty_fraction &&
      folded_since_rebuild_ + overlay.correction_count() <=
          policy_.rebuild_after_folded;

  StatusOr<CompressedGraph> result = Status::Aborted("unreached");
  if (fold_allowed) {
    local.kind = CompactionKind::kFold;
    result = TryFold(base, overlay, cancel);
    if (!result.ok() && result.status().code() == Status::Code::kNotFound) {
      local.fold_fell_back = true;
      result = Rebuild(base, overlay, cancel);
      local.kind = CompactionKind::kRebuild;
    }
  } else {
    local.kind = CompactionKind::kRebuild;
    result = Rebuild(base, overlay, cancel);
  }
  if (!result.ok()) {
    if (stats != nullptr) *stats = local;
    return result.status();
  }

  if (local.kind == CompactionKind::kFold) {
    folded_since_rebuild_ += overlay.correction_count();
  } else {
    folded_since_rebuild_ = 0;
  }
  local.new_cost = result.value().stats().cost;
  local.seconds = timer.Seconds();
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<CompressedGraph> Compactor::TryFold(const CompressedGraph& base,
                                             const EdgeOverlay& overlay,
                                             const CancelToken* cancel) const {
  summary::SummaryGraph folded = base.summary();  // deep copy
  // Coverage is read off the base's layout while the copy is rewritten.
  // That is exact: group u rewrites only leaf pairs {u, v} with u < v, so
  // a later group w > u sees the rewrite only as count[u] in its walk,
  // and it reads count[x] for x > w alone. Within a group each pair is
  // read once, from the pass taken before any of its rewrites.
  const summary::CoverLayout layout(base.summary());
  summary::QueryScratch scratch;
  const std::vector<Correction> corrections = SortedCorrections(overlay);

  size_t i = 0;
  while (i < corrections.size()) {
    if (IsCancelled(cancel)) return Status::Aborted("compaction cancelled");
    const NodeId u = corrections[i].u;
    // One coverage pass answers every corrected pair {u, *} of the group.
    summary::AccumulateCoverage(layout, u, &scratch);
    // Resolve the group, then restore the scratch invariant.
    Status verdict = Status::OK();
    for (; i < corrections.size() && corrections[i].u == u; ++i) {
      const NodeId v = corrections[i].v;
      const bool want_present = corrections[i].sign > 0;
      const EdgeSign leaf_sign = folded.GetSign(u, v);
      // Net coverage contributed by every ancestor pair EXCEPT the leaf
      // pair itself — the only term a fold may rewrite.
      const int32_t outer = scratch.count[v] - leaf_sign;
      EdgeSign target;
      if (want_present) {
        if (outer >= 1) {
          target = 0;  // already over-covered; drop any leaf n-edge
        } else if (outer == 0) {
          target = +1;
        } else {
          verdict = Status::NotFound("fold infeasible: pair under-covered");
          break;
        }
      } else {
        if (outer <= 0) {
          target = 0;
        } else if (outer == 1) {
          target = -1;
        } else {
          verdict = Status::NotFound("fold infeasible: pair over-covered");
          break;
        }
      }
      if (target != leaf_sign) {
        if (leaf_sign != 0) folded.RemoveEdge(u, v);
        if (target != 0) folded.AddEdge(u, v, target);
      }
    }
    for (NodeId t : scratch.touched) scratch.count[t] = 0;
    scratch.touched.clear();
    if (!verdict.ok()) return verdict;
  }
  return CompressedGraph(std::move(folded));
}

StatusOr<CompressedGraph> Compactor::Rebuild(const CompressedGraph& base,
                                             const EdgeOverlay& overlay,
                                             const CancelToken* cancel) {
  if (IsCancelled(cancel)) return Status::Aborted("compaction cancelled");
  const graph::Graph mutated = ApplyOverlay(base.Decode(engine_.pool()),
                                            overlay);
  if (IsCancelled(cancel)) return Status::Aborted("compaction cancelled");
  RunOptions run;
  run.cancel = cancel;
  StatusOr<CompressedGraph> rebuilt = engine_.Summarize(mutated, run);
  if (!rebuilt.ok()) return rebuilt.status();
  // A cancelled Summarize returns a lossless best-so-far summary, but a
  // cancelled *compaction* must not publish at all (the caller is
  // shutting down or wants the base kept) — discard it.
  if (IsCancelled(cancel)) return Status::Aborted("compaction cancelled");
  return rebuilt;
}

}  // namespace slugger::stream
