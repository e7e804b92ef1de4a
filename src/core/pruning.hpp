// The pruning step (paper §III-B4, Algorithm 3).
//
// Three lossless substeps, repeated for a configurable number of rounds:
//   1. remove non-leaf supernodes with no incident p/n-edge (splice);
//   2. remove non-leaf roots with exactly one incident non-loop edge by
//      pushing the edge down to the children with sign cancellation;
//   3. per adjacent root pair, fall back to the flat-model encoding
//      (superedge + leaf-level corrections) when it is strictly cheaper.
// Every substep preserves the net signed coverage of every subnode pair,
// so the summary keeps representing the same graph.
//
// Each substep runs in the merge engine's evaluate-parallel / apply-serial
// style: candidates and edge rewrites are computed on a pool against a
// frozen state, then applied serially in a fixed order with revalidation
// (substep 2 dissolves roots in sorted-id rounds). There is one algorithm
// at every pool size: no pool runs it inline, and the pruned summary is
// byte-identical with no pool, a pool of 1 and a pool of 8.
#ifndef SLUGGER_CORE_PRUNING_HPP_
#define SLUGGER_CORE_PRUNING_HPP_

#include "graph/graph.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace slugger::core {

struct PruneOptions {
  uint32_t rounds = 2;  ///< substeps 1-3 repeated (paper: "a few times")
  bool enable_step1 = true;
  bool enable_step2 = true;
  bool enable_step3 = true;
  /// Pool the substeps run on (any size). Null runs them inline on the
  /// calling thread, and prunes exactly as any pool does.
  ThreadPool* pool = nullptr;
  /// Polled at round boundaries; a fired token skips the remaining rounds
  /// (every substep is lossless, so the summary stays valid).
  const CancelToken* cancel = nullptr;
};

/// Per-substep snapshots of the first round, for the Table IV ablation.
/// Index 0 is the state before pruning, i the state after substep i.
struct PruneAblation {
  summary::SummaryStats stage[4];
};

/// Prunes `summary` in place; `g` is the input graph (needed by substep 3
/// to count subedges between trees). Returns first-round snapshots.
PruneAblation PruneSummary(summary::SummaryGraph* summary,
                           const graph::Graph& g,
                           const PruneOptions& options = {});

}  // namespace slugger::core

#endif  // SLUGGER_CORE_PRUNING_HPP_
