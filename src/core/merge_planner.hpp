// Evaluation and application of root merges (paper §III-B3, Fig. 4).
//
// Evaluate() computes Saving(A, B) (Eq. 8) without mutating state: it
// gathers the re-encodable superedges (within the merge family, and between
// the family and the top band S_C of each adjacent root C), derives the
// class-coverage targets, and looks up memoized optimal replacements.
// Commit() applies the recorded edge rewrites and performs the merge.
//
// The scan protocol accelerates Algorithm 2's partner search: BeginScan(A)
// marks A's adjacent roots once; MayOverlap(Z) then rejects partners with
// no shared adjacency in O(min degree) — such merges always have negative
// saving (Lemma 1), so they can never beat the threshold θ(t) >= 0.
#ifndef SLUGGER_CORE_MERGE_PLANNER_HPP_
#define SLUGGER_CORE_MERGE_PLANNER_HPP_

#include <vector>

#include "core/encoding_universe.hpp"
#include "core/memo_table.hpp"
#include "core/slugger_state.hpp"

namespace slugger::core {

/// Result of evaluating one candidate merge. `adds` may reference the
/// not-yet-existing merged supernode through kMergedSentinel.
struct MergePlan {
  static constexpr SupernodeId kMergedSentinel = kInvalidId;

  SupernodeId a = kInvalidId;
  SupernodeId b = kInvalidId;
  bool valid = false;
  double saving = 0.0;
  uint64_t cost_after = 0;     ///< Cost_{A∪B}(Ĝ), numerator of Eq. 8
  uint64_t cost_before = 0;    ///< denominator of Eq. 8

  struct SignedEdge {
    SupernodeId x;
    SupernodeId y;
    EdgeSign sign;
  };
  std::vector<std::pair<SupernodeId, SupernodeId>> removes;
  std::vector<SignedEdge> adds;

  void Reset(SupernodeId a_in, SupernodeId b_in) {
    a = a_in;
    b = b_in;
    valid = false;
    saving = 0.0;
    cost_after = cost_before = 0;
    removes.clear();
    adds.clear();
  }
};

/// Stateful evaluator bound to the algorithm state and a memo table.
/// Reuses internal scratch across evaluations, so one planner serves one
/// thread. BeginScan / MayOverlap / EvaluateInto never mutate the shared
/// state (root lookups go through SluggerState::FindRootConst), so
/// planners on different threads may evaluate concurrently as long as no
/// Commit is running; Commit requires exclusive access to the state.
/// The memo table is NOT thread-safe, so concurrent planners must each
/// bring their own; it must outlive the planner.
class MergePlanner {
 public:
  MergePlanner(SluggerState* state, MemoTable* memo)
      : state_(state), memo_(memo) {
    // Scratch is sized once to the state's id bound, so no evaluation
    // ever has to grow it.
    size_t bound = state_->max_supernodes();
    mark_epoch_.assign(bound, 0);
    root_stamp_.assign(bound, 0);
    root_count_.assign(bound, 0);
  }

  /// Marks the adjacency of root a for fast MayOverlap tests.
  void BeginScan(SupernodeId a);

  /// True iff merging a (from BeginScan) with z could have positive saving:
  /// they are adjacent or share an adjacent root. Others are skipped —
  /// distance >= 3 merges always increase the cost (paper Lemma 1).
  bool MayOverlap(SupernodeId z) const;

  /// Computes the merge plan for roots a and b into *plan. Never mutates
  /// state; reuses plan buffers.
  void EvaluateInto(SupernodeId a, SupernodeId b, MergePlan* plan);

  /// Convenience wrappers (tests).
  MergePlan Evaluate(SupernodeId a, SupernodeId b) {
    MergePlan plan;
    EvaluateInto(a, b, &plan);
    return plan;
  }
  double Saving(SupernodeId a, SupernodeId b) { return Evaluate(a, b).saving; }

  /// Applies `plan` (must have been evaluated against the current state)
  /// and returns the merged supernode id.
  SupernodeId Commit(const MergePlan& plan);

 private:
  struct Bucket {
    SupernodeId c_root;
    bool c_internal;
    SupernodeId c_nodes[3];  // C, C1, C2 (kInvalidId if absent)
    int8_t target[8];
    std::vector<MergePlan::SignedEdge> old_edges;
  };

  SluggerState* state_;
  MemoTable* memo_;

  // Scan state (BeginScan / MayOverlap).
  std::vector<uint32_t> mark_epoch_;
  uint32_t epoch_ = 0;
  SupernodeId scan_root_ = kInvalidId;
  uint32_t scan_adj_count_ = 0;
  std::vector<SupernodeId> scan_adj_;

  // Evaluate scratch.
  struct CrossEdge {
    SupernodeId c_root;
    SupernodeId other;
    uint8_t f_local;
    EdgeSign sign;
  };
  std::vector<Bucket> buckets_;
  size_t buckets_used_ = 0;
  FlatMap32<uint32_t> bucket_of_root_;
  std::vector<MergePlan::SignedEdge> old_within_;
  std::vector<CrossEdge> cross_edges_;
  std::vector<uint32_t> root_stamp_;
  std::vector<uint32_t> root_count_;
  uint32_t eval_epoch_ = 0;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_MERGE_PLANNER_HPP_
