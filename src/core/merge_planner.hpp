// Evaluation and application of root merges (paper §III-B3, Fig. 4).
//
// Evaluation computes Saving(A, B) (Eq. 8) without mutating state: it
// gathers the re-encodable superedges (within the merge family, and between
// the family and the top band S_C of each adjacent root C), derives the
// class-coverage targets, and looks up memoized optimal replacements.
// Commit() applies the recorded edge rewrites and performs the merge.
//
// The scan protocol accelerates Algorithm 2's partner search for a fixed A:
//   - BeginScan(A) marks A's adjacent roots and gathers the edges of A's
//     family once, each classified by the top band its other end lies in.
//   - MayOverlap(Z) rejects partners with no shared adjacency in
//     O(min degree): such merges always have negative saving (Lemma 1), so
//     they can never beat the threshold θ(t) >= 0.
//   - EvaluatePartner(Z) gathers only Z's family. Before any bucket is
//     built or solved it bounds the saving by assuming every re-encodable
//     edge disappears; a partner whose bound is below θ or not above the
//     best saving so far cannot be the scan's pick, so it is cut.
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
  /// Upper bound on `saving` known after the gather alone (every
  /// re-encodable edge removed, none added); set even when the plan is cut.
  double saving_bound = 0.0;
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
    saving = saving_bound = 0.0;
    cost_after = cost_before = 0;
    removes.clear();
    adds.clear();
  }
};

/// Stateful evaluator bound to the algorithm state and a memo table.
/// Reuses internal scratch across evaluations, and the scan cache that
/// BeginScan fills belongs to this planner, so one planner serves one
/// thread. BeginScan / MayOverlap / EvaluatePartner / EvaluateInto never
/// mutate the shared state (edges are classified by SluggerState::BandRoot,
/// a plain array read), so planners on different threads may evaluate
/// concurrently as long as no Commit is running. Commit requires exclusive
/// access to the state and makes every planner's scan stale: BeginScan
/// again before the next EvaluatePartner. The memo table is NOT
/// thread-safe, so concurrent planners must each bring their own; it must
/// outlive the planner.
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

  /// Starts a partner scan for root a: marks its adjacency for MayOverlap
  /// and gathers the edges of a's family once for EvaluatePartner.
  void BeginScan(SupernodeId a);

  /// True iff merging a (from BeginScan) with z could have positive saving:
  /// they are adjacent or share an adjacent root. Others are skipped —
  /// distance >= 3 merges always increase the cost (paper Lemma 1).
  bool MayOverlap(SupernodeId z) const;

  /// Computes the plan for merging the scan root with root z into *plan.
  /// If plan->saving_bound shows the saving is below theta or not above
  /// best, the plan is left invalid without solving any encoding. Never
  /// mutates state; reuses plan buffers.
  void EvaluatePartner(SupernodeId z, double theta, double best,
                       MergePlan* plan);

  /// Computes the full merge plan for roots a and b into *plan (a scan of
  /// a with one uncut evaluation). Never mutates state.
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
    bool c_internal;
    SupernodeId c_nodes[3];  // C, C1, C2 (kInvalidId if absent)
    int8_t target[8];
    std::vector<MergePlan::SignedEdge> old_edges;
  };

  /// An edge of the scan root's family: `other` lies in the top band of
  /// `band`; o_local is other's family slot when band is the scan root.
  struct ScanEdge {
    SupernodeId other;
    SupernodeId band;
    uint8_t f_local;
    uint8_t o_local;
    EdgeSign sign;
  };

  SluggerState* state_;
  MemoTable* memo_;

  // Scan state (BeginScan / MayOverlap / EvaluatePartner).
  std::vector<uint32_t> mark_epoch_;
  uint32_t epoch_ = 0;
  SupernodeId scan_root_ = kInvalidId;
  uint32_t scan_adj_count_ = 0;
  std::vector<SupernodeId> scan_adj_;
  // [A, A1, A2] of the scan root (kInvalidId if absent).
  SupernodeId scan_family_[3] = {kInvalidId, kInvalidId, kInvalidId};
  SideShape scan_shape_ = SideShape::kLeaf;
  std::vector<ScanEdge> scan_edges_;

  // Evaluate scratch.
  struct CrossEdge {
    SupernodeId c_root;
    SupernodeId other;
    uint8_t f_local;
    EdgeSign sign;
  };
  std::vector<Bucket> buckets_;
  size_t buckets_used_ = 0;
  std::vector<MergePlan::SignedEdge> old_within_;
  std::vector<CrossEdge> cross_edges_;
  // Per adjacent root, stamped with eval_epoch_: its cross-edge count,
  // then kBucketFlag | bucket index once its bucket exists.
  std::vector<uint32_t> root_stamp_;
  std::vector<uint32_t> root_count_;
  uint32_t eval_epoch_ = 0;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_MERGE_PLANNER_HPP_
