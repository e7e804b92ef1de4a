// Evaluation and application of root merges (paper §III-B3, Fig. 4).
//
// Evaluation computes Saving(A, B) (Eq. 8) without mutating state: it
// gathers the re-encodable superedges (within the merge family, and between
// the family and the top band S_C of each adjacent root C), derives the
// class-coverage targets, and looks up memoized optimal replacements.
// Commit() applies the recorded edge rewrites and performs the merge.
//
// The scan protocol accelerates Algorithm 2's partner search for a fixed A:
//   - BeginScan(A) gathers the edges of A's family once, each classified
//     by the top band its other end lies in, and tallies them by group
//     (A's within-family edges, and A's cross edges per adjacent root:
//     count and n-edges). It marks only the roots those edges reach, not
//     A's whole root adjacency: a root no family edge reaches has a tally
//     of zero.
//   - PartnerBound(Z) bounds the saving from counts alone, before any
//     edge of Z is read: A's tallies, and the sizes and n-edge counts of
//     Z's family's edge lists. A group's rewrite gain rises by at most the
//     Z-side edges it receives, plus one if Z brings the group's first
//     n-edge, plus one if A's side of the group is a single n-edge. The
//     scan cuts a partner whose PartnerBound is below θ or not above the
//     best saving so far, and books it as evaluated and bounded; it is
//     never below the exact bound below, so EvaluatePartner would have cut
//     it too.
//   - EvaluatePartner(Z) walks only Z's family, adds its edges to the
//     tallies, and bounds the saving before any bucket is built or solved.
//     A group is the within-family edges, or the cross edges of one
//     adjacent root when there are >= 2 of them (a bucket). A group with an
//     n-edge may cancel to nothing, so its rewrite saves at most its count.
//     A group without one keeps an edge: every legal slot covers an active
//     class and positive edges cannot cancel, so its target is nonzero and
//     its rewrite saves at most count - 1. A partner whose bound is below θ
//     or not above the best saving so far cannot be the scan's pick, so it
//     is cut; only an uncut partner replays the edges into buckets.
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
  /// Upper bound on `saving` from the group tallies alone: a rewrite saves
  /// at most each group's edge count, less one for a group without an
  /// n-edge, and nothing for a single cross edge. Set even when the plan is
  /// cut.
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
  /// Net edge change of each rewritten group, which Commit books once per
  /// group: inside the merged tree, and per bucket between the merged tree
  /// and the bucket's root.
  int32_t within_delta = 0;
  std::vector<std::pair<SupernodeId, int32_t>> between_deltas;

  void Reset(SupernodeId a_in, SupernodeId b_in) {
    a = a_in;
    b = b_in;
    valid = false;
    saving = saving_bound = 0.0;
    cost_after = cost_before = 0;
    removes.clear();
    adds.clear();
    within_delta = 0;
    between_deltas.clear();
  }
};

/// Stateful evaluator bound to the algorithm state and a memo table.
/// Reuses internal scratch across evaluations, and the scan cache that
/// BeginScan fills belongs to this planner, so one planner serves one
/// thread. BeginScan / EvaluatePartner / EvaluateInto never
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
    slots_.assign(state_->max_supernodes(), RootSlot{});
  }

  /// Starts a partner scan for root a: gathers and tallies the edges of
  /// a's family once for EvaluatePartner, marking the roots they reach.
  void BeginScan(SupernodeId a);

  /// Upper bound on the saving_bound that EvaluatePartner(z, ...) would
  /// report for the scan root and root z, from counts alone: no edge of z
  /// is read. +∞ for an edgeless pair (cost_before == 0), which is then
  /// evaluated in full. Read-only, like EvaluatePartner.
  double PartnerBound(SupernodeId z) const;

  /// Computes the plan for merging the scan root with root z into *plan.
  /// If plan->saving_bound shows the saving is below theta or not above
  /// best, the plan is left invalid without building a bucket or solving
  /// any encoding. Never mutates state; reuses plan buffers.
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
  /// and returns the merged supernode id. Edges change one by one on the
  /// summary; the aggregates change once per rewritten group.
  SupernodeId Commit(const MergePlan& plan);

 private:
  friend struct MergePlannerTestPeer;  // tests start the epochs near a wrap

  struct Bucket {
    bool c_internal;
    SupernodeId c_nodes[3];  // C, C1, C2 (kInvalidId if absent)
    int8_t target[8];
    std::vector<MergePlan::SignedEdge> old_edges;
  };

  /// A classified edge of the scan root's or the partner's family: `other`
  /// lies in the top band of `band`; o_local is other's family slot when
  /// the edge is within the family (kM for a cross edge).
  struct ScanEdge {
    SupernodeId other;
    SupernodeId band;
    uint8_t f_local;
    uint8_t o_local;
    EdgeSign sign;
  };

  /// Per-supernode scratch, so one band-root lookup touches one cache line.
  /// A tally counts edges plus kNegative per n-edge (see the .cpp).
  struct RootSlot {
    uint32_t mark = 0;   // == epoch_: the scan root's family reaches it
    uint32_t tally = 0;  // scan root's edges into this band (with mark)
    uint32_t stamp = 0;  // == eval_epoch_: `count` is current
    uint32_t count = 0;  // partner's edges into this band, then
                         // kBucketFlag | bucket index once it has one
  };

  /// Advances an epoch. On a wrap every slot's `field` is cleared, so no
  /// stamp from 2^32 epochs ago can read as current.
  void NextEpoch(uint32_t* epoch, uint32_t RootSlot::*field);

  /// Cost_{A}(Ĝ) + Cost_{Z}(Ĝ) of the scan root and z: the denominator of
  /// Eq. 8.
  uint64_t CostBefore(SupernodeId z) const;

  /// The scan root's tally into z's band (its edges that become
  /// within-family once a and z merge).
  uint32_t TallyInto(SupernodeId z) const {
    return slots_[z].mark == epoch_ ? slots_[z].tally : 0;
  }

  SluggerState* state_;
  MemoTable* memo_;
  std::vector<RootSlot> slots_;

  // Scan state (BeginScan / EvaluatePartner).
  uint32_t epoch_ = 0;
  SupernodeId scan_root_ = kInvalidId;
  // [A, A1, A2] of the scan root (kInvalidId if absent).
  SupernodeId scan_family_[3] = {kInvalidId, kInvalidId, kInvalidId};
  SideShape scan_shape_ = SideShape::kLeaf;
  std::vector<ScanEdge> scan_edges_;
  uint32_t scan_within_ = 0;  // tally of the scan root's within edges
  uint64_t scan_gain_ = 0;    // bucket gain of the scan root's tallies
  uint32_t scan_lone_n_ = 0;  // bands whose tally is one n-edge alone

  // Evaluate scratch.
  uint32_t eval_epoch_ = 0;
  std::vector<ScanEdge> partner_edges_;
  std::vector<Bucket> buckets_;
  size_t buckets_used_ = 0;
  std::vector<MergePlan::SignedEdge> old_within_;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_MERGE_PLANNER_HPP_
