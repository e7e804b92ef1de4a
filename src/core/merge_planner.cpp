#include "core/merge_planner.hpp"

#include <cassert>
#include <cstring>
#include <limits>

namespace slugger::core {

namespace {

/// m-side unit bitmask (units 0..3) of a local family node.
uint8_t MSideUnitMask(int local, bool a_internal, bool b_internal) {
  switch (local) {
    case kA:
      return a_internal ? 0b0011 : 0b0001;
    case kA1:
      return 0b0001;
    case kA2:
      return 0b0010;
    case kB:
      return b_internal ? 0b1100 : 0b0100;
    case kB1:
      return 0b0100;
    case kB2:
      return 0b1000;
    default:
      assert(false && "kM has no old edges; C-side nodes are not m-side");
      return 0;
  }
}

/// c-side unit bitmask (units 0..1) of a local C-side slot position 0..2.
uint8_t CSideUnitMask(int c_pos, bool c_internal) {
  switch (c_pos) {
    case 0:
      return c_internal ? 0b11 : 0b01;
    case 1:
      return 0b01;
    default:
      return 0b10;
  }
}

/// Shape of root r's side of a merge.
SideShape ShapeOf(const summary::HierarchyForest& forest, SupernodeId r) {
  const auto& kids = forest.Children(r);
  assert(kids.size() <= 2 && "merge phase trees are binary");
  return kids.empty() ? SideShape::kLeaf
                      : InternalShape(forest.Size(kids[0]) == 1,
                                      forest.Size(kids[1]) == 1);
}

/// Saving of Eq. 8 for the given costs (cost_before > 0).
double SavingOf(uint64_t cost_after, uint64_t cost_before) {
  return 1.0 - static_cast<double>(cost_after) /
                   static_cast<double>(cost_before);
}

/// Flag on a RootSlot::count that holds a bucket index, not a tally.
constexpr uint32_t kBucketFlag = 1u << 31;

/// A tally is a group's edge count plus kNegative per n-edge, so the
/// tallies of two sides add. A group has at most 6 x 3 cross edges or
/// 6 x 7 / 2 within edges, far below kNegative.
constexpr uint32_t kNegative = 1u << 16;
constexpr uint32_t kEdgeMask = kNegative - 1;

uint32_t TallyOf(EdgeSign sign) { return sign < 0 ? 1 + kNegative : 1; }

/// Tally of a group that is a single n-edge: it may cancel against one
/// edge from the partner, so PartnerBound grants it one more.
constexpr uint32_t kLoneNegative = 1 + kNegative;

/// Most edges a rewrite of a group with tally t removes net. A group with
/// an n-edge may cancel to an empty encoding. A group without one has a
/// nonzero target on some active class (each legal slot covers one and
/// positive edges cannot cancel), so its best encoding keeps an edge.
uint32_t GroupGain(uint32_t t) {
  const uint32_t edges = t & kEdgeMask;
  const bool keeps_an_edge = edges > 0 && t < kNegative;
  return keeps_an_edge ? edges - 1 : edges;
}

/// GroupGain of a cross group, which gets a bucket only with >= 2 edges.
uint32_t BucketGain(uint32_t t) {
  return (t & kEdgeMask) < 2 ? 0 : GroupGain(t);
}

}  // namespace

void MergePlanner::NextEpoch(uint32_t* epoch, uint32_t RootSlot::*field) {
  if (++*epoch != 0) return;
  for (RootSlot& slot : slots_) slot.*field = 0;
  *epoch = 1;
}

void MergePlanner::BeginScan(SupernodeId a) {
  assert(slots_.size() >= state_->summary().forest().capacity());
  NextEpoch(&epoch_, &RootSlot::mark);
  scan_root_ = a;

  // Gather a's family [A, A1, A2] once for every partner, and tally it:
  // within-family edges, and cross edges per adjacent root. An edge whose
  // other end lies deep in some tree is never re-encoded; an edge inside
  // the family is kept once, from its lower slot. A root's slot is marked
  // at the family's first edge into its band, so an unmarked slot means a
  // tally of zero.
  const SummaryGraph& summary = state_->summary();
  const summary::HierarchyForest& forest = summary.forest();
  const auto& kids = forest.Children(a);
  scan_family_[0] = a;
  scan_family_[1] = kids.empty() ? kInvalidId : kids[0];
  scan_family_[2] = kids.empty() ? kInvalidId : kids[1];
  scan_shape_ = ShapeOf(forest, a);
  scan_edges_.clear();
  scan_within_ = 0;
  scan_gain_ = 0;
  scan_lone_n_ = 0;
  for (uint8_t f_local = kA; f_local <= kA2; ++f_local) {
    SupernodeId f = scan_family_[f_local - kA];
    if (f == kInvalidId) continue;
    summary.ForEachEdgeOf(f, [&](SupernodeId other, EdgeSign sign) {
      SupernodeId band = state_->BandRoot(other);
      if (band == kInvalidId) return;
      uint8_t o_local = kM;
      if (band == a) {
        o_local = other == a ? kA : other == scan_family_[1] ? kA1 : kA2;
        if (o_local < f_local) return;
        scan_within_ += TallyOf(sign);
      } else {
        RootSlot& slot = slots_[band];
        if (slot.mark != epoch_) {
          slot.mark = epoch_;
          slot.tally = 0;
        }
        const uint32_t before = slot.tally;
        slot.tally += TallyOf(sign);
        scan_gain_ += BucketGain(slot.tally) - BucketGain(before);
        scan_lone_n_ += slot.tally == kLoneNegative;
        scan_lone_n_ -= before == kLoneNegative;
      }
      scan_edges_.push_back({other, band, f_local, o_local, sign});
    });
  }
}

uint64_t MergePlanner::CostBefore(SupernodeId z) const {
  const SupernodeId a = scan_root_;
  return state_->HCost(a) + state_->HCost(z) + state_->IncCost(a) +
         state_->IncCost(z) - state_->Between(a, z);
}

double MergePlanner::PartnerBound(SupernodeId z) const {
  assert(scan_root_ != kInvalidId && "BeginScan first");
  assert(z != scan_root_);
  const uint64_t cost_before = CostBefore(z);
  if (cost_before == 0) return std::numeric_limits<double>::infinity();
  // EvaluatePartner's bound starts from the same a-side gain, then adds z's
  // edges one group at a time. A group's gain rises by at most the z-side
  // edges it receives, plus one if z brings its first n-edge (an n-edge of
  // z counts twice below), plus one if a's side of the group is a single
  // n-edge (a lone edge has no bucket of its own, yet with a partner edge
  // it may cancel to nothing). Every z-side edge sits in the edge list of
  // z or of one of its children.
  const uint32_t a_into_z = TallyInto(z);
  uint64_t rewritable = GroupGain(scan_within_ + a_into_z) + scan_gain_ -
                        BucketGain(a_into_z) + scan_lone_n_;
  const SummaryGraph& summary = state_->summary();
  const auto count = [&](SupernodeId f) {
    rewritable += summary.EdgeCountOf(f) + summary.NegativeCountOf(f);
  };
  count(z);
  for (SupernodeId kid : summary.forest().Children(z)) count(kid);
  const uint64_t after =
      rewritable < cost_before + 2 ? cost_before + 2 - rewritable : 0;
  return SavingOf(after, cost_before);
}

void MergePlanner::EvaluateInto(SupernodeId a, SupernodeId b, MergePlan* plan) {
  BeginScan(a);
  constexpr double kNoCut = -std::numeric_limits<double>::infinity();
  EvaluatePartner(b, kNoCut, kNoCut, plan);
}

void MergePlanner::EvaluatePartner(SupernodeId z, double theta, double best,
                                   MergePlan* plan) {
  assert(scan_root_ != kInvalidId && "BeginScan first");
  const SupernodeId a = scan_root_;
  assert(z != a);
  const SummaryGraph& summary = state_->summary();
  const summary::HierarchyForest& forest = summary.forest();

  plan->Reset(a, z);

  // ---- Cost before the merge (denominator of Eq. 8). ----
  plan->cost_before = CostBefore(z);
  if (plan->cost_before == 0) {
    // Two edgeless singletons: nothing to re-encode, only two h-edges.
    plan->cost_after = 2;
    plan->valid = true;
    plan->saving = plan->saving_bound =
        -std::numeric_limits<double>::infinity();
    return;
  }

  // ---- Walk z's family [B, B1, B2] and tally it into the groups. ----
  // a's edges into z's band leave their bucket for the within-family
  // group. Each cross edge of z joins its root's group on top of a's tally,
  // in a slot stamped with eval_epoch_. Scratch was sized to the id bound
  // at construction, so no capacity check (and no capacity read) happens
  // on this concurrent-safe path.
  SupernodeId z_family[3] = {z, kInvalidId, kInvalidId};
  const auto& z_kids = forest.Children(z);
  if (!z_kids.empty()) {
    z_family[1] = z_kids[0];
    z_family[2] = z_kids[1];
  }
  const auto z_local = [&](SupernodeId id) -> uint8_t {
    return id == z ? kB : id == z_family[1] ? kB1 : kB2;
  };
  NextEpoch(&eval_epoch_, &RootSlot::stamp);
  const uint32_t a_into_z = TallyInto(z);
  uint32_t within = scan_within_ + a_into_z;
  uint64_t gain = scan_gain_ - BucketGain(a_into_z);
  partner_edges_.clear();
  for (uint8_t f_local = kB; f_local <= kB2; ++f_local) {
    SupernodeId f = z_family[f_local - kB];
    if (f == kInvalidId) continue;
    summary.ForEachEdgeOf(f, [&](SupernodeId other, EdgeSign sign) {
      SupernodeId band = state_->BandRoot(other);
      // Deep in a tree: fixed. In a's family: tallied from a's side.
      if (band == kInvalidId || band == a) return;
      uint8_t o_local = kM;
      if (band == z) {
        o_local = z_local(other);
        if (o_local < f_local) return;
        within += TallyOf(sign);
      } else {
        RootSlot& slot = slots_[band];
        if (slot.stamp != eval_epoch_) {
          slot.stamp = eval_epoch_;
          slot.count = 0;
        }
        const uint32_t before =
            (slot.mark == epoch_ ? slot.tally : 0) + slot.count;
        slot.count += TallyOf(sign);
        gain += BucketGain(before + TallyOf(sign)) - BucketGain(before);
      }
      partner_edges_.push_back({other, band, f_local, o_local, sign});
    });
  }

  // ---- Saving bound. ----
  // No group's rewrite removes more than its gain net, so the same double
  // operations as the saving keep saving <= saving_bound exact.
  const uint64_t rewritable = GroupGain(within) + gain;
  assert(rewritable + state_->HCost(a) + state_->HCost(z) <=
         plan->cost_before);
  plan->saving_bound =
      SavingOf(plan->cost_before + 2 - rewritable, plan->cost_before);
  if (plan->saving_bound < theta || plan->saving_bound <= best) return;

  // ---- Local family table: [M, A, A1, A2, B, B1, B2]. ----
  SupernodeId concrete[7];
  concrete[kM] = MergePlan::kMergedSentinel;
  concrete[kA] = a;
  concrete[kA1] = scan_family_[1];
  concrete[kA2] = scan_family_[2];
  concrete[kB] = z;
  concrete[kB1] = z_family[1];
  concrete[kB2] = z_family[2];
  const SideShape b_shape = ShapeOf(forest, z);
  const bool a_internal = IsInternal(scan_shape_);
  const bool b_internal = IsInternal(b_shape);
  const Universe& case1 = GetCase1Universe(scan_shape_, b_shape);

  // ---- Replay the edges into the within target and the buckets. ----
  // A root gets a bucket at its first edge once a's and z's tallies give
  // it >= 2; a single-edge bucket can never improve (any nonzero target
  // costs at least one edge), so it is kept as-is at zero cost delta.
  int8_t target1[16];
  std::memset(target1, 0, sizeof(target1));
  old_within_.clear();
  buckets_used_ = 0;

  const auto add_within = [&](uint8_t f_local, uint8_t o_local,
                              SupernodeId other, EdgeSign sign) {
    int slot = case1.SlotIdFor(f_local, o_local);
    assert(slot >= 0 && "existing family edge must map to a legal slot");
    uint16_t cover = case1.slots[slot].cover;
    for (int c = 0; c < case1.num_classes; ++c) {
      if (cover >> c & 1) target1[c] = static_cast<int8_t>(target1[c] + sign);
    }
    old_within_.push_back({concrete[f_local], other, sign});
  };
  const auto add_cross = [&](const ScanEdge& e) {
    RootSlot& root = slots_[e.band];
    if (root.stamp != eval_epoch_) {
      root.stamp = eval_epoch_;
      root.count = 0;
    }
    if (!(root.count & kBucketFlag)) {
      const uint32_t tally =
          (root.mark == epoch_ ? root.tally : 0) + root.count;
      if ((tally & kEdgeMask) < 2) return;
      root.count = kBucketFlag | static_cast<uint32_t>(buckets_used_);
      if (buckets_used_ == buckets_.size()) buckets_.emplace_back();
      Bucket& fresh = buckets_[buckets_used_++];
      const auto& c_kids = forest.Children(e.band);
      assert(c_kids.size() <= 2);
      fresh.c_internal = !c_kids.empty();
      fresh.c_nodes[0] = e.band;
      fresh.c_nodes[1] = fresh.c_internal ? c_kids[0] : kInvalidId;
      fresh.c_nodes[2] = fresh.c_internal ? c_kids[1] : kInvalidId;
      std::memset(fresh.target, 0, sizeof(fresh.target));
      fresh.old_edges.clear();
    }
    Bucket& bucket = buckets_[root.count & ~kBucketFlag];

    int c_pos = e.other == bucket.c_nodes[0]   ? 0
                : e.other == bucket.c_nodes[1] ? 1
                                               : 2;
    assert(c_pos != 2 || e.other == bucket.c_nodes[2]);
    uint8_t mmask = MSideUnitMask(e.f_local, a_internal, b_internal);
    uint8_t cmask = CSideUnitMask(c_pos, bucket.c_internal);
    for (int mi = 0; mi < 4; ++mi) {
      if (!(mmask >> mi & 1)) continue;
      for (int cj = 0; cj < 2; ++cj) {
        if (!(cmask >> cj & 1)) continue;
        int cls = Case2ClassIndex(mi, cj);
        bucket.target[cls] = static_cast<int8_t>(bucket.target[cls] + e.sign);
      }
    }
    bucket.old_edges.push_back({concrete[e.f_local], e.other, e.sign});
  };

  // a's side first, in the order BeginScan saw it, then z's family; this
  // fixes the order of buckets, removes and adds.
  for (const ScanEdge& e : scan_edges_) {
    if (e.band == a) {
      add_within(e.f_local, e.o_local, e.other, e.sign);
    } else if (e.band == z) {
      add_within(e.f_local, z_local(e.other), e.other, e.sign);
    } else {
      add_cross(e);
    }
  }
  for (const ScanEdge& e : partner_edges_) {
    if (e.band == z) {
      add_within(e.f_local, e.o_local, e.other, e.sign);
    } else {
      add_cross(e);
    }
  }

  // ---- Solve within-family (Case 1). ----
  uint64_t removed_total = 0;
  uint64_t added_total = 0;

  const SolvedEncoding& solved1 = memo_->Solve(case1, target1);
  if (solved1.feasible && solved1.edges.size() < old_within_.size()) {
    removed_total += old_within_.size();
    added_total += solved1.edges.size();
    plan->within_delta = static_cast<int32_t>(solved1.edges.size()) -
                         static_cast<int32_t>(old_within_.size());
    for (const auto& e : old_within_) plan->removes.emplace_back(e.x, e.y);
    for (auto [slot, sign] : solved1.edges) {
      const Slot& s = case1.slots[slot];
      plan->adds.push_back({concrete[s.p], concrete[s.q], sign});
    }
  }
  // else: keep the old within-family edges (equal cost, less churn).

  // ---- Solve each cross bucket (Case 2). ----
  for (size_t bi = 0; bi < buckets_used_; ++bi) {
    const Bucket& bucket = buckets_[bi];
    const Universe& case2 =
        GetCase2Universe(a_internal, b_internal, bucket.c_internal);
    const SolvedEncoding& solved2 = memo_->Solve(case2, bucket.target);
    if (solved2.feasible && solved2.edges.size() < bucket.old_edges.size()) {
      removed_total += bucket.old_edges.size();
      added_total += solved2.edges.size();
      plan->between_deltas.emplace_back(
          bucket.c_nodes[0], static_cast<int32_t>(solved2.edges.size()) -
                                 static_cast<int32_t>(bucket.old_edges.size()));
      for (const auto& e : bucket.old_edges) {
        plan->removes.emplace_back(e.x, e.y);
      }
      for (auto [slot, sign] : solved2.edges) {
        const Slot& s = case2.slots[slot];
        plan->adds.push_back(
            {concrete[s.p], bucket.c_nodes[s.q - kC], sign});
      }
    }
  }

  // ---- Cost after and saving (Eq. 8). ----
  plan->cost_after =
      plan->cost_before + 2 - removed_total + added_total;
  plan->valid = true;
  plan->saving = SavingOf(plan->cost_after, plan->cost_before);
}

SupernodeId MergePlanner::Commit(const MergePlan& plan) {
  assert(plan.valid);
  scan_root_ = kInvalidId;  // the scan cache describes the old state
  // The plan knows every rewritten edge's group, so no edge needs a root
  // lookup: MergeRoots folds a's and b's aggregates as they stood, and
  // each group's net change is booked on the merged root afterwards.
  SummaryGraph& summary = state_->summary();
  for (const auto& [x, y] : plan.removes) {
    EdgeSign sign = summary.RemoveEdge(x, y);
    assert(sign != 0 && "plan is stale: edge to remove is absent");
    (void)sign;
  }
  SupernodeId m = state_->MergeRoots(plan.a, plan.b);
  for (const auto& e : plan.adds) {
    SupernodeId x = e.x == MergePlan::kMergedSentinel ? m : e.x;
    SupernodeId y = e.y == MergePlan::kMergedSentinel ? m : e.y;
    bool inserted = summary.AddEdge(x, y, e.sign);
    assert(inserted && "plan adds an edge that is present");
    (void)inserted;
  }
  state_->ShiftWithin(m, plan.within_delta);
  for (const auto& [c, delta] : plan.between_deltas) {
    state_->ShiftBetween(m, c, delta);
  }
  return m;
}

}  // namespace slugger::core
