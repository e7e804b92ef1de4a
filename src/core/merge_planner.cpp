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

/// Flag on a root_count_ entry that holds a bucket index, not a count.
constexpr uint32_t kBucketFlag = 1u << 31;

}  // namespace

void MergePlanner::BeginScan(SupernodeId a) {
  assert(mark_epoch_.size() >= state_->summary().forest().capacity());
  ++epoch_;
  scan_root_ = a;
  scan_adj_.clear();
  mark_epoch_[a] = epoch_;
  scan_adj_.push_back(a);
  state_->RootAdjacency(a).ForEach([&](SupernodeId c, uint32_t) {
    mark_epoch_[c] = epoch_;
    scan_adj_.push_back(c);
  });
  scan_adj_count_ = static_cast<uint32_t>(scan_adj_.size());

  // Gather a's family [A, A1, A2] once for every partner. An edge whose
  // other end lies deep in some tree is never re-encoded; an edge inside
  // the family is kept once, from its lower slot.
  const SummaryGraph& summary = state_->summary();
  const summary::HierarchyForest& forest = summary.forest();
  const auto& kids = forest.Children(a);
  scan_family_[0] = a;
  scan_family_[1] = kids.empty() ? kInvalidId : kids[0];
  scan_family_[2] = kids.empty() ? kInvalidId : kids[1];
  scan_shape_ = ShapeOf(forest, a);
  scan_edges_.clear();
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
      }
      scan_edges_.push_back({other, band, f_local, o_local, sign});
    });
  }
}

bool MergePlanner::MayOverlap(SupernodeId z) const {
  assert(scan_root_ != kInvalidId);
  if (mark_epoch_[z] == epoch_) return true;  // z adjacent to a
  const FlatCountMap& z_adj = state_->RootAdjacency(z);
  if (z_adj.size() <= scan_adj_count_) {
    bool found = false;
    z_adj.ForEach([&](SupernodeId c, uint32_t) {
      if (mark_epoch_[c] == epoch_) found = true;
    });
    return found;
  }
  for (SupernodeId c : scan_adj_) {
    if (z_adj.Contains(c)) return true;
  }
  return false;
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
  const SummaryGraph& summary = state_->summary();
  const summary::HierarchyForest& forest = summary.forest();

  plan->Reset(a, z);

  // ---- Cost before the merge (denominator of Eq. 8). ----
  const uint64_t h_before = state_->HCost(a) + state_->HCost(z);
  const uint64_t p_before =
      state_->IncCost(a) + state_->IncCost(z) - state_->Between(a, z);
  plan->cost_before = h_before + p_before;
  if (plan->cost_before == 0) {
    // Two edgeless singletons: nothing to re-encode, only two h-edges.
    plan->cost_after = 2;
    plan->valid = true;
    plan->saving = plan->saving_bound =
        -std::numeric_limits<double>::infinity();
    return;
  }

  // ---- Local family table: [M, A, A1, A2, B, B1, B2]. ----
  SupernodeId concrete[7];
  concrete[kM] = MergePlan::kMergedSentinel;
  concrete[kA] = a;
  concrete[kA1] = scan_family_[1];
  concrete[kA2] = scan_family_[2];
  const auto& z_kids = forest.Children(z);
  concrete[kB] = z;
  concrete[kB1] = z_kids.empty() ? kInvalidId : z_kids[0];
  concrete[kB2] = z_kids.empty() ? kInvalidId : z_kids[1];
  const SideShape b_shape = ShapeOf(forest, z);
  const bool a_internal = IsInternal(scan_shape_);
  const bool b_internal = IsInternal(b_shape);
  const Universe& case1 = GetCase1Universe(scan_shape_, b_shape);
  const auto z_local = [&](SupernodeId id) -> uint8_t {
    return id == z ? kB : id == concrete[kB1] ? kB1 : kB2;
  };

  // ---- Gather within-family edges and cross edges. ----
  // Cross edges are tallied per adjacent root in epoch-stamped counters.
  // Scratch was sized to the id bound at construction, so no capacity
  // check (and no capacity read) happens on this concurrent-safe path.
  int8_t target1[16];
  std::memset(target1, 0, sizeof(target1));
  old_within_.clear();
  cross_edges_.clear();
  ++eval_epoch_;
  uint64_t shared_cross = 0;  // cross edges of roots that have >= 2

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
  const auto add_cross = [&](SupernodeId c_root, SupernodeId other,
                             uint8_t f_local, EdgeSign sign) {
    if (root_stamp_[c_root] != eval_epoch_) {
      root_stamp_[c_root] = eval_epoch_;
      root_count_[c_root] = 1;
    } else if (++root_count_[c_root] == 2) {
      shared_cross += 2;
    } else {
      ++shared_cross;
    }
    cross_edges_.push_back({c_root, other, f_local, sign});
  };

  // a's side first, in the order BeginScan saw it, then z's family; this
  // fixes the order of buckets, removes and adds.
  for (const ScanEdge& e : scan_edges_) {
    if (e.band == a) {
      add_within(e.f_local, e.o_local, e.other, e.sign);
    } else if (e.band == z) {
      add_within(e.f_local, z_local(e.other), e.other, e.sign);
    } else {
      add_cross(e.band, e.other, e.f_local, e.sign);
    }
  }
  for (uint8_t f_local = kB; f_local <= kB2; ++f_local) {
    SupernodeId f = concrete[f_local];
    if (f == kInvalidId) continue;
    summary.ForEachEdgeOf(f, [&](SupernodeId other, EdgeSign sign) {
      SupernodeId band = state_->BandRoot(other);
      // Deep in a tree: fixed. In a's family: gathered from a's side.
      if (band == kInvalidId || band == a) return;
      if (band != z) {
        add_cross(band, other, f_local, sign);
        return;
      }
      uint8_t o_local = z_local(other);
      if (o_local >= f_local) add_within(f_local, o_local, other, sign);
    });
  }

  // ---- Saving bound. ----
  // A rewrite removes at most the edges it is given: the within-family
  // edges, and the cross edges of roots with >= 2 of them (only those get
  // a bucket). So removed - added <= rewritable, and the same double
  // operations as the saving keep saving <= saving_bound exact.
  const uint64_t rewritable = old_within_.size() + shared_cross;
  assert(rewritable <= p_before);
  plan->saving_bound =
      SavingOf(plan->cost_before + 2 - rewritable, plan->cost_before);
  if (plan->saving_bound < theta || plan->saving_bound <= best) return;

  // ---- Materialize buckets for roots with >= 2 re-encodable edges. ----
  // A single-edge bucket can never improve (any nonzero target costs at
  // least one edge), so it is kept as-is at zero cost delta.
  buckets_used_ = 0;
  for (const CrossEdge& ce : cross_edges_) {
    uint32_t& tally = root_count_[ce.c_root];
    if (!(tally & kBucketFlag)) {
      if (tally < 2) continue;
      tally = kBucketFlag | static_cast<uint32_t>(buckets_used_);
      if (buckets_used_ == buckets_.size()) buckets_.emplace_back();
      Bucket& fresh = buckets_[buckets_used_++];
      const auto& c_kids = forest.Children(ce.c_root);
      assert(c_kids.size() <= 2);
      fresh.c_internal = !c_kids.empty();
      fresh.c_nodes[0] = ce.c_root;
      fresh.c_nodes[1] = fresh.c_internal ? c_kids[0] : kInvalidId;
      fresh.c_nodes[2] = fresh.c_internal ? c_kids[1] : kInvalidId;
      std::memset(fresh.target, 0, sizeof(fresh.target));
      fresh.old_edges.clear();
    }
    Bucket& bucket = buckets_[tally & ~kBucketFlag];

    int c_pos = ce.other == bucket.c_nodes[0]   ? 0
                : ce.other == bucket.c_nodes[1] ? 1
                                                : 2;
    assert(c_pos != 2 || ce.other == bucket.c_nodes[2]);
    uint8_t mmask = MSideUnitMask(ce.f_local, a_internal, b_internal);
    uint8_t cmask = CSideUnitMask(c_pos, bucket.c_internal);
    for (int mi = 0; mi < 4; ++mi) {
      if (!(mmask >> mi & 1)) continue;
      for (int cj = 0; cj < 2; ++cj) {
        if (!(cmask >> cj & 1)) continue;
        int cls = Case2ClassIndex(mi, cj);
        bucket.target[cls] = static_cast<int8_t>(bucket.target[cls] + ce.sign);
      }
    }
    bucket.old_edges.push_back({concrete[ce.f_local], ce.other, ce.sign});
  }

  // ---- Solve within-family (Case 1). ----
  uint64_t removed_total = 0;
  uint64_t added_total = 0;

  const SolvedEncoding& solved1 = memo_->Solve(case1, target1);
  if (solved1.feasible && solved1.edges.size() < old_within_.size()) {
    removed_total += old_within_.size();
    added_total += solved1.edges.size();
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
  for (const auto& [x, y] : plan.removes) {
    EdgeSign sign = state_->RemoveEdge(x, y);
    assert(sign != 0 && "plan is stale: edge to remove is absent");
    (void)sign;
  }
  SupernodeId m = state_->MergeRoots(plan.a, plan.b);
  for (const auto& e : plan.adds) {
    SupernodeId x = e.x == MergePlan::kMergedSentinel ? m : e.x;
    SupernodeId y = e.y == MergePlan::kMergedSentinel ? m : e.y;
    state_->AddEdge(x, y, e.sign);
  }
  return m;
}

}  // namespace slugger::core
