// Tests for SLUGGER's driver machinery: state aggregates, merge planner,
// candidate generation, pruning substeps, thresholds, height bounds, and
// pinned output fingerprints of the whole merge phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/candidate_generation.hpp"
#include "core/merge_planner.hpp"
#include "core/pruning.hpp"
#include "core/slugger.hpp"
#include "core/slugger_state.hpp"
#include "gen/generators.hpp"
#include "summary/decode.hpp"
#include "summary/serialize.hpp"
#include "summary/verify.hpp"

namespace slugger::core {

/// Test seam of MergePlanner: moves its scan and evaluation epochs.
struct MergePlannerTestPeer {
  static void SetEpochs(MergePlanner* planner, uint32_t epoch) {
    planner->epoch_ = epoch;
    planner->eval_epoch_ = epoch;
  }
};

namespace {

graph::Graph TwinGraph() {
  // Nodes 0 and 1 are twins: identical neighborhoods {2,3,4} and adjacent
  // to each other — the canonical profitable merge.
  return graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}});
}

// ----------------------------------------------------------------- state
TEST(SluggerState, InitialAggregates) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  EXPECT_EQ(state.roots().size(), 5u);
  EXPECT_EQ(state.IncCost(0), 4u);  // deg(0)
  EXPECT_EQ(state.IncCost(2), 2u);
  EXPECT_EQ(state.Between(0, 1), 1u);
  EXPECT_EQ(state.HCost(0), 0u);
  EXPECT_EQ(state.TotalCostFromAggregates(), g.num_edges());
  EXPECT_TRUE(state.ValidateAggregates());
}

TEST(SluggerState, MergeFoldsAggregates) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  SupernodeId m = state.MergeRoots(0, 1);
  EXPECT_EQ(state.FindRoot(0), m);
  EXPECT_EQ(state.FindRoot(1), m);
  EXPECT_EQ(state.HCost(m), 2u);
  EXPECT_EQ(state.IncCost(m), 7u);  // all 7 edges touch the tree
  EXPECT_EQ(state.Between(m, 2), 2u);
  EXPECT_EQ(state.Height(m), 1u);
  EXPECT_EQ(state.roots().size(), 4u);
  EXPECT_TRUE(state.ValidateAggregates());
}

TEST(SluggerState, ValidateAggregatesChecksRootAdjacency) {
  // Moving one inter-tree edge count from (0, 2) and (1, 3) to (0, 1) and
  // (2, 3) leaves every inc, within and h as it was; only the root pair
  // counts can tell.
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 2}, {1, 3}});
  SluggerState state(g);
  ASSERT_TRUE(state.ValidateAggregates());
  state.ShiftBetween(0, 1, +1);
  state.ShiftBetween(2, 3, +1);
  state.ShiftBetween(0, 2, -1);
  state.ShiftBetween(1, 3, -1);
  EXPECT_EQ(state.TotalCostFromAggregates(), state.summary().Cost());
  EXPECT_EQ(state.Between(0, 2), 0u);
  EXPECT_EQ(state.Between(0, 1), 1u);
  EXPECT_FALSE(state.ValidateAggregates());
}

TEST(SluggerState, EdgeOpsKeepAggregatesConsistent) {
  graph::Graph g = gen::ErdosRenyi(60, 240, 4);
  SluggerState state(g);
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  // Perform a few merges through the planner, validating after each.
  Rng rng(5);
  for (int step = 0; step < 10; ++step) {
    SupernodeId a = state.roots()[rng.Below(state.roots().size())];
    SupernodeId b = state.roots()[rng.Below(state.roots().size())];
    if (a == b) continue;
    MergePlan plan = planner.Evaluate(a, b);
    ASSERT_TRUE(plan.valid);
    planner.Commit(plan);
    ASSERT_TRUE(state.ValidateAggregates()) << "step " << step;
    ASSERT_EQ(state.TotalCostFromAggregates(), state.summary().Cost());
  }
}

// --------------------------------------------------------------- planner
TEST(MergePlanner, TwinMergeSavesAndStaysLossless) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  MergePlan plan = planner.Evaluate(0, 1);
  ASSERT_TRUE(plan.valid);
  // Before: cost 7 (edges of 0 and 1). After: {0,1} with self-loop + three
  // edges to 2,3,4 + 2 h-edges = 6.
  EXPECT_EQ(plan.cost_before, 7u);
  EXPECT_EQ(plan.cost_after, 6u);
  EXPECT_NEAR(plan.saving, 1.0 - 6.0 / 7.0, 1e-12);
  planner.Commit(plan);
  EXPECT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
  EXPECT_EQ(state.summary().Cost(), 6u);
}

TEST(MergePlanner, CostAfterMatchesCommittedCost) {
  // The predicted numerator must equal the real cost delta on commit.
  graph::Graph g = gen::Caveman(4, 6, 0.15, 9);
  SluggerState state(g);
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  Rng rng(3);
  for (int step = 0; step < 12; ++step) {
    SupernodeId a = state.roots()[rng.Below(state.roots().size())];
    SupernodeId b = state.roots()[rng.Below(state.roots().size())];
    if (a == b) continue;
    MergePlan plan = planner.Evaluate(a, b);
    uint64_t other_cost = state.summary().Cost() + plan.cost_before -
                          plan.cost_before;  // total before
    uint64_t before_total = state.summary().Cost();
    planner.Commit(plan);
    uint64_t after_total = state.summary().Cost();
    EXPECT_EQ(after_total - (before_total - plan.cost_before),
              plan.cost_after)
        << "step " << step;
    (void)other_cost;
    ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok())
        << "step " << step;
  }
}

TEST(MergePlanner, DisjointMergeCostsTwoExtra) {
  // Lemma 1: merging two far-apart roots adds exactly the two h-edges.
  graph::Graph g = graph::Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}});
  SluggerState state(g);
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  MergePlan plan = planner.Evaluate(0, 2);
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.cost_after, plan.cost_before + 2);
  EXPECT_LT(plan.saving, 0.0);
}

// ------------------------------------------------- partner-scan fast path

/// Small graphs of the four families the merge phase is checked on.
std::vector<graph::Graph> PlannerPropertyGraphs() {
  gen::PlantedHierarchyOptions planted;
  planted.branching = 3;
  planted.depth = 2;
  planted.leaf_size = 8;
  std::vector<graph::Graph> graphs;
  graphs.push_back(gen::RMat(10, 4096, 0.57, 0.19, 0.19, 3));
  graphs.push_back(gen::ErdosRenyi(600, 2400, 4));
  graphs.push_back(gen::Caveman(20, 12, 0.1, 6));
  graphs.push_back(gen::PlantedHierarchy(planted, 2));
  return graphs;
}

/// Drives `iterations` rounds of Algorithm 2 on g with full evaluations
/// (small candidate groups, θ(t) schedule), so the planner sees states
/// reached by real merges. Before each scan, visit(state, planner, a,
/// partners) runs against the current state; it must not commit.
using ScanVisitor =
    std::function<void(const SluggerState&, MergePlanner&, SupernodeId,
                       const std::vector<SupernodeId>&)>;
void DriveGreedyMerges(const graph::Graph& g, uint32_t iterations,
                       const ScanVisitor& visit) {
  SluggerState state(g);
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  CandidateGenerator generator(g, 1, /*max_group_size=*/16,
                               /*shingle_levels=*/10);
  Rng rng(17);
  MergePlan plan;
  MergePlan best;
  for (uint32_t t = 1; t <= iterations; ++t) {
    const double theta = MergingThreshold(t, iterations);
    for (std::vector<SupernodeId>& q : generator.Generate(state, t)) {
      while (q.size() > 1) {
        size_t a_idx = rng.Below(q.size());
        SupernodeId a = q[a_idx];
        q[a_idx] = q.back();
        q.pop_back();
        visit(state, planner, a, q);
        best.saving = -std::numeric_limits<double>::infinity();
        size_t best_idx = q.size();
        for (size_t i = 0; i < q.size(); ++i) {
          planner.EvaluateInto(a, q[i], &plan);
          if (plan.saving > best.saving) {
            std::swap(best, plan);
            best_idx = i;
          }
        }
        if (best_idx < q.size() && best.saving >= theta) {
          q[best_idx] = planner.Commit(best);
        }
      }
    }
  }
  ASSERT_TRUE(state.ValidateAggregates());
  ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
}

/// True iff two plans rewrite the same edges, in the same order, to the
/// same cost.
bool SamePlan(const MergePlan& x, const MergePlan& y) {
  const auto same_add = [](const MergePlan::SignedEdge& e,
                           const MergePlan::SignedEdge& f) {
    return e.x == f.x && e.y == f.y && e.sign == f.sign;
  };
  return x.a == y.a && x.b == y.b && x.cost_before == y.cost_before &&
         x.cost_after == y.cost_after && x.saving == y.saving &&
         x.removes == y.removes &&
         std::equal(x.adds.begin(), x.adds.end(), y.adds.begin(),
                    y.adds.end(), same_add);
}

TEST(MergePlanner, SavingNeverExceedsItsBound) {
  for (const graph::Graph& g : PlannerPropertyGraphs()) {
    uint64_t checked = 0;
    DriveGreedyMerges(g, 6, [&](const SluggerState&, MergePlanner& planner,
                                SupernodeId a,
                                const std::vector<SupernodeId>& q) {
      MergePlan plan;
      for (SupernodeId z : q) {
        planner.EvaluateInto(a, z, &plan);
        ASSERT_TRUE(plan.valid);
        ASSERT_LE(plan.saving, plan.saving_bound) << a << " + " << z;
        ++checked;
      }
    });
    EXPECT_GT(checked, 1000u);
  }
}

TEST(MergePlanner, BoundedScanPicksWhatFullEvaluationPicks) {
  // Each partner list (the candidate group plus random roots, shuffled) is
  // scanned twice: every pair through EvaluateInto, and once through
  // EvaluatePartner with the saving-bound cut. Whenever the best saving
  // reaches θ, both must pick the same partner with the same plan.
  for (const graph::Graph& g : PlannerPropertyGraphs()) {
    Rng rng(29);
    uint64_t compared = 0;
    uint64_t cut = 0;
    std::vector<MergePlan> full;
    MergePlan plan;
    MergePlan best;
    DriveGreedyMerges(g, 6, [&](const SluggerState& state,
                                MergePlanner& planner, SupernodeId a,
                                const std::vector<SupernodeId>& q) {
      std::vector<SupernodeId> partners = q;
      for (int k = 0; k < 4; ++k) {
        SupernodeId r = state.roots()[rng.Below(state.roots().size())];
        if (r != a &&
            std::find(partners.begin(), partners.end(), r) == partners.end()) {
          partners.push_back(r);
        }
      }
      for (size_t i = partners.size(); i > 1; --i) {
        std::swap(partners[i - 1], partners[rng.Below(i)]);
      }
      const size_t n = partners.size();
      full.resize(n);
      size_t want = n;  // first partner with the maximum saving
      for (size_t i = 0; i < n; ++i) {
        planner.EvaluateInto(a, partners[i], &full[i]);
        if (full[i].saving >
            (want == n ? -std::numeric_limits<double>::infinity()
                       : full[want].saving)) {
          want = i;
        }
      }
      for (double theta : {0.0, 0.05, 0.5}) {
        planner.BeginScan(a);
        best.Reset(a, a);
        best.saving = -std::numeric_limits<double>::infinity();
        size_t got = n;
        for (size_t i = 0; i < n; ++i) {
          planner.EvaluatePartner(partners[i], theta, best.saving, &plan);
          ASSERT_EQ(plan.saving_bound, full[i].saving_bound);
          if (!plan.valid) {
            ++cut;
            continue;
          }
          ASSERT_TRUE(SamePlan(plan, full[i])) << a << " + " << partners[i];
          if (plan.saving > best.saving) {
            std::swap(best, plan);
            got = i;
          }
        }
        if (want == n || full[want].saving < theta) continue;
        ++compared;
        ASSERT_EQ(got, want) << "theta " << theta;
        ASSERT_TRUE(SamePlan(best, full[want])) << "theta " << theta;
      }
    });
    EXPECT_GT(compared, 100u);
    EXPECT_GT(cut, 100u);
  }
}

// Forward declaration: the four graphs of Driver.OutputFingerprintsArePinned.
std::vector<graph::Graph> PinnedGraphs();

TEST(MergePlanner, PartnerBoundNeverBelowTheExactBound) {
  // The scan cuts partners by PartnerBound before EvaluatePartner reads
  // any of their edges, which keeps every pick exact only if it is never
  // below the saving_bound a full evaluation reports.
  constexpr double kNoCut = -std::numeric_limits<double>::infinity();
  std::vector<graph::Graph> graphs = PlannerPropertyGraphs();
  for (graph::Graph& g : PinnedGraphs()) graphs.push_back(std::move(g));
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    uint64_t checked = 0;
    uint64_t cut_at_half = 0;  // partners the bound alone rules out at θ 1/2
    MergePlan plan;
    DriveGreedyMerges(graphs[gi], 6, [&](const SluggerState&,
                                         MergePlanner& planner, SupernodeId a,
                                         const std::vector<SupernodeId>& q) {
      planner.BeginScan(a);
      for (SupernodeId z : q) {
        const double bound = planner.PartnerBound(z);
        planner.EvaluatePartner(z, kNoCut, kNoCut, &plan);
        ASSERT_GE(bound, plan.saving_bound)
            << "graph " << gi << ": " << a << " + " << z;
        cut_at_half += bound < 0.5;
        ++checked;
      }
    });
    EXPECT_GT(checked, 1000u) << "graph " << gi;
    EXPECT_GT(cut_at_half, 0u) << "graph " << gi;
  }
}

/// Leaves a = 0 and z = 1 beside the root c = {2, 3}, with no superedges
/// yet; Bounds() scans a and reports PartnerBound(z) and the plan
/// EvaluatePartner(z) makes.
struct BandFixture {
  graph::Graph g = graph::Graph::FromEdges(4, {});
  SluggerState state{g};
  SupernodeId c = state.MergeRoots(2, 3);

  std::pair<double, MergePlan> Bounds() {
    EXPECT_TRUE(state.ValidateAggregates());
    MemoTable memo;
    MergePlanner planner(&state, &memo);
    constexpr double kNoCut = -std::numeric_limits<double>::infinity();
    MergePlan plan;
    planner.BeginScan(0);
    const double bound = planner.PartnerBound(1);
    planner.EvaluatePartner(1, kNoCut, kNoCut, &plan);
    return {bound, plan};
  }
};

TEST(MergePlanner, PartnerBoundCoversALoneNegativeBand) {
  // a's only edge is (a, c)-, z's only edge (z, c)+. Together they may
  // cancel to nothing, so both bounds allow 2 rewritable edges of a cost
  // of 2. z brings one edge; a's lone n-edge, which has no bucket of its
  // own, is the second.
  BandFixture f;
  f.state.AddEdge(0, f.c, -1);
  f.state.AddEdge(1, f.c, +1);
  const auto [bound, plan] = f.Bounds();
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.cost_before, 2u);
  EXPECT_DOUBLE_EQ(plan.saving_bound, 0.0);  // 1 - (2 + 2 - 2) / 2
  EXPECT_EQ(bound, plan.saving_bound);
}

TEST(MergePlanner, PartnerBoundCoversAPartnersFirstNegative) {
  // a has (a, c)+ and (a, 2)+, both into c's band; z has (z, c)-. a's
  // bucket alone keeps an edge (gain 1); with z's n-edge all three may
  // cancel (gain 3), so both bounds allow 3 rewritable edges of a cost of
  // 3. z's edge is one; the first n-edge it brings to the group is the
  // third.
  BandFixture f;
  f.state.AddEdge(0, f.c, +1);
  f.state.AddEdge(0, 2, +1);
  f.state.AddEdge(1, f.c, -1);
  const auto [bound, plan] = f.Bounds();
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.cost_before, 3u);
  EXPECT_DOUBLE_EQ(plan.saving_bound, 1.0 / 3.0);  // 1 - (3 + 2 - 3) / 3
  EXPECT_EQ(bound, plan.saving_bound);
}

TEST(MergePlanner, CancellingGroupsKeepTheirFullCountInTheBound) {
  // a = {0, 1} carries (a, 2)+ with the n-edges (0, 2) and (1, 2): the
  // three edges cancel, so their best encoding is empty. As a cross bucket
  // (partner 3) and as within-family edges (partner 2), the bound must
  // allow all three to go; a bound that always keeps one edge per group
  // would fall below the saving.
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 3}});
  SluggerState state(g);
  SupernodeId a = state.MergeRoots(0, 1);
  state.AddEdge(a, 2, +1);
  state.AddEdge(0, 2, -1);
  state.AddEdge(1, 2, -1);
  ASSERT_TRUE(state.ValidateAggregates());
  ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
  MemoTable memo;
  MergePlanner planner(&state, &memo);
  for (SupernodeId z : {SupernodeId{3}, SupernodeId{2}}) {
    MergePlan plan = planner.Evaluate(a, z);
    ASSERT_TRUE(plan.valid) << z;
    EXPECT_EQ(plan.removes.size(), 3u) << z;
    EXPECT_TRUE(plan.adds.empty()) << z;
    EXPECT_DOUBLE_EQ(plan.saving, 1.0 / 6.0) << z;
    EXPECT_LE(plan.saving, plan.saving_bound) << z;
  }
}

TEST(MergePlanner, EpochWrapKeepsScansExact) {
  // Scratch slots carry 32-bit scan and evaluation epochs; a wrap must not
  // let a stamp from before it read as current. Two disjoint twin graphs
  // and an isolated node: evaluate (0, 1), move both epochs just below the
  // wrap, evaluate the far copy's pair across it, then (0, 1) again.
  // Without clearing, epoch 1 would bring back the first evaluation's
  // tallies and buckets of roots 2, 3 and 4.
  std::vector<Edge> edges;
  for (NodeId base : {0u, 5u}) {
    for (NodeId x : {0u, 1u}) {
      for (NodeId y : {1u, 2u, 3u, 4u}) {
        if (x < y) edges.emplace_back(base + x, base + y);
      }
    }
  }
  graph::Graph g = graph::Graph::FromEdges(11, edges);
  SluggerState state(g);
  MemoTable memo;
  MergePlanner reference(&state, &memo);
  MergePlanner planner(&state, &memo);
  const std::pair<SupernodeId, SupernodeId> pairs[] = {
      {0, 1}, {5, 6}, {5, 6}, {0, 1}, {0, 2}};
  for (size_t i = 0; i < std::size(pairs); ++i) {
    if (i == 1) {
      MergePlannerTestPeer::SetEpochs(
          &planner, std::numeric_limits<uint32_t>::max() - 1);
    }
    const auto [a, b] = pairs[i];
    const MergePlan want = reference.Evaluate(a, b);
    const MergePlan got = planner.Evaluate(a, b);
    EXPECT_EQ(got.saving_bound, want.saving_bound) << "step " << i;
    EXPECT_TRUE(SamePlan(got, want)) << "step " << i;
  }
}

// ---------------------------------------------------------- candidates
/// The four graphs of Driver.OutputFingerprintsArePinned.
std::vector<graph::Graph> PinnedGraphs() {
  gen::PlantedHierarchyOptions planted;
  planted.branching = 3;
  planted.depth = 3;
  planted.leaf_size = 8;
  std::vector<graph::Graph> graphs;
  graphs.push_back(gen::RMat(12, 4 * 4096, 0.57, 0.19, 0.19, 7));
  graphs.push_back(gen::ErdosRenyi(2000, 8000, 3));
  graphs.push_back(gen::Caveman(40, 16, 0.1, 5));
  graphs.push_back(gen::PlantedHierarchy(planted, 3));
  return graphs;
}

TEST(CandidateGeneration, FirstRoundPairsSaveLessThanHalf) {
  // The engine skips its first round (θ = 1/2, nothing merged yet) on the
  // claim that no leaf pair saves half its cost. Check it on every pair of
  // every first-round group, plus K₂,₅₀₀, whose two twins share 500
  // neighbours and come closest: 498/1000.
  std::vector<graph::Graph> graphs = PinnedGraphs();
  std::vector<Edge> k2;
  for (NodeId c = 2; c < 502; ++c) {
    k2.emplace_back(0, c);
    k2.emplace_back(1, c);
  }
  graphs.push_back(graph::Graph::FromEdges(502, k2));
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::Graph& g = graphs[gi];
    SluggerState state(g);
    MemoTable memo;
    MergePlanner planner(&state, &memo);
    CandidateGenerator generator(g, 7, 500, 10);
    MergePlan plan;
    uint64_t pairs = 0;
    for (const std::vector<SupernodeId>& q : generator.Generate(state, 1)) {
      for (size_t i = 0; i < q.size(); ++i) {
        for (size_t j = i + 1; j < q.size(); ++j) {
          planner.EvaluateInto(q[i], q[j], &plan);
          ASSERT_LT(plan.saving, 0.5) << "graph " << gi;
          ASSERT_LT(plan.saving_bound, 0.5) << "graph " << gi;
          ++pairs;
        }
      }
    }
    EXPECT_GT(pairs, 0u) << "graph " << gi;
  }
  SluggerState twins(graphs.back());
  MemoTable memo;
  MergePlanner planner(&twins, &memo);
  const MergePlan plan = planner.Evaluate(0, 1);
  EXPECT_DOUBLE_EQ(plan.saving_bound, 0.498);
  EXPECT_DOUBLE_EQ(plan.saving, 0.498);
}

TEST(CandidateGeneration, SortByShingleMatchesStdSort) {
  // Candidate groups are the runs of equal shingle in (shingle, root)
  // order: runs of 2 to max_group_size roots are emitted in order, larger
  // ones go to re-division, and single roots drop out. The bucketed sort
  // must hand that split exactly what std::sort does.
  constexpr size_t kMaxGroup = 500;
  struct Split {
    std::vector<std::vector<SupernodeId>> groups;
    std::vector<std::vector<SupernodeId>> oversized;
  };
  const auto split = [](const std::vector<KeyedRoot>& sorted) {
    Split out;
    for (size_t i = 0, j; i < sorted.size(); i = j) {
      for (j = i + 1; j < sorted.size() && sorted[j].first == sorted[i].first;
           ++j) {
      }
      if (j - i < 2) continue;
      std::vector<SupernodeId> run;
      for (size_t k = i; k < j; ++k) run.push_back(sorted[k].second);
      (j - i <= kMaxGroup ? out.groups : out.oversized).push_back(run);
    }
    return out;
  };
  Rng rng(41);
  std::vector<KeyedRoot> scratch;
  std::vector<uint32_t> bucket_end;
  for (size_t n : {0, 1, 2, 3, 17, 1000, 5000, 40000}) {
    // Shingles drawn from a small pool (heavy ties, many runs of one),
    // with keys at and just below 2^64 and one run above the size cap.
    std::vector<uint64_t> pool;
    for (size_t i = 0; i < n / 4 + 1; ++i) pool.push_back(rng.Next());
    pool.push_back(~0ull);
    pool.push_back(~0ull - 1);
    pool.push_back(0);
    std::vector<KeyedRoot> keyed;
    std::vector<SupernodeId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<SupernodeId>(i);
    rng.Shuffle(ids);
    for (size_t i = 0; i < n; ++i) {
      const bool big_run = n >= 5000 && i < kMaxGroup + 100;
      keyed.emplace_back(big_run ? pool[0] : pool[rng.Below(pool.size())],
                         ids[i]);
    }
    rng.Shuffle(keyed);
    std::vector<KeyedRoot> want = keyed;
    std::sort(want.begin(), want.end());
    SortByShingle(&keyed, &scratch, &bucket_end);
    ASSERT_EQ(keyed, want) << "n " << n;
    const Split got_split = split(keyed);
    const Split want_split = split(want);
    EXPECT_EQ(got_split.groups, want_split.groups) << "n " << n;
    EXPECT_EQ(got_split.oversized, want_split.oversized) << "n " << n;
    if (n >= 5000) {
      EXPECT_FALSE(got_split.oversized.empty()) << "n " << n;
    }
  }
}

TEST(CandidateGeneration, GroupsRespectSizeCap) {
  graph::Graph g = gen::Caveman(10, 30, 0.05, 2);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, /*max_group_size=*/16,
                               /*shingle_levels=*/10);
  auto groups = generator.Generate(state, 1);
  ASSERT_FALSE(groups.empty());
  std::set<SupernodeId> seen;
  for (const auto& group : groups) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), 16u);
    for (SupernodeId r : group) {
      EXPECT_TRUE(seen.insert(r).second) << "root in two groups";
    }
  }
}

TEST(CandidateGeneration, SimilarNeighborhoodsShareGroups) {
  // Twins share their shingle, so some group must contain both.
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  CandidateGenerator generator(g, 3, 500, 10);
  auto groups = generator.Generate(state, 1);
  bool together = false;
  for (const auto& group : groups) {
    std::set<SupernodeId> s(group.begin(), group.end());
    if (s.count(0) && s.count(1)) together = true;
  }
  EXPECT_TRUE(together);
}

TEST(CandidateGeneration, ZeroShingleLevelsRandomlyGroupsAllRoots) {
  // shingle_levels = 0 means "random division only": every root lands in
  // a group (except at most one leftover), with no shingle filtering.
  graph::Graph g = gen::ErdosRenyi(300, 900, 8);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, /*max_group_size=*/32,
                               /*shingle_levels=*/0);
  auto groups = generator.Generate(state, 1);
  std::set<SupernodeId> seen;
  for (const auto& group : groups) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), 32u);
    for (SupernodeId r : group) {
      EXPECT_TRUE(seen.insert(r).second) << "root in two groups";
    }
  }
  EXPECT_GE(seen.size() + 1, state.roots().size());
}

TEST(CandidateGeneration, VariesAcrossIterations) {
  graph::Graph g = gen::ErdosRenyi(300, 900, 8);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, 500, 10);
  auto g1 = generator.Generate(state, 1);
  auto g2 = generator.Generate(state, 2);
  // Different iteration hashes shuffle the groups (almost surely).
  EXPECT_NE(g1, g2);
}

// -------------------------------------------------------------- pruning
TEST(Pruning, Step1RemovesEdgeFreeSupernodes) {
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 1}, {2, 3}});
  summary::SummaryGraph s(4);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, m, +1);       // encodes edge (0,1)
  s.AddEdge(2, 3, +1);
  SupernodeId useless = s.Merge(2, 3);  // no incident edges
  (void)useless;
  uint64_t before = s.Cost();
  PruneOptions opt;
  opt.enable_step2 = opt.enable_step3 = false;
  PruneAblation ablation = PruneSummary(&s, g, opt);
  EXPECT_EQ(ablation.stage[0].cost, before);
  EXPECT_LT(s.Cost(), before);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_TRUE(s.forest().IsRoot(2));
}

TEST(Pruning, Step2PushesSingleEdgeDown) {
  // Root {0,1} with a single edge to node 2 dissolves; the edge reattaches
  // to both children, saving |H| = 2 and paying one extra edge.
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 2}, {1, 2}});
  summary::SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, 2, +1);
  EXPECT_EQ(s.Cost(), 3u);
  PruneOptions opt;
  opt.enable_step1 = opt.enable_step3 = false;
  PruneSummary(&s, g, opt);
  EXPECT_EQ(s.Cost(), 2u);
  EXPECT_FALSE(s.forest().IsAlive(m));
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
}

TEST(Pruning, Step2SignCancellation) {
  // p-edge ({0,1}, 2) with existing n-edge (1, 2): pushing down cancels.
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 2}});
  summary::SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, 2, +1);
  s.AddEdge(1, 2, -1);
  ASSERT_TRUE(summary::VerifyLossless(g, s).ok());
  PruneOptions opt;
  opt.enable_step1 = opt.enable_step3 = false;
  PruneSummary(&s, g, opt);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_EQ(s.Cost(), 1u);  // single p-edge (0, 2)
}

TEST(Pruning, Step3FlattensWhenCheaper) {
  // A wasteful hierarchical encoding of a single edge collapses to flat.
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 2}, {1, 2}, {0, 3}, {1, 3}});
  // Encode each edge separately but hang 0,1 under a pointless supernode
  // that carries a self-loop-free structure the flat model beats.
  summary::SummaryGraph s(g);
  summary::SummaryGraph flat_ref(g);
  SupernodeId m = s.Merge(0, 1);
  // Re-encode {0,1} x {2}: single edge (m, 2); same for {3}.
  s.RemoveEdge(0, 2);
  s.RemoveEdge(1, 2);
  s.AddEdge(m, 2, +1);
  s.RemoveEdge(0, 3);
  s.RemoveEdge(1, 3);
  s.AddEdge(m, 3, +1);
  EXPECT_EQ(s.Cost(), 4u);  // 2 p + 2 h
  ASSERT_TRUE(summary::VerifyLossless(g, s).ok());
  PruneOptions opt;
  PruneAblation ablation = PruneSummary(&s, g, opt);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_LE(s.Cost(), 4u);
  EXPECT_LE(ablation.stage[3].cost, ablation.stage[0].cost);
}

TEST(Pruning, SubstepsMonotonicallyImprove) {
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 3;
  opt_gen.depth = 2;
  opt_gen.leaf_size = 7;
  opt_gen.leaf_density = 0.9;
  opt_gen.pair_link_prob = 0.5;
  opt_gen.pair_link_decay = 0.5;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 3);
  SluggerConfig config;
  config.iterations = 10;
  config.pruning_rounds = 1;
  SluggerResult r = Summarize(g, config);
  const PruneAblation& ab = r.prune_ablation;
  EXPECT_LE(ab.stage[1].cost, ab.stage[0].cost);
  EXPECT_LE(ab.stage[2].cost, ab.stage[1].cost);
  EXPECT_LE(ab.stage[3].cost, ab.stage[2].cost);
  EXPECT_LE(ab.stage[3].max_height, ab.stage[0].max_height);
  EXPECT_LE(ab.stage[3].avg_leaf_depth, ab.stage[0].avg_leaf_depth + 1e-9);
}

// ---------------------------------------------------------------- driver
TEST(Driver, ThresholdSchedule) {
  EXPECT_DOUBLE_EQ(MergingThreshold(1, 20), 0.5);
  EXPECT_DOUBLE_EQ(MergingThreshold(2, 20), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(MergingThreshold(19, 20), 0.05);
  EXPECT_DOUBLE_EQ(MergingThreshold(20, 20), 0.0);
  EXPECT_DOUBLE_EQ(MergingThreshold(1, 1), 0.0);
}

TEST(Driver, DeterministicForSeed) {
  graph::Graph g = gen::Caveman(6, 12, 0.1, 2);
  SluggerConfig config;
  config.iterations = 8;
  config.seed = 42;
  SluggerResult a = Summarize(g, config);
  SluggerResult b = Summarize(g, config);
  EXPECT_EQ(a.stats.cost, b.stats.cost);
  EXPECT_EQ(a.merges, b.merges);
  config.seed = 43;
  SluggerResult c = Summarize(g, config);
  // Different seeds usually explore different merges (not guaranteed, but
  // overwhelmingly likely on this graph).
  EXPECT_TRUE(c.stats.cost != a.stats.cost || c.merges != a.merges ||
              c.evaluations != a.evaluations);
}

/// 64-bit FNV-1a of a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Driver, OutputFingerprintsArePinned) {
  // Exact outputs of both engines on a fixed matrix: cost, merges,
  // evaluations and a hash of the serialized summary. A speedup must keep
  // every value; a change that alters outputs on purpose refreshes them.
  // `bounded` (partners the saving bound cut) pins the bound's strength:
  // a looser bound fails here; a tighter one refreshes it.
  const std::vector<graph::Graph> graphs = PinnedGraphs();
  struct Pin {
    size_t graph;
    uint32_t max_height;
    uint32_t threads;
    uint64_t cost;
    uint64_t merges;
    uint64_t evaluations;
    uint64_t bounded;
    uint64_t hash;
  };
  const Pin pins[] = {
      {0, 0, 1, 14935, 318, 347731, 343678, 0x702cf207f945178f},
      {0, 0, 2, 14778, 419, 348245, 342348, 0x203e80955f894675},
      {0, 3, 1, 14940, 313, 347080, 343096, 0xa7366d7decc201ad},
      {0, 3, 2, 14789, 414, 347763, 341979, 0xb986b5e1222fbec6},
      {1, 0, 1, 7997, 84, 44223, 44117, 0xf4035d0554406c0e},
      {1, 0, 2, 7997, 83, 44296, 44123, 0x3f3ca92c4ba40274},
      {1, 3, 1, 7997, 84, 44223, 44117, 0xf4035d0554406c0e},
      {1, 3, 2, 7997, 83, 44296, 44123, 0x3f3ca92c4ba40274},
      {2, 0, 1, 1860, 482, 16021, 12350, 0x992aefda32321a1d},
      {2, 0, 2, 1874, 482, 16292, 12205, 0x92f22339c1947546},
      {2, 3, 1, 1962, 449, 14811, 11553, 0xc5f89be546c7e1a3},
      {2, 3, 2, 1960, 454, 15068, 11493, 0xb817fbd3b12f9ec3},
      {3, 0, 1, 378, 174, 5489, 4834, 0x744edcf628ee257f},
      {3, 0, 2, 379, 177, 5631, 4769, 0x9ce3f69072ff650b},
      {3, 3, 1, 428, 167, 4867, 4270, 0x86858c8be35c4659},
      {3, 3, 2, 436, 165, 4908, 4207, 0x4b7b4b98041a4b70},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "graph " << pin.graph << " Hb " << pin.max_height
                 << " threads " << pin.threads);
    SluggerConfig config;
    config.iterations = 10;
    config.seed = 7;
    config.max_height = pin.max_height;
    config.num_threads = pin.threads;
    SluggerResult r = Summarize(graphs[pin.graph], config);
    EXPECT_EQ(r.stats.cost, pin.cost);
    EXPECT_EQ(r.merges, pin.merges);
    EXPECT_EQ(r.evaluations, pin.evaluations);
    EXPECT_EQ(r.bounded, pin.bounded);
    EXPECT_EQ(Fnv1a(summary::SerializeSummary(r.summary)), pin.hash);
  }
}

TEST(Driver, SkippedFirstRoundBooksWhatItsScansWould) {
  // The first round (θ = 1/2, nothing merged yet) is skipped, but it still
  // books every pair of every group as evaluated and every pair the bound
  // cuts as bounded. Stop each run after that round and compare with
  // scanning the same groups. Zero shingle levels divide the roots at
  // random, so isolated nodes share groups and their pairs (valid, saving
  // −∞, so not bounded) are counted too.
  const graph::Graph g = gen::ErdosRenyi(400, 300, 9);
  for (uint32_t levels : {0u, 10u}) {
    for (uint32_t threads : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << "levels " << levels << " threads " << threads);
      SluggerConfig config;
      config.iterations = 10;
      config.seed = 5;
      config.max_group_size = 32;
      config.shingle_levels = levels;
      config.num_threads = threads;
      CancelToken stop;
      SummarizeHooks hooks;
      hooks.cancel = &stop;
      hooks.progress = [&](const ProgressEvent& e) {
        if (e.iteration == 1) stop.Cancel();
      };
      const SluggerResult r = Summarize(g, config, hooks);
      ASSERT_EQ(r.iterations_completed, 1u);
      ASSERT_EQ(r.merges, 0u);

      SluggerState state(g);
      MemoTable memo;
      MergePlanner planner(&state, &memo);
      CandidateGenerator generator(g, config.seed, config.max_group_size,
                                   config.shingle_levels);
      const double theta = MergingThreshold(1, config.iterations);
      MergePlan plan;
      uint64_t evaluations = 0;
      uint64_t bounded = 0;
      for (const std::vector<SupernodeId>& q : generator.Generate(state, 1)) {
        for (size_t i = 0; i < q.size(); ++i) {
          planner.BeginScan(q[i]);
          for (size_t j = i + 1; j < q.size(); ++j) {
            planner.EvaluatePartner(
                q[j], theta, -std::numeric_limits<double>::infinity(), &plan);
            ++evaluations;
            bounded += !plan.valid;
          }
        }
      }
      EXPECT_EQ(r.evaluations, evaluations);
      EXPECT_EQ(r.bounded, bounded);
      if (levels == 0) {
        EXPECT_LT(bounded, evaluations);  // edgeless pairs share groups
      }
    }
  }
}

TEST(Driver, MoreIterationsNeverHurtMuch) {
  graph::Graph g = gen::Caveman(8, 16, 0.08, 5);
  SluggerConfig c1;
  c1.iterations = 1;
  c1.seed = 7;
  SluggerConfig c20 = c1;
  c20.iterations = 20;
  uint64_t cost1 = Summarize(g, c1).stats.cost;
  uint64_t cost20 = Summarize(g, c20).stats.cost;
  EXPECT_LE(cost20, cost1 + cost1 / 10);  // Table III trend
}

TEST(Driver, HeightBoundRespected) {
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 4;
  opt_gen.depth = 3;
  opt_gen.leaf_size = 6;
  opt_gen.leaf_density = 0.95;
  opt_gen.pair_link_prob = 0.6;
  opt_gen.pair_link_decay = 0.4;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 5);
  for (uint32_t hb : {2u, 5u, 7u}) {
    SluggerConfig config;
    config.iterations = 10;
    config.max_height = hb;
    config.pruning_rounds = 0;  // pruning only lowers heights
    SluggerResult r = Summarize(g, config);
    EXPECT_LE(r.stats.max_height, hb) << "Hb = " << hb;
    EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
  }
}

TEST(Driver, HeightBoundTradeoff) {
  // Table V: looser height bounds compress at least as well (statistically;
  // we allow slack for heuristic noise).
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 4;
  opt_gen.depth = 3;
  opt_gen.leaf_size = 8;
  opt_gen.leaf_density = 0.9;
  opt_gen.pair_link_prob = 0.6;
  opt_gen.pair_link_decay = 0.35;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 11);
  SluggerConfig tight;
  tight.iterations = 12;
  tight.max_height = 2;
  SluggerConfig loose = tight;
  loose.max_height = 0;
  uint64_t cost_tight = Summarize(g, tight).stats.cost;
  uint64_t cost_loose = Summarize(g, loose).stats.cost;
  EXPECT_LE(cost_loose, cost_tight + cost_tight / 8);
}

TEST(Driver, PruningDisabledKeepsLosslessness) {
  graph::Graph g = gen::ErdosRenyi(100, 350, 2);
  SluggerConfig config;
  config.iterations = 6;
  config.pruning_rounds = 0;
  SluggerResult r = Summarize(g, config);
  EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
}

TEST(Driver, EmptyAndTinyGraphs) {
  graph::Graph empty = graph::Graph::FromEdges(0, {});
  SluggerResult r0 = Summarize(empty, {});
  EXPECT_EQ(r0.stats.cost, 0u);

  graph::Graph isolated = graph::Graph::FromEdges(5, {});
  SluggerResult r1 = Summarize(isolated, {});
  EXPECT_EQ(r1.stats.cost, 0u);
  EXPECT_TRUE(summary::VerifyLossless(isolated, r1.summary).ok());

  graph::Graph one_edge = graph::Graph::FromEdges(2, {{0, 1}});
  SluggerResult r2 = Summarize(one_edge, {});
  EXPECT_TRUE(summary::VerifyLossless(one_edge, r2.summary).ok());
  EXPECT_LE(r2.stats.cost, 1u);
}

}  // namespace
}  // namespace slugger::core
