// Tests for the encoding universes, the exact solver, and the memo table.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/encoding_solver.hpp"
#include "core/encoding_universe.hpp"
#include "core/memo_table.hpp"
#include "util/random.hpp"

namespace slugger::core {
namespace {

// ------------------------------------------------------------ universes
TEST(Universe, Case1FullShapeStructure) {
  const Universe& u = GetCase1Universe(SideShape::kInt00, SideShape::kInt00);
  EXPECT_EQ(u.kind, Universe::Kind::kCase1);
  // All 4 units present and non-singleton: all 10 classes active.
  EXPECT_EQ(u.active_mask, 0x3FF);
  // (M, M) must be a legal slot covering everything.
  int mm = u.SlotIdFor(kM, kM);
  ASSERT_GE(mm, 0);
  EXPECT_EQ(u.slots[mm].cover, 0x3FF);
  // Nested pairs are not slots.
  EXPECT_LT(u.SlotIdFor(kM, kA), 0);
  EXPECT_LT(u.SlotIdFor(kA, kA1), 0);
  EXPECT_LT(u.SlotIdFor(kM, kB2), 0);
  // Cross-side and sibling pairs are slots.
  EXPECT_GE(u.SlotIdFor(kA, kB), 0);
  EXPECT_GE(u.SlotIdFor(kA1, kB2), 0);
  EXPECT_GE(u.SlotIdFor(kA1, kA2), 0);
  EXPECT_GE(u.SlotIdFor(kA, kA), 0);  // self-loops allowed
}

TEST(Universe, Case1LeafShapes) {
  const Universe& u = GetCase1Universe(SideShape::kLeaf, SideShape::kLeaf);
  // Units: A (singleton), B (singleton): only the cross class is active.
  EXPECT_EQ(u.active_mask, 1u << Case1ClassIndex(0, 2));
  // Slots: (A,B) and (M,M) at least; self-loops on singletons are useless.
  EXPECT_GE(u.SlotIdFor(kA, kB), 0);
  EXPECT_GE(u.SlotIdFor(kM, kM), 0);
  EXPECT_LT(u.SlotIdFor(kA, kA), 0);
  EXPECT_LT(u.SlotIdFor(kA1, kA2), 0);  // absent nodes
}

TEST(Universe, Case1SingletonChildClasses) {
  // A internal with both children singleton: self classes of units 0,1
  // are empty; the sibling class (0,1) is active.
  const Universe& u = GetCase1Universe(SideShape::kInt11, SideShape::kLeaf);
  EXPECT_FALSE(u.active_mask & (1u << Case1ClassIndex(0, 0)));
  EXPECT_FALSE(u.active_mask & (1u << Case1ClassIndex(1, 1)));
  EXPECT_TRUE(u.active_mask & (1u << Case1ClassIndex(0, 1)));
  EXPECT_TRUE(u.active_mask & (1u << Case1ClassIndex(0, 2)));
}

TEST(Universe, Case2Structure) {
  const Universe& u = GetCase2Universe(true, true, true);
  EXPECT_EQ(u.kind, Universe::Kind::kCase2);
  EXPECT_EQ(u.active_mask, 0xFF);  // 4 m-units x 2 c-units
  // 7 m-side nodes x 3 c-side nodes, all legal.
  EXPECT_EQ(u.slots.size(), 21u);
  int mc = u.SlotIdFor(kM, kC);
  ASSERT_GE(mc, 0);
  EXPECT_EQ(u.slots[mc].cover, 0xFF);
  int a1c2 = u.SlotIdFor(kA1, kC2);
  ASSERT_GE(a1c2, 0);
  EXPECT_EQ(u.slots[a1c2].cover,
            1u << Case2ClassIndex(0, 1));
}

TEST(Universe, Case2LeafC) {
  const Universe& u = GetCase2Universe(false, false, false);
  // m-units: A, B; c-unit: C -> 2 active classes.
  EXPECT_EQ(u.active_mask,
            (1u << Case2ClassIndex(0, 0)) | (1u << Case2ClassIndex(2, 0)));
  // Nodes: M, A, B on the m-side; C on the c-side -> 3 slots.
  EXPECT_EQ(u.slots.size(), 3u);
}

TEST(Universe, CodesAreUnique) {
  std::set<uint8_t> codes;
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      EXPECT_TRUE(codes
                      .insert(GetCase1Universe(static_cast<SideShape>(a),
                                               static_cast<SideShape>(b))
                                  .code)
                      .second);
    }
  }
  for (int bits = 0; bits < 8; ++bits) {
    EXPECT_TRUE(
        codes.insert(GetCase2Universe(bits & 4, bits & 2, bits & 1).code)
            .second);
  }
}

// --------------------------------------------------------------- solver
/// Applies a solved encoding and checks it reproduces `target` exactly on
/// active classes.
void ExpectCoverageMatches(const Universe& u, const SolvedEncoding& enc,
                           const int8_t* target) {
  ASSERT_TRUE(enc.feasible);
  int sum[16] = {0};
  for (auto [slot, sign] : enc.edges) {
    for (int c = 0; c < u.num_classes; ++c) {
      if (u.slots[slot].cover >> c & 1) sum[c] += sign;
    }
  }
  for (int c = 0; c < u.num_classes; ++c) {
    if (u.active_mask >> c & 1) {
      EXPECT_EQ(sum[c], target[c]) << "class " << c;
    }
  }
}

TEST(Solver, ZeroTargetIsEmpty) {
  const Universe& u = GetCase1Universe(SideShape::kInt00, SideShape::kInt00);
  int8_t target[16] = {0};
  SolvedEncoding enc = SolveMinimumEncoding(u, target);
  ASSERT_TRUE(enc.feasible);
  EXPECT_EQ(enc.cost(), 0);
}

TEST(Solver, AllOnesUsesSingleSelfLoop) {
  // Target 1 on every class: the (M, M) self-loop alone covers it.
  const Universe& u = GetCase1Universe(SideShape::kInt00, SideShape::kInt00);
  int8_t target[16];
  std::memset(target, 0, sizeof(target));
  for (int c = 0; c < 10; ++c) target[c] = 1;
  SolvedEncoding enc = SolveMinimumEncoding(u, target);
  ASSERT_TRUE(enc.feasible);
  EXPECT_EQ(enc.cost(), 1);
  EXPECT_EQ(u.slots[enc.edges[0].first].p, kM);
  ExpectCoverageMatches(u, enc, target);
}

TEST(Solver, AllButOneUsesNegativeEdge) {
  // All classes 1 except one: (M,M) plus one n-edge beats 9 identity edges.
  const Universe& u = GetCase1Universe(SideShape::kInt00, SideShape::kInt00);
  int8_t target[16];
  std::memset(target, 0, sizeof(target));
  for (int c = 0; c < 10; ++c) target[c] = 1;
  target[Case1ClassIndex(0, 2)] = 0;  // drop class (A1, B1)
  SolvedEncoding enc = SolveMinimumEncoding(u, target);
  ASSERT_TRUE(enc.feasible);
  EXPECT_EQ(enc.cost(), 2);
  ExpectCoverageMatches(u, enc, target);
}

TEST(Solver, CrossSideBipartite) {
  // All 4 cross classes set, within-side classes zero: one (A, B) edge.
  const Universe& u = GetCase1Universe(SideShape::kInt00, SideShape::kInt00);
  int8_t target[16];
  std::memset(target, 0, sizeof(target));
  for (int i : {0, 1}) {
    for (int j : {2, 3}) target[Case1ClassIndex(i, j)] = 1;
  }
  SolvedEncoding enc = SolveMinimumEncoding(u, target);
  ASSERT_TRUE(enc.feasible);
  EXPECT_EQ(enc.cost(), 1);
  const Slot& s = u.slots[enc.edges[0].first];
  EXPECT_EQ(static_cast<int>(s.p), kA);
  EXPECT_EQ(static_cast<int>(s.q), kB);
}

TEST(Solver, MatchesBruteForceRandomTargets) {
  // Exhaustive cross-check on random {0,1} targets across several shapes.
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const Universe& u = GetCase1Universe(
        static_cast<SideShape>(rng.Below(5)),
        static_cast<SideShape>(rng.Below(5)));
    int8_t target[16];
    std::memset(target, 0, sizeof(target));
    for (int c = 0; c < u.num_classes; ++c) {
      if (u.active_mask >> c & 1) {
        target[c] = static_cast<int8_t>(rng.Below(2));
      }
    }
    SolvedEncoding fast = SolveMinimumEncoding(u, target);
    SolvedEncoding slow = SolveByBruteForce(u, target, 4);
    ASSERT_TRUE(fast.feasible);
    if (slow.feasible) {
      EXPECT_EQ(fast.cost(), slow.cost()) << "trial " << trial;
    } else {
      EXPECT_GT(fast.cost(), 4);
    }
    ExpectCoverageMatches(u, fast, target);
  }
}

TEST(Solver, Case2MatchesBruteForce) {
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    const Universe& u =
        GetCase2Universe(rng.Chance(0.5), rng.Chance(0.5), rng.Chance(0.5));
    int8_t target[16];
    std::memset(target, 0, sizeof(target));
    for (int c = 0; c < u.num_classes; ++c) {
      if (u.active_mask >> c & 1) {
        target[c] = static_cast<int8_t>(rng.Below(2));
      }
    }
    SolvedEncoding fast = SolveMinimumEncoding(u, target);
    SolvedEncoding slow = SolveByBruteForce(u, target, 4);
    ASSERT_TRUE(fast.feasible);
    if (slow.feasible) {
      EXPECT_EQ(fast.cost(), slow.cost()) << "trial " << trial;
    }
    ExpectCoverageMatches(u, fast, target);
  }
}

TEST(Solver, HandlesNegativeTargets) {
  // Re-encoding can demand net negative coverage on a class.
  const Universe& u = GetCase2Universe(true, false, false);
  int8_t target[16];
  std::memset(target, 0, sizeof(target));
  target[Case2ClassIndex(0, 0)] = -1;
  SolvedEncoding enc = SolveMinimumEncoding(u, target);
  ASSERT_TRUE(enc.feasible);
  EXPECT_EQ(enc.cost(), 1);
  EXPECT_EQ(enc.edges[0].second, -1);
  ExpectCoverageMatches(u, enc, target);
}

// ----------------------------------------------------------------- memo
TEST(MemoTable, CachesSolutions) {
  MemoTable table;
  const Universe& u = GetCase1Universe(SideShape::kLeaf, SideShape::kLeaf);
  int8_t target[16] = {0};
  target[Case1ClassIndex(0, 2)] = 1;
  const SolvedEncoding& first = table.Solve(u, target);
  EXPECT_TRUE(first.feasible);
  EXPECT_EQ(first.cost(), 1);
  size_t count = table.entry_count();
  table.Solve(u, target);
  EXPECT_EQ(table.entry_count(), count);  // cache hit
}

TEST(MemoTable, WarmUpEnumeratesAllBinaryTargets) {
  MemoTable table;
  size_t added = table.WarmUp();
  // 25 case-1 shapes with up to 2^10 targets + 8 case-2 shapes with up to
  // 2^8 targets; shared keys reduce the raw sum.
  EXPECT_GT(added, 5000u);
  EXPECT_GT(table.ApproxBytes(), 10000u);
  // The paper reports the memoized table at roughly 56 KB; ours should be
  // the same order of magnitude (well under 10 MB).
  EXPECT_LT(table.ApproxBytes(), 10u << 20);
}

}  // namespace
}  // namespace slugger::core
