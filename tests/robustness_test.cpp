// Robustness and failure-injection tests: malformed inputs must produce
// Status errors (never crashes or silent corruption), and long random
// operation sequences must keep every invariant intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "baselines/flat_model.hpp"
#include "core/merge_planner.hpp"
#include "core/pruning.hpp"
#include "core/slugger.hpp"
#include "core/slugger_state.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"
#include "summary/decode.hpp"
#include "summary/neighbor_query.hpp"
#include "summary/serialize.hpp"
#include "summary/verify.hpp"
#include "util/random.hpp"

namespace slugger {
namespace {

// ------------------------------------------------ deserialization fuzz
TEST(Fuzz, DeserializeSummaryNeverCrashesOnRandomBytes) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    size_t len = rng.Below(200);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Below(256)));
    }
    auto result = summary::DeserializeSummary(bytes);
    // Random bytes essentially never form a valid summary; the point is
    // that the call returns instead of crashing or allocating wildly.
    if (result.ok()) {
      EXPECT_LE(result.value().num_leaves(), 0xFFFFFFFEu);
    }
  }
}

TEST(Fuzz, DeserializeMutatedValidBuffer) {
  // Start from a valid buffer and apply random mutations; every outcome
  // must be either a clean error or a structurally valid summary.
  graph::Graph g = gen::Caveman(3, 6, 0.1, 1);
  summary::SummaryGraph s(g);
  s.Merge(0, 1);
  std::string base = summary::SerializeSummary(s);

  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Below(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Below(8)));
    }
    auto result = summary::DeserializeSummary(mutated);
    if (result.ok()) {
      // If it parsed, decoding must not crash either.
      graph::Graph decoded = summary::Decode(result.value());
      EXPECT_LE(decoded.num_nodes(), 0xFFFFFFFEu);
    }
  }
}

TEST(Fuzz, GraphBinaryLoaderOnRandomBytes) {
  Rng rng(5);
  std::string path = "/tmp/slugger_fuzz_graph.bin";
  for (int trial = 0; trial < 100; ++trial) {
    size_t len = rng.Below(300);
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Below(256)));
    }
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    auto result = graph::LoadBinary(path);
    (void)result;  // must simply not crash; usually a Corruption status
  }
  std::remove(path.c_str());
}

// --------------------------------------------- long-sequence invariants
TEST(Invariants, RandomMergeSequencesKeepAggregatesAndSemantics) {
  // Hundreds of random planner-driven merges with full aggregate
  // validation and losslessness checks along the way.
  for (uint64_t seed : {11ull, 22ull}) {
    graph::Graph g = gen::DuplicationDivergence(120, 2, 0.4, 0.7, seed);
    core::SluggerState state(g);
    core::MemoTable memo;
    core::MergePlanner planner(&state, &memo);
    Rng rng(seed);
    int checked = 0;
    for (int step = 0; step < 60 && state.roots().size() > 2; ++step) {
      SupernodeId a = state.roots()[rng.Below(state.roots().size())];
      SupernodeId b = state.roots()[rng.Below(state.roots().size())];
      if (a == b) continue;
      core::MergePlan plan = planner.Evaluate(a, b);
      ASSERT_TRUE(plan.valid);
      planner.Commit(plan);
      if (step % 10 == 0) {
        ASSERT_TRUE(state.ValidateAggregates()) << "seed " << seed;
        ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok())
            << "seed " << seed << " step " << step;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0);
  }
}

TEST(Invariants, PruningAfterArbitraryMergesStaysLossless) {
  // Even deliberately bad merge sequences (random pairs, not greedy) must
  // survive pruning losslessly.
  for (uint64_t seed : {5ull, 9ull, 13ull}) {
    graph::Graph g = gen::ErdosRenyi(80, 300, seed);
    core::SluggerState state(g);
    core::MemoTable memo;
    core::MergePlanner planner(&state, &memo);
    Rng rng(seed);
    for (int step = 0; step < 25; ++step) {
      SupernodeId a = state.roots()[rng.Below(state.roots().size())];
      SupernodeId b = state.roots()[rng.Below(state.roots().size())];
      if (a == b) continue;
      planner.Commit(planner.Evaluate(a, b));
    }
    core::PruneOptions opt;
    opt.rounds = 3;
    core::PruneSummary(&state.summary(), g, opt);
    ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok())
        << "seed " << seed;
  }
}

TEST(Invariants, NeighborQueryMatchesDecodeOnRealSummaries) {
  // Partial decompression equals full decode on genuine SLUGGER outputs
  // (hand-built summaries are covered in summary_model_test).
  for (uint64_t seed : {3ull, 4ull}) {
    graph::Graph g = gen::Affiliation(200, 80, 3, 7, seed);
    core::SluggerConfig config;
    config.iterations = 10;
    config.seed = seed;
    core::SluggerResult r = core::Summarize(g, config);
    graph::Graph decoded = summary::Decode(r.summary);
    ASSERT_EQ(decoded, g);
    const summary::CoverLayout layout(r.summary);
    summary::QueryScratch scratch;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<NodeId> got = summary::QueryNeighbors(layout, u, &scratch);
      std::sort(got.begin(), got.end());
      auto want = g.Neighbors(u);
      ASSERT_EQ(got.size(), want.size()) << "node " << u;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    }
  }
}

TEST(Invariants, SummaryRoundTripAfterFullPipeline) {
  // Summarize -> serialize -> reload -> decode == input, across configs.
  graph::Graph g = gen::WattsStrogatz(150, 6, 0.15, 21);
  for (uint32_t hb : {0u, 3u}) {
    core::SluggerConfig config;
    config.iterations = 8;
    config.max_height = hb;
    core::SluggerResult r = core::Summarize(g, config);
    std::string buffer = summary::SerializeSummary(r.summary);
    auto reloaded = summary::DeserializeSummary(buffer);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_TRUE(summary::VerifyLossless(g, reloaded.value()).ok());
    EXPECT_EQ(reloaded.value().Cost(), r.summary.Cost());
  }
}

// ------------------------------------------------------- flat-model fuzz
TEST(Fuzz, FlatEncodeDecodeRandomPartitions) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    graph::Graph g = gen::ErdosRenyi(60, 50 + rng.Below(300), trial);
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(12));
    std::vector<uint32_t> groups(g.num_nodes());
    for (auto& v : groups) v = static_cast<uint32_t>(rng.Below(k));
    baselines::FlatSummary s = baselines::EncodePartition(g, groups, k);
    ASSERT_EQ(baselines::DecodeFlat(s), g) << "trial " << trial;
    // Optimal encode can never exceed the trivial all-corrections cost.
    EXPECT_LE(s.Cost(), g.num_edges());
  }
}

}  // namespace
}  // namespace slugger
