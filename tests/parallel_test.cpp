// Tests for the parallel phases: merge-engine determinism (same seed +
// same thread count -> byte-identical serialized summary; the round-based
// engine byte-identical across every thread count >= 2), pruning
// determinism (byte-identical summaries with no pool and at pool sizes 1,
// 2, 8), Decode/VerifyLossless returning the input graph at every pool
// size on RMAT/ER and 0-/1-node inputs, losslessness and aggregate
// invariants, plus thread-pool unit coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/pruning.hpp"
#include "core/slugger.hpp"
#include "gen/generators.hpp"
#include "summary/decode.hpp"
#include "summary/serialize.hpp"
#include "summary/verify.hpp"
#include "util/thread_pool.hpp"

namespace slugger {
namespace {

// ------------------------------------------------------------ thread pool
TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  pool.Run(kTasks, [&](uint64_t task, unsigned worker) {
    ASSERT_LT(worker, pool.size());
    hits[task].fetch_add(1);
  });
  for (uint64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, ParallelForCoversRangeInChunks) {
  ThreadPool pool(3);
  constexpr uint64_t kN = 12345;
  std::vector<uint8_t> seen(kN, 0);
  pool.ParallelFor(kN, 7, [&](uint64_t begin, uint64_t end, unsigned) {
    ASSERT_LE(end, kN);
    ASSERT_LE(end - begin, 7u);
    for (uint64_t i = begin; i < end; ++i) seen[i] = 1;  // disjoint chunks
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0ull), kN);
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  uint64_t sum = 0;
  pool.Run(100, [&](uint64_t task, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    sum += task;  // no other thread may touch this
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.Run(20, [&](uint64_t, unsigned) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.Run(0, [&](uint64_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
  pool.ParallelFor(0, 16, [&](uint64_t, uint64_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
}

// --------------------------------------------------------- engine fixtures
graph::Graph RmatInput() { return gen::RMat(10, 4000, 0.57, 0.19, 0.19, 7); }
graph::Graph ErdosRenyiInput() { return gen::ErdosRenyi(800, 3200, 11); }

core::SluggerConfig ParallelConfig(uint32_t threads) {
  core::SluggerConfig config;
  config.iterations = 8;
  config.seed = 42;
  config.num_threads = threads;
  config.check_aggregates = true;
  return config;
}

std::string SummaryBytes(const graph::Graph& g,
                         const core::SluggerConfig& config) {
  core::SluggerResult r = core::Summarize(g, config);
  EXPECT_TRUE(r.aggregates_valid);
  EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
  return summary::SerializeSummary(r.summary);
}

// ------------------------------------------------------------ determinism
TEST(ParallelEngine, SameSeedSameThreadsIsByteIdentical) {
  for (const graph::Graph& g : {RmatInput(), ErdosRenyiInput()}) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      core::SluggerConfig config = ParallelConfig(threads);
      std::string first = SummaryBytes(g, config);
      std::string second = SummaryBytes(g, config);
      EXPECT_EQ(first, second) << "threads = " << threads;
    }
  }
}

TEST(ParallelEngine, DeterministicModeIsThreadCountInvariant) {
  // The round-based engine commits in group order against per-round
  // snapshots, so its output does not depend on the worker count at all.
  for (const graph::Graph& g : {RmatInput(), ErdosRenyiInput()}) {
    core::SluggerConfig config = ParallelConfig(2);
    std::string two = SummaryBytes(g, config);
    config.num_threads = 4;
    std::string four = SummaryBytes(g, config);
    config.num_threads = 8;
    std::string eight = SummaryBytes(g, config);
    EXPECT_EQ(two, four);
    EXPECT_EQ(two, eight);
  }
}

// -------------------------------------------- losslessness and invariants
TEST(ParallelEngine, LosslessAndAggregatesAcrossThreadCounts) {
  for (const graph::Graph& g : {RmatInput(), ErdosRenyiInput()}) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      core::SluggerConfig config = ParallelConfig(threads);
      core::SluggerResult r = core::Summarize(g, config);
      EXPECT_EQ(r.threads_used, threads);
      EXPECT_TRUE(r.aggregates_valid) << "threads = " << threads;
      EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok())
          << "threads = " << threads;
      EXPECT_GT(r.merges, 0u);
    }
  }
}

TEST(ParallelEngine, AutoThreadCountWorks) {
  graph::Graph g = ErdosRenyiInput();
  core::SluggerConfig config = ParallelConfig(0);
  core::SluggerResult r = core::Summarize(g, config);
  EXPECT_GE(r.threads_used, 1u);
  EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
}

TEST(ParallelEngine, ParallelRunsCompressComparablyToSequential) {
  // The round engine explores slightly different merges than the
  // sequential path, but compression quality must stay in the same league.
  graph::Graph g = RmatInput();
  core::SluggerConfig seq = ParallelConfig(1);
  core::SluggerConfig par = ParallelConfig(8);
  uint64_t cost_seq = core::Summarize(g, seq).stats.cost;
  uint64_t cost_par = core::Summarize(g, par).stats.cost;
  EXPECT_LT(cost_par, g.num_edges());
  EXPECT_LE(cost_par, cost_seq + cost_seq / 4);
}

TEST(ParallelEngine, TinyGraphsSurviveAllEngines) {
  graph::Graph empty = graph::Graph::FromEdges(0, {});
  graph::Graph one_edge = graph::Graph::FromEdges(2, {{0, 1}});
  for (uint32_t threads : {1u, 2u}) {  // sequential, round-based
    core::SluggerConfig config = ParallelConfig(threads);
    core::SluggerResult r0 = core::Summarize(empty, config);
    EXPECT_EQ(r0.stats.cost, 0u);
    core::SluggerResult r1 = core::Summarize(one_edge, config);
    EXPECT_TRUE(summary::VerifyLossless(one_edge, r1.summary).ok());
  }
}

// ------------------------------------------------------ parallel pruning
TEST(ParallelPruning, ByteIdenticalAcrossPoolSizes) {
  for (const graph::Graph& g : {RmatInput(), ErdosRenyiInput()}) {
    core::SluggerConfig config = ParallelConfig(1);
    config.pruning_rounds = 0;  // keep the summary unpruned
    core::SluggerResult r = core::Summarize(g, config);
    const summary::SummaryGraph base = r.summary;

    // Pool size 0 means no pool: the substeps run inline.
    std::string reference;
    for (uint32_t pool_size : {0u, 1u, 2u, 8u}) {
      std::optional<ThreadPool> pool;
      summary::SummaryGraph pruned = base;
      core::PruneOptions popt;
      if (pool_size > 0) popt.pool = &pool.emplace(pool_size);
      core::PruneSummary(&pruned, g, popt);
      EXPECT_TRUE(summary::VerifyLossless(g, pruned).ok())
          << "pool = " << pool_size;
      std::string bytes = summary::SerializeSummary(pruned);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference) << "pool = " << pool_size;
      }
      EXPECT_LE(summary::ComputeStats(pruned).cost,
                summary::ComputeStats(base).cost);
    }
  }
}

TEST(ParallelPruning, AblationStagesStayMonotone) {
  graph::Graph g = ErdosRenyiInput();
  core::SluggerConfig config = ParallelConfig(1);
  config.pruning_rounds = 0;
  core::SluggerResult r = core::Summarize(g, config);
  ThreadPool pool(4);
  core::PruneOptions popt;
  popt.pool = &pool;
  summary::SummaryGraph pruned = r.summary;
  core::PruneAblation ab = core::PruneSummary(&pruned, g, popt);
  EXPECT_LE(ab.stage[1].cost, ab.stage[0].cost);
  EXPECT_LE(ab.stage[2].cost, ab.stage[1].cost);
  EXPECT_LE(ab.stage[3].cost, ab.stage[2].cost);
}

// ------------------------------------------------- parallel verify/decode
TEST(ParallelVerify, AgreesWithSequentialOnIntactSummaries) {
  // 0- and 1-leaf summaries must decode to an edgeless graph of the right
  // node count, like any other.
  for (const graph::Graph& g :
       {RmatInput(), ErdosRenyiInput(), graph::Graph::FromEdges(0, {}),
        graph::Graph::FromEdges(1, {})}) {
    core::SluggerConfig config = ParallelConfig(1);
    core::SluggerResult r = core::Summarize(g, config);
    EXPECT_TRUE(summary::Decode(r.summary) == g) << "no pool";
    for (uint32_t pool_size : {1u, 2u, 8u}) {
      ThreadPool pool(pool_size);
      EXPECT_TRUE(summary::Decode(r.summary, &pool) == g)
          << "pool = " << pool_size;
      EXPECT_TRUE(summary::VerifyLossless(g, r.summary, &pool).ok())
          << "pool = " << pool_size;
    }
  }
}

TEST(ParallelVerify, AgreesWithSequentialOnCorruptedSummaries) {
  graph::Graph g = ErdosRenyiInput();
  core::SluggerConfig config = ParallelConfig(1);
  core::SluggerResult r = core::Summarize(g, config);

  // Drop one non-self superedge: at least one subnode pair loses coverage,
  // so every verifier must reject the summary.
  SupernodeId da = kInvalidId, db = kInvalidId;
  r.summary.ForEachEdge([&](SupernodeId a, SupernodeId b, EdgeSign) {
    if (da == kInvalidId && a != b) {
      da = a;
      db = b;
    }
  });
  ASSERT_NE(da, kInvalidId);
  r.summary.RemoveEdge(da, db);

  EXPECT_FALSE(summary::VerifyLossless(g, r.summary).ok());
  for (uint32_t pool_size : {2u, 8u}) {
    ThreadPool pool(pool_size);
    EXPECT_FALSE(summary::VerifyLossless(g, r.summary, &pool).ok())
        << "pool = " << pool_size;
  }
}

TEST(ParallelVerify, NodeCountMismatchIsReportedWithAnyPool) {
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 1}});
  summary::SummaryGraph wrong(2);
  ThreadPool pool(2);
  EXPECT_FALSE(summary::VerifyLossless(g, wrong).ok());
  EXPECT_FALSE(summary::VerifyLossless(g, wrong, &pool).ok());
}

}  // namespace
}  // namespace slugger
