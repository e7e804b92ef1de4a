// Tests for the service-grade facade (slugger::Engine +
// slugger::CompressedGraph): option validation returns InvalidArgument
// instead of asserting, the progress observer fires exactly `iterations`
// times under both merge engines, cooperative cancellation still yields a
// lossless summary, the engine's evaluation counters advance, concurrent
// Neighbors()/Degree() readers with private scratches agree with the
// sequential answers (run under TSan in CI), and summaries round-trip
// through slugger::storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "storage/storage.hpp"

namespace slugger {
namespace {

graph::Graph TestGraph(uint64_t seed = 3) {
  return gen::ErdosRenyi(500, 2500, seed);
}

/// The thread counts that pick the two merge engines (1: sequential,
/// 2: round-based); every facade behavior must hold for both.
const uint32_t kEngineThreads[] = {1, 2};

EngineOptions OptionsFor(uint32_t threads, uint32_t iterations = 6) {
  EngineOptions options;
  options.config.iterations = iterations;
  options.config.seed = 7;
  options.config.num_threads = threads;
  return options;
}

// ------------------------------------------------------------ validation
TEST(EngineOptions, DefaultOptionsAreValid) {
  EXPECT_TRUE(EngineOptions{}.Validate().ok());
}

TEST(EngineOptions, ZeroIterationsIsInvalidArgument) {
  EngineOptions options;
  options.config.iterations = 0;
  Status s = options.Validate();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(EngineOptions, TinyGroupSizeIsInvalidArgument) {
  EngineOptions options;
  options.config.max_group_size = 1;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
  options.config.max_group_size = 0;
  EXPECT_EQ(options.Validate().code(), Status::Code::kInvalidArgument);
}

TEST(Engine, SummarizeReportsInvalidOptionsInsteadOfAsserting) {
  EngineOptions options;
  options.config.iterations = 0;
  Engine engine(options);
  EXPECT_FALSE(engine.status().ok());
  StatusOr<CompressedGraph> result = engine.Summarize(TestGraph());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  // The failure is stable across calls (the service can keep probing).
  EXPECT_EQ(engine.Summarize(TestGraph()).status().code(),
            Status::Code::kInvalidArgument);
}

// -------------------------------------------------------------- progress
TEST(Engine, ProgressFiresExactlyIterationsTimesUnderEveryEngine) {
  graph::Graph g = TestGraph();
  for (uint32_t threads : kEngineThreads) {
    SCOPED_TRACE(threads);
    constexpr uint32_t kIterations = 6;
    Engine engine(OptionsFor(threads, kIterations));
    std::vector<ProgressEvent> events;
    RunOptions run;
    run.progress = [&](const ProgressEvent& e) { events.push_back(e); };
    StatusOr<CompressedGraph> result = engine.Summarize(g, run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(events.size(), kIterations);
    for (uint32_t i = 0; i < kIterations; ++i) {
      EXPECT_EQ(events[i].iteration, i + 1);
      EXPECT_EQ(events[i].total_iterations, kIterations);
      EXPECT_GT(events[i].p_count + events[i].n_count + events[i].h_count,
                0u);
      EXPECT_GE(events[i].elapsed_seconds, 0.0);
      if (i > 0) {
        EXPECT_GE(events[i].merges, events[i - 1].merges);
        EXPECT_GE(events[i].elapsed_seconds, events[i - 1].elapsed_seconds);
      }
    }
    EXPECT_TRUE(result.value().Verify(g).ok());
  }
}

// ---------------------------------------------------------- cancellation
TEST(Engine, CancellationMidRunStillYieldsLosslessSummary) {
  graph::Graph g = TestGraph();
  for (uint32_t threads : kEngineThreads) {
    SCOPED_TRACE(threads);
    Engine engine(OptionsFor(threads, /*iterations=*/20));
    CancelToken cancel;
    uint32_t fired = 0;
    RunOptions run;
    run.cancel = &cancel;
    run.progress = [&](const ProgressEvent& e) {
      ++fired;
      if (e.iteration == 2) cancel.Cancel();
    };
    StatusOr<CompressedGraph> result = engine.Summarize(g, run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LT(fired, 20u);  // the run really did stop early
    EXPECT_TRUE(result.value().Verify(g).ok());
  }
}

TEST(Engine, PreCancelledTokenReturnsTheIdentitySummary) {
  graph::Graph g = TestGraph();
  for (uint32_t threads : kEngineThreads) {
    SCOPED_TRACE(threads);
    Engine engine(OptionsFor(threads));
    CancelToken cancel;
    cancel.Cancel();
    RunOptions run;
    run.cancel = &cancel;
    bool progressed = false;
    run.progress = [&](const ProgressEvent&) { progressed = true; };
    StatusOr<CompressedGraph> result = engine.Summarize(g, run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(progressed);
    // Even the never-merged initial state is a lossless representation.
    EXPECT_TRUE(result.value().Verify(g).ok());
  }
}

// ------------------------------------------------------- engine lifetime
TEST(Engine, PersistentPoolIsReusedAcrossRuns) {
  EngineOptions options;
  options.config.iterations = 4;
  options.config.num_threads = 2;
  Engine engine(options);
  EXPECT_EQ(engine.num_threads(), 2u);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    graph::Graph g = TestGraph(seed);
    StatusOr<CompressedGraph> result = engine.Summarize(g);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().Verify(g, engine.pool()).ok()) << seed;
  }
}

TEST(Engine, PublishesEvaluationCounters) {
  if (!obs::kEnabled) GTEST_SKIP() << "compiled with SLUGGER_OBS=OFF";
  const graph::Graph g = TestGraph();
  for (uint32_t threads : kEngineThreads) {
    Engine engine(OptionsFor(threads));
    ASSERT_TRUE(engine.Summarize(g).ok());  // registers the engine metrics
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const obs::Counter* evaluations =
        registry.GetCounter("slugger_engine_evaluations_total");
    const obs::Counter* bounded =
        registry.GetCounter("slugger_engine_bounded_evaluations_total");
    const uint64_t evaluations_before = evaluations->Value();
    const uint64_t bounded_before = bounded->Value();
    ASSERT_TRUE(engine.Summarize(g).ok());
    EXPECT_GT(evaluations->Value(), evaluations_before) << threads;
    EXPECT_GT(bounded->Value(), bounded_before) << threads;
  }
}

// ------------------------------------------------------------ query path
TEST(CompressedGraph, DegreeMatchesNeighborsSize) {
  graph::Graph g = TestGraph();
  Engine engine(OptionsFor(1));
  StatusOr<CompressedGraph> result = engine.Summarize(g);
  ASSERT_TRUE(result.ok());
  const CompressedGraph& cg = result.value();
  QueryScratch scratch;
  for (NodeId v = 0; v < cg.num_nodes(); ++v) {
    size_t expected = cg.Neighbors(v, &scratch).size();
    EXPECT_EQ(cg.Degree(v, &scratch), expected) << "node " << v;
    EXPECT_EQ(g.Degree(v), expected) << "node " << v;  // lossless queries
  }
}

TEST(CompressedGraph, ConcurrentNeighborsAgreeWithSequentialAnswers) {
  graph::Graph g = gen::ErdosRenyi(600, 2400, 11);
  Engine engine(OptionsFor(2, /*iterations=*/10));
  StatusOr<CompressedGraph> result = engine.Summarize(g);
  ASSERT_TRUE(result.ok());
  const CompressedGraph& cg = result.value();

  // Sequential ground truth, canonicalized.
  std::vector<std::vector<NodeId>> expected(cg.num_nodes());
  QueryScratch scratch;
  for (NodeId v = 0; v < cg.num_nodes(); ++v) {
    expected[v] = cg.Neighbors(v, &scratch);
    std::sort(expected[v].begin(), expected[v].end());
  }

  // 8 readers over the SAME CompressedGraph, each with its own scratch,
  // all querying every node. TSan-checked in CI.
  constexpr unsigned kReaders = 8;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryScratch local;
      // Stagger start nodes so readers collide on different summary
      // regions at any instant.
      NodeId start = static_cast<NodeId>(r * cg.num_nodes() / kReaders);
      for (NodeId i = 0; i < cg.num_nodes(); ++i) {
        NodeId v = (start + i) % cg.num_nodes();
        std::vector<NodeId> got = cg.Neighbors(v, &local);
        std::sort(got.begin(), got.end());
        if (got != expected[v]) mismatches.fetch_add(1);
        if (cg.Degree(v, &local) != expected[v].size()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------------------ round trip
TEST(CompressedGraph, SaveLoadRoundTripsThroughTheFacade) {
  graph::Graph g = TestGraph();
  Engine engine(OptionsFor(1));
  StatusOr<CompressedGraph> result = engine.Summarize(g);
  ASSERT_TRUE(result.ok());
  const CompressedGraph& cg = result.value();
  storage::SaveOptions save;
  save.format = storage::Format::kMonolithicV1;
  storage::OpenOptions open;
  open.mode = storage::OpenOptions::Mode::kInMemory;

  std::string path = testing::TempDir() + "/api_roundtrip.summary";
  ASSERT_TRUE(storage::Save(cg, path, save).ok());
  StatusOr<CompressedGraph> loaded = storage::Open(path, open);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().stats().cost, cg.stats().cost);
  EXPECT_EQ(loaded.value().num_nodes(), cg.num_nodes());
  EXPECT_TRUE(loaded.value().Verify(g).ok());
  EXPECT_TRUE(loaded.value().Decode() == g);

  // In-memory round trip and corruption reporting.
  StatusOr<std::string> buffer = storage::Serialize(cg, save);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  StatusOr<CompressedGraph> parsed = storage::OpenBuffer(buffer.value(), open);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().stats().cost, cg.stats().cost);
  std::string truncated = buffer.value().substr(0, buffer.value().size() / 2);
  EXPECT_FALSE(storage::OpenBuffer(truncated, open).ok());
}

TEST(CompressedGraph, LoadOfMissingFileIsAnError) {
  StatusOr<CompressedGraph> loaded =
      storage::Open(testing::TempDir() + "/definitely_absent.summary");
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace slugger
