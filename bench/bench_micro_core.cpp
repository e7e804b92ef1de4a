// Micro benchmarks of the core operations (google-benchmark), plus the
// §III-B3 memoization claims: warm-up time (< 2 s in the paper) and
// memo-table footprint (~56 KB in the paper).
#include <benchmark/benchmark.h>

#include "core/candidate_generation.hpp"
#include "core/memo_table.hpp"
#include "core/slugger.hpp"
#include "core/merge_planner.hpp"
#include "core/slugger_state.hpp"
#include "gen/generators.hpp"
#include "summary/neighbor_query.hpp"
#include "util/dsu.hpp"
#include "util/signed_edge_list.hpp"
#include "util/timer.hpp"

namespace {

using namespace slugger;

const graph::Graph& BenchGraph() {
  static const graph::Graph* g = [] {
    gen::PlantedHierarchyOptions opt;
    opt.branching = 4;
    opt.depth = 3;
    opt.leaf_size = 10;
    opt.leaf_density = 0.9;
    opt.pair_link_prob = 0.4;
    opt.pair_link_decay = 0.1;
    opt.noise_density = 1e-4;
    return new graph::Graph(gen::PlantedHierarchy(opt, 13));
  }();
  return *g;
}

void BM_SignedEdgeListChurn(benchmark::State& state) {
  // The summary's superedge store under merge churn: per round, a list of
  // four entries grows past the index threshold, is walked, and shrinks
  // back (erasing from the middle, so entries move), as a supernode whose
  // edges move up to a new parent does.
  constexpr uint32_t kBase = 4;
  constexpr uint32_t kPeak = 4 * SignedEdgeList::kLinearMax;
  SignedEdgeList list;
  for (uint32_t id = 0; id < kBase; ++id) list.Add(id * 7919, +1);
  for (auto _ : state) {
    for (uint32_t i = 0; i < kPeak; ++i) {
      list.Add(100000 + i * 7919, i % 8 == 0 ? -1 : +1);
    }
    int64_t sum = 0;
    list.ForEach([&](uint32_t other, EdgeSign sign) {
      sum += static_cast<int64_t>(other) * sign;
    });
    benchmark::DoNotOptimize(sum);
    for (uint32_t i = 0; i < kPeak; ++i) {
      list.Erase(100000 + (i * 37 % kPeak) * 7919);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * kPeak);
}
BENCHMARK(BM_SignedEdgeListChurn);

void BM_DsuFind(benchmark::State& state) {
  Dsu dsu(100000);
  Rng rng(1);
  for (uint32_t i = 0; i < 90000; ++i) {
    dsu.Unite(static_cast<uint32_t>(rng.Below(100000)),
              static_cast<uint32_t>(rng.Below(100000)));
  }
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsu.Find(i % 100000));
    ++i;
  }
}
BENCHMARK(BM_DsuFind);

void BM_MemoSolveHit(benchmark::State& state) {
  core::MemoTable table;
  const core::Universe& u =
      core::GetCase2Universe(true, true, true);
  int8_t target[16] = {0};
  target[0] = 1;
  target[3] = 1;
  table.Solve(u, target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Solve(u, target));
  }
}
BENCHMARK(BM_MemoSolveHit);

void BM_SavingEvaluation(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  core::SluggerState st(g);
  core::MemoTable memo;
  core::MergePlanner planner(&st, &memo);
  core::MergePlan plan;
  uint32_t i = 0;
  const auto& roots = st.roots();
  for (auto _ : state) {
    SupernodeId a = roots[i % roots.size()];
    SupernodeId b = roots[(i * 31 + 7) % roots.size()];
    if (a != b) {
      planner.EvaluateInto(a, b, &plan);
      benchmark::DoNotOptimize(plan.saving);
    }
    ++i;
  }
}
BENCHMARK(BM_SavingEvaluation);

void BM_ShinglePass(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  core::SluggerState st(g);
  core::CandidateGenerator generator(g, 1, 500, 10);
  uint32_t t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(st, t++));
  }
}
BENCHMARK(BM_ShinglePass)->Unit(benchmark::kMillisecond);

void BM_NeighborQuery(benchmark::State& state) {
  const graph::Graph& g = BenchGraph();
  core::SluggerConfig config;
  config.iterations = 10;
  static core::SluggerResult* result =
      new core::SluggerResult(core::Summarize(g, config));
  static summary::CoverLayout* layout =
      new summary::CoverLayout(result->summary);
  summary::QueryScratch scratch;
  uint32_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        summary::QueryNeighbors(*layout, u % g.num_nodes(), &scratch));
    ++u;
  }
}
BENCHMARK(BM_NeighborQuery);

void BM_SummarizeEndToEnd(benchmark::State& state) {
  graph::Graph g = gen::ErdosRenyi(2000, 8000, 3);
  for (auto _ : state) {
    core::SluggerConfig config;
    config.iterations = 5;
    benchmark::DoNotOptimize(core::Summarize(g, config));
  }
}
BENCHMARK(BM_SummarizeEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Paper §III-B3 claims first: warm-up under 2 seconds, table ~56 KB.
  slugger::core::MemoTable table;
  slugger::WallTimer timer;
  size_t entries = table.WarmUp();
  double secs = timer.Seconds();
  std::printf("memo warm-up: %zu entries in %.2fs (paper: < 2s); "
              "approx footprint %.1f KB (paper: ~56 KB)\n\n",
              entries, secs, table.ApproxBytes() / 1024.0);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
