// Batched vs per-node neighbor-query throughput on one compressed graph:
// how much does NeighborsBatch's ancestor-chain amortization buy over a
// plain Neighbors() loop?
//
// Compress an RMAT graph once, draw a fixed batch of random node ids,
// then time two modes over the same batch, on one thread:
//   single          per-node Neighbors() loop (the baseline)
//   batch           NeighborsBatch (amortization only)
// Checksums (a hash of each position's list, chained in input order)
// must agree across the modes; the exit code is 1 when they do not.
// Results go to stdout and to BENCH_batch_query.json.
//
// Env knobs:
//   SLUGGER_BENCH_BQ_SCALE     RMAT scale (default 14 -> 16384 nodes)
//   SLUGGER_BENCH_BQ_EDGES     edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_BQ_BATCH     batch size (default 10000)
//   SLUGGER_BENCH_BQ_REPS     repetitions per timed mode (default 20)
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench_env.hpp"
#include "gen/generators.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

using slugger::Mix64;
using slugger::NodeId;
using slugger::bench::EnvU64;

/// A hash of one neighbor list that ignores its order: both modes emit
/// coverage order, which is unspecified.
uint64_t HashList(std::span<const NodeId> list) {
  uint64_t h = Mix64(list.size() + 0x5851f42d4c957f2dULL);
  for (NodeId v : list) h += Mix64(v ^ 0x2545f4914f6cdd1dULL);
  return h;
}

/// Folds the list at `position` into a checksum chained in input order, so
/// a wrong id, or a right list at the wrong position, changes the result.
uint64_t Chain(uint64_t h, std::span<const NodeId> list, size_t position) {
  return Mix64(h + HashList(list) + position);
}

struct Run {
  std::string mode;
  double seconds;         ///< total over all reps
  double queries_per_second;
  uint64_t checksum;      ///< chained list hashes; equal across modes
};

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_BQ_SCALE", 14));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_BQ_EDGES", 8 * num_nodes);
  const uint64_t batch_size = EnvU64("SLUGGER_BENCH_BQ_BATCH", 10000);
  const uint64_t reps = EnvU64("SLUGGER_BENCH_BQ_REPS", 20);

  std::printf("=== batched vs single neighbor queries ===\n");
  std::printf("rmat scale=%u nodes=%llu edges=%llu batch=%llu reps=%llu\n\n",
              scale, static_cast<unsigned long long>(num_nodes),
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(batch_size),
              static_cast<unsigned long long>(reps));

  graph::Graph g = gen::RMat(scale, edges, 0.57, 0.19, 0.19, /*seed=*/7);

  EngineOptions options;
  options.config.iterations = 20;
  options.config.seed = 7;
  Engine engine(options);
  WallTimer compress_timer;
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  if (!compressed.ok()) {
    std::fprintf(stderr, "summarize failed: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }
  const CompressedGraph& cg = compressed.value();
  std::printf("compressed once in %.2fs: cost=%llu (%.1f%% of |E|)\n\n",
              compress_timer.Seconds(),
              static_cast<unsigned long long>(cg.stats().cost),
              100.0 * cg.stats().RelativeSize(g.num_edges()));

  Rng rng(0xBA7C4);
  std::vector<NodeId> batch(batch_size);
  for (NodeId& v : batch) {
    v = static_cast<NodeId>(rng.Below(cg.num_nodes()));
  }

  const double total_queries =
      static_cast<double>(batch_size) * static_cast<double>(reps);
  std::vector<Run> runs;

  {  // Baseline: the per-node loop every service would write first.
    QueryScratch scratch;
    uint64_t checksum = 0;
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      checksum = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        checksum = Chain(checksum, cg.Neighbors(batch[i], &scratch), i);
      }
    }
    runs.push_back({"single", timer.Seconds(),
                    total_queries / timer.Seconds(), checksum});
  }

  {  // Batch: amortization only.
    BatchScratch scratch;
    BatchResult result;
    uint64_t checksum = 0;
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      if (!cg.NeighborsBatch(batch, &result, &scratch).ok()) return 1;
      checksum = 0;
      for (size_t i = 0; i < result.size(); ++i) {
        checksum = Chain(checksum, result[i], i);
      }
    }
    runs.push_back({"batch", timer.Seconds(),
                    total_queries / timer.Seconds(), checksum});
  }

  const Run& baseline = runs.front();
  bool checksums_agree = true;
  std::printf("%-10s %10s %14s %10s\n", "mode", "seconds", "queries/s",
              "speedup");
  for (const Run& r : runs) {
    std::printf("%-10s %10.3f %14.0f %9.2fx\n", r.mode.c_str(), r.seconds,
                r.queries_per_second,
                r.queries_per_second / baseline.queries_per_second);
    checksums_agree = checksums_agree && r.checksum == baseline.checksum;
  }
  if (!checksums_agree) {
    std::fprintf(stderr, "FAIL: checksums diverged across modes\n");
    return 1;
  }

  std::string json =
      "{\"bench\":\"batch_query\",\"graph\":\"rmat\",\"scale\":" +
      std::to_string(scale) + ",\"nodes\":" + std::to_string(g.num_nodes()) +
      ",\"edges\":" + std::to_string(g.num_edges()) +
      ",\"batch\":" + std::to_string(batch_size) +
      ",\"reps\":" + std::to_string(reps) +
      ",\"cost\":" + std::to_string(cg.stats().cost) + ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"mode\":\"%s\",\"seconds\":%.6f,"
                  "\"queries_per_second\":%.1f,\"speedup_vs_single\":%.4f}",
                  i == 0 ? "" : ",", r.mode.c_str(), r.seconds,
                  r.queries_per_second,
                  r.queries_per_second / baseline.queries_per_second);
    json += buf;
  }
  json += "]}";

  std::printf("\n%s\n", json.c_str());
  FILE* f = std::fopen("BENCH_batch_query.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_batch_query.json\n");
  }
  return 0;
}
