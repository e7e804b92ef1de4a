// Observability overhead on the warm serving path (ISSUE 10): what do
// the registry counters, sampled latency histograms, and trace spans
// cost where it matters — the hot batch/single query loops?
//
// The same binary is built twice in CI: once normally and once with
// -DSLUGGER_OBS=OFF (instrumentation compiled out). Both builds run the
// IDENTICAL timed workload — summarize an RMAT graph, then best-of-reps
// warm NeighborsBatch and single-node Neighbors sweeps — and write
// their numbers to BENCH_obs.json (instrumented) or BENCH_obs_off.json
// (stripped). bench/check_obs.py compares the two and fails CI when the
// instrumented build is more than 5% slower on the warm batch path.
//
// The instrumented build additionally drives every layer the obs
// registry covers — engine, query path, paged storage + buffer manager,
// dynamic graph, snapshot registry, sharded coordinator — and dumps the
// Prometheus text to BENCH_obs.prom, which check_obs.py asserts carries
// metric families from all six layers (the end-to-end wiring proof).
//
// Env knobs:
//   SLUGGER_BENCH_OBS_SCALE   RMAT scale (default 13 -> 8192 nodes)
//   SLUGGER_BENCH_OBS_EDGES   edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_OBS_BATCH   query batch size (default 10000)
//   SLUGGER_BENCH_OBS_REPS    repetitions per timed loop (default 30)
//   SLUGGER_BENCH_OBS_ITERS   summarize iterations (default 10)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "bench_env.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "storage/storage.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

using slugger::bench::EnvU64;

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_OBS_SCALE", 13));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_OBS_EDGES", 8 * num_nodes);
  const uint64_t batch_size = EnvU64("SLUGGER_BENCH_OBS_BATCH", 10000);
  const uint64_t reps = EnvU64("SLUGGER_BENCH_OBS_REPS", 30);
  const uint64_t iterations = EnvU64("SLUGGER_BENCH_OBS_ITERS", 10);

  std::printf("=== observability overhead (SLUGGER_OBS=%s) ===\n",
              obs::kEnabled ? "ON" : "OFF");
  std::printf("rmat scale=%u nodes=%llu edges=%llu batch=%llu reps=%llu\n\n",
              scale, static_cast<unsigned long long>(num_nodes),
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(batch_size),
              static_cast<unsigned long long>(reps));

  graph::Graph g = gen::RMat(scale, edges, 0.57, 0.19, 0.19, /*seed=*/7);

  EngineOptions options;
  options.config.iterations = static_cast<uint32_t>(iterations);
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
  std::printf("compressed in %.2fs: cost=%llu\n", compress_timer.Seconds(),
              static_cast<unsigned long long>(cg.stats().cost));

  Rng rng(0x0B5);
  std::vector<NodeId> batch(batch_size);
  for (NodeId& v : batch) {
    v = static_cast<NodeId>(rng.Below(cg.num_nodes()));
  }

  // ------------------------------------------------- timed query loops
  // Best-of-reps: the minimum over many short reps is the steady-state
  // number least polluted by scheduler noise — exactly what a <= 5%
  // overhead gate needs.
  uint64_t checksum = 0;
  double batch_best_seconds = 1e300;
  double batch_total_seconds = 0;
  {
    BatchResult result;
    BatchScratch scratch;
    if (!cg.NeighborsBatch(batch, &result, &scratch).ok()) return 1;  // warm
    for (uint64_t rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      if (!cg.NeighborsBatch(batch, &result, &scratch).ok()) return 1;
      const double seconds = timer.Seconds();
      batch_best_seconds = std::min(batch_best_seconds, seconds);
      batch_total_seconds += seconds;
      checksum = result.neighbors.size();
    }
  }
  const double batch_qps =
      static_cast<double>(batch_size) / batch_best_seconds;
  std::printf("warm batch query:  %12.0f q/s best-of-%llu (%.3fs total, "
              "checksum %llu)\n",
              batch_qps, static_cast<unsigned long long>(reps),
              batch_total_seconds, static_cast<unsigned long long>(checksum));

  double single_best_seconds = 1e300;
  double single_total_seconds = 0;
  {
    QueryScratch scratch;
    uint64_t sink = 0;
    for (const NodeId v : batch) sink += cg.Neighbors(v, &scratch).size();
    for (uint64_t rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      for (const NodeId v : batch) sink += cg.Neighbors(v, &scratch).size();
      const double seconds = timer.Seconds();
      single_best_seconds = std::min(single_best_seconds, seconds);
      single_total_seconds += seconds;
    }
    if (sink == 0) std::printf("(empty graph?)\n");
  }
  const double single_qps =
      static_cast<double>(batch_size) / single_best_seconds;
  std::printf("warm single query: %12.0f q/s best-of-%llu (%.3fs total)\n\n",
              single_qps, static_cast<unsigned long long>(reps),
              single_total_seconds);

  // ------------------------------- exercise every layer (ON mode only)
  // Everything below runs AFTER the timed loops, so it cannot perturb
  // the overhead numbers; it exists to populate the registry from all
  // six instrumented layers for the BENCH_obs.prom wiring assertion.
  if (obs::kEnabled) {
    // Paged storage + buffer manager.
    const std::string paged_path = "BENCH_obs.v2.tmp";
    if (!storage::Save(cg, paged_path).ok()) {
      std::fprintf(stderr, "paged save failed\n");
      return 1;
    }
    StatusOr<CompressedGraph> paged = storage::Open(paged_path);
    if (!paged.ok()) {
      std::fprintf(stderr, "paged open failed: %s\n",
                   paged.status().ToString().c_str());
      return 1;
    }
    BatchResult result;
    BatchScratch scratch;
    if (!paged.value().NeighborsBatch(batch, &result, &scratch).ok()) {
      return 1;
    }
    std::remove(paged_path.c_str());

    // Dynamic graph: a burst of edits, then one compaction.
    DynamicGraph dg(cg, DynamicGraphOptions{});
    std::vector<EdgeEdit> edits;
    for (int i = 0; i < 2048; ++i) {
      NodeId u = static_cast<NodeId>(rng.Below(num_nodes));
      NodeId v = static_cast<NodeId>(rng.Below(num_nodes));
      if (u == v) v = (v + 1) % static_cast<NodeId>(num_nodes);
      edits.push_back({u, v, i % 2 == 0 ? EditKind::kInsert
                                        : EditKind::kDelete});
    }
    if (!dg.ApplyEdits(edits).ok() || !dg.Compact().ok()) {
      std::fprintf(stderr, "dynamic graph exercise failed\n");
      return 1;
    }

    // Snapshot registry: publish a refresh over the initial snapshot.
    SnapshotRegistry registry(cg);
    registry.Publish(cg);

    // Sharded coordinator (its shard builds also publish snapshots).
    ShardedOptions sharded_options;
    sharded_options.partition.num_shards = 2;
    sharded_options.engine.config.iterations =
        static_cast<uint32_t>(iterations);
    sharded_options.engine.config.seed = 7;
    StatusOr<ShardedGraph> sharded = ShardedGraph::Build(g, sharded_options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    dist::GatherStats stats;
    if (!sharded.value().NeighborsBatch(batch, &result, &stats).ok()) {
      return 1;
    }
    std::printf("coordinator batch span id: %llu (2 shards)\n",
                static_cast<unsigned long long>(stats.span_id));

    const std::string prom = obs::DumpPrometheus();
    FILE* pf = std::fopen("BENCH_obs.prom", "w");
    if (pf == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_obs.prom\n");
      return 1;
    }
    std::fwrite(prom.data(), 1, prom.size(), pf);
    std::fclose(pf);
    std::printf("wrote BENCH_obs.prom (%zu bytes)\n", prom.size());
  }

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"obs\",\"obs_enabled\":%s,\"graph\":\"rmat\","
      "\"scale\":%u,\"nodes\":%llu,\"edges\":%llu,\"batch\":%llu,"
      "\"reps\":%llu,\"checksum\":%llu,"
      "\"batch_qps\":%.1f,\"batch_total_seconds\":%.6f,"
      "\"single_qps\":%.1f,\"single_total_seconds\":%.6f}",
      obs::kEnabled ? "true" : "false", scale,
      static_cast<unsigned long long>(g.num_nodes()),
      static_cast<unsigned long long>(g.num_edges()),
      static_cast<unsigned long long>(batch_size),
      static_cast<unsigned long long>(reps),
      static_cast<unsigned long long>(checksum), batch_qps,
      batch_total_seconds, single_qps, single_total_seconds);

  const char* json_path =
      obs::kEnabled ? "BENCH_obs.json" : "BENCH_obs_off.json";
  std::printf("\n%s\n", buf);
  FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", buf);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
