// Scatter-gather serving vs a single box (ISSUE 8): what does sharding
// one graph across an in-process coordinator buy on batched neighbor
// queries, and what does the stitch cost?
//
// Compress an RMAT graph once as the single-box baseline, then for each
// shard count S: partition (timed), summarize every shard on an
// S-worker pool (timed), and drive the same fixed batch through the
// coordinator with parallel dispatch. Both sides serve the canonical
// contract the dist tests pin down — neighbor lists sorted ascending —
// so the comparison is like for like. Checksums (a hash of every
// position's list, in input order) must agree across every mode — the
// answers are the same graph either way. Results go to stdout and
// BENCH_dist.json; CI gates on the 4-shard coordinator staying >= 1.3x
// over the sequential single box (bench/check_dist.py) and on checksum
// agreement (fatal here).
//
// Env knobs:
//   SLUGGER_BENCH_DIST_SCALE       RMAT scale (default 14 -> 16384 nodes)
//   SLUGGER_BENCH_DIST_EDGES       edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_DIST_BATCH       batch size (default 10000)
//   SLUGGER_BENCH_DIST_REPS        repetitions per timed mode (default 20)
//   SLUGGER_BENCH_DIST_SHARD_LIST  comma list of shard counts (default 1,2,4)
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "bench_env.hpp"
#include "gen/generators.hpp"
#include "util/radix_sort.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

using slugger::bench::EnvU64;

std::vector<uint32_t> ShardList() {
  const char* env = std::getenv("SLUGGER_BENCH_DIST_SHARD_LIST");
  const std::string spec = env != nullptr ? env : "1,2,4";
  std::vector<uint32_t> list;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::optional<uint32_t> v =
        slugger::ParseUint32(spec.substr(pos, comma - pos).c_str());
    if (v.has_value() && *v >= 1) list.push_back(*v);
    pos = comma + 1;
  }
  if (list.empty()) list = {1, 2, 4};
  return list;
}

/// FNV-1a over each position's list length and neighbor ids, in input
/// order: two results agree only when every position's list does.
uint64_t HashAnswers(const slugger::BatchResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ull; };
  for (size_t i = 0; i < result.size(); ++i) {
    const std::span<const slugger::NodeId> list = result[i];
    mix(list.size());
    for (slugger::NodeId v : list) mix(v);
  }
  return h;
}

struct Run {
  std::string mode;  ///< "single" or "sharded"
  uint32_t shards;
  double seconds;    ///< query time, total over all reps
  double queries_per_second;
  double partition_seconds;  ///< 0 for single
  double build_seconds;      ///< partition + summarize + publish
  double stitch_seconds;     ///< summed over reps (coordinator only)
  double fanout;             ///< subqueries per routed query (1.0 single)
  double skew;
  uint64_t checksum;
};

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_DIST_SCALE", 14));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_DIST_EDGES", 8 * num_nodes);
  const uint64_t batch_size = EnvU64("SLUGGER_BENCH_DIST_BATCH", 10000);
  const uint64_t reps = EnvU64("SLUGGER_BENCH_DIST_REPS", 20);
  const std::vector<uint32_t> shard_list = ShardList();

  std::printf("=== sharded scatter-gather vs single box ===\n");
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
  const CompressedGraph& single_box = compressed.value();
  std::printf("single box compressed in %.2fs: cost=%llu\n\n",
              compress_timer.Seconds(),
              static_cast<unsigned long long>(single_box.stats().cost));

  Rng rng(0xD157);
  std::vector<NodeId> batch(batch_size);
  for (NodeId& v : batch) {
    v = static_cast<NodeId>(rng.Below(single_box.num_nodes()));
  }
  const double total_queries =
      static_cast<double>(batch_size) * static_cast<double>(reps);

  std::vector<Run> runs;
  {  // Baseline: the sequential single-box batch every service starts
     // on, serving the same contract as the coordinator — canonical
     // (ascending) neighbor lists, sorted by the coordinator's routine.
     // The per-position sort is part of the serving cost on both sides,
     // not coordinator overhead.
    BatchScratch scratch;
    BatchResult result;
    ListSortScratch sort;
    const auto id_bits =
        static_cast<unsigned>(std::bit_width(single_box.num_nodes() - 1u));
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      if (!single_box.NeighborsBatch(batch, &result, &scratch).ok()) return 1;
      RadixSortLists(result.offsets, result.neighbors, 0, result.size(),
                     id_bits, &sort);
    }
    const double seconds = timer.Seconds();
    runs.push_back({"single", 1, seconds, total_queries / seconds, 0.0,
                    compress_timer.Seconds(), 0.0, 1.0, 1.0,
                    HashAnswers(result)});
  }

  for (uint32_t shards : shard_list) {
    // Partition timed on its own — it is the coordinator-side cost a
    // rebalance pays over and over, unlike the one-time summarization.
    dist::PartitionOptions partition;
    partition.num_shards = shards;
    WallTimer partition_timer;
    StatusOr<dist::ShardManifest> manifest = dist::PartitionGraph(g, partition);
    const double partition_seconds = partition_timer.Seconds();
    if (!manifest.ok()) {
      std::fprintf(stderr, "partition failed: %s\n",
                   manifest.status().ToString().c_str());
      return 1;
    }

    ShardedOptions sharded_options;
    sharded_options.partition = partition;
    sharded_options.engine.config.iterations = 20;
    sharded_options.engine.config.seed = 7;
    sharded_options.num_threads = shards;
    WallTimer build_timer;
    StatusOr<ShardedGraph> sharded = ShardedGraph::Build(g, sharded_options);
    const double build_seconds = build_timer.Seconds();
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }

    BatchResult result;
    double stitch_seconds = 0.0;
    uint64_t subqueries = 0;
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      dist::GatherStats stats;
      if (!sharded.value().NeighborsBatch(batch, &result, &stats).ok()) {
        return 1;
      }
      stitch_seconds += stats.stitch_seconds;
      subqueries = stats.subqueries;
    }
    const double seconds = timer.Seconds();
    runs.push_back({"sharded", shards, seconds, total_queries / seconds,
                    partition_seconds, build_seconds, stitch_seconds,
                    static_cast<double>(subqueries) /
                        static_cast<double>(batch_size),
                    sharded.value().CostSkew(), HashAnswers(result)});
  }

  const Run& baseline = runs.front();
  bool checksums_agree = true;
  std::printf("%-10s %-8s %10s %14s %9s %9s %7s %8s %6s\n", "mode", "shards",
              "seconds", "queries/s", "speedup", "stitch%", "fanout",
              "part(s)", "skew");
  for (const Run& r : runs) {
    std::printf("%-10s %-8u %10.3f %14.0f %8.2fx %8.1f%% %6.2fx %8.3f %6.2f\n",
                r.mode.c_str(), r.shards, r.seconds, r.queries_per_second,
                r.queries_per_second / baseline.queries_per_second,
                r.seconds > 0 ? 100.0 * r.stitch_seconds / r.seconds : 0.0,
                r.fanout, r.partition_seconds, r.skew);
    checksums_agree = checksums_agree && r.checksum == baseline.checksum;
  }
  if (!checksums_agree) {
    std::fprintf(stderr,
                 "FAIL: checksums diverged between single box and shards\n");
    return 1;
  }

  std::string json = "{\"bench\":\"dist\",\"graph\":\"rmat\",\"scale\":" +
                     std::to_string(scale) +
                     ",\"nodes\":" + std::to_string(g.num_nodes()) +
                     ",\"edges\":" + std::to_string(g.num_edges()) +
                     ",\"batch\":" + std::to_string(batch_size) +
                     ",\"reps\":" + std::to_string(reps) + ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"mode\":\"%s\",\"shards\":%u,\"seconds\":%.6f,"
        "\"queries_per_second\":%.1f,\"speedup_vs_single\":%.4f,"
        "\"partition_seconds\":%.6f,\"build_seconds\":%.6f,"
        "\"stitch_seconds\":%.6f,\"fanout\":%.4f,\"skew\":%.4f,"
        "\"checksum\":\"%016llx\"}",
        i == 0 ? "" : ",", r.mode.c_str(), r.shards, r.seconds,
        r.queries_per_second,
        r.queries_per_second / baseline.queries_per_second,
        r.partition_seconds, r.build_seconds, r.stitch_seconds, r.fanout,
        r.skew, static_cast<unsigned long long>(r.checksum));
    json += buf;
  }
  json += "]}";

  std::printf("\n%s\n", json.c_str());
  FILE* f = std::fopen("BENCH_dist.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_dist.json\n");
  }
  return 0;
}
