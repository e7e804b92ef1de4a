// Thread-scaling benchmark of pruning and verify/decode.
//
// Builds one unpruned summary of an RMAT graph and prunes a copy without a
// pool (inline) as the reference, then sweeps worker counts: per count it
// times PruneSummary on the pool (on a fresh copy of the summary) and
// VerifyLossless of the pruned result (parallel decode + compare). Each
// count's pruned bytes must equal the inline reference (pruning has one
// algorithm at every pool size); the exit code is 1 if any run is lossy or
// differs. Results go to stdout and to BENCH_prune_verify.json as one
// machine-readable JSON object.
//
// Env knobs:
//   SLUGGER_BENCH_PV_SCALE   RMAT scale (default 14 -> 16384 nodes)
//   SLUGGER_BENCH_PV_EDGES   edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_PV_ITERS   merge iterations T (default 20)
//   SLUGGER_BENCH_THREAD_LIST  comma list of worker counts (default 1,2,4,8)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "core/pruning.hpp"
#include "core/slugger.hpp"
#include "gen/generators.hpp"
#include "summary/serialize.hpp"
#include "summary/verify.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using slugger::bench::EnvU64;
using slugger::bench::ThreadList;

struct Run {
  uint32_t threads;
  double prune_seconds;
  double verify_seconds;
  uint64_t pruned_cost;
  bool lossless;
  bool bytes_match;
};

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_PV_SCALE", 14));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_PV_EDGES", 8 * num_nodes);
  const uint32_t iterations =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_PV_ITERS", 20));
  std::vector<uint32_t> threads = ThreadList();

  std::printf("=== prune + verify thread scaling ===\n");
  std::printf("rmat scale=%u nodes=%llu edges=%llu iterations=%u\n\n", scale,
              static_cast<unsigned long long>(num_nodes),
              static_cast<unsigned long long>(edges), iterations);

  graph::Graph g = gen::RMat(scale, edges, 0.57, 0.19, 0.19, /*seed=*/7);

  // One unpruned summary, shared by every pool-size run.
  core::SluggerConfig config;
  config.iterations = iterations;
  config.seed = 7;
  config.num_threads = ThreadPool::DefaultThreads();
  config.pruning_rounds = 0;
  core::SluggerResult base = core::Summarize(g, config);
  std::printf("unpruned cost=%llu (merge %.3fs at %u threads)\n\n",
              static_cast<unsigned long long>(base.stats.cost),
              base.merge_seconds, base.threads_used);

  // Reference: the same summary pruned without a pool.
  summary::SummaryGraph reference = base.summary;
  core::PruneSummary(&reference, g, core::PruneOptions{});
  const std::string reference_bytes = summary::SerializeSummary(reference);

  std::vector<Run> runs;
  for (uint32_t t : threads) {
    ThreadPool pool(t);
    summary::SummaryGraph pruned = base.summary;
    core::PruneOptions popt;
    popt.pool = &pool;

    WallTimer prune_timer;
    core::PruneSummary(&pruned, g, popt);
    double prune_seconds = prune_timer.Seconds();

    WallTimer verify_timer;
    bool lossless = summary::VerifyLossless(g, pruned, &pool).ok();
    double verify_seconds = verify_timer.Seconds();

    std::string bytes = summary::SerializeSummary(pruned);

    Run run;
    run.threads = t;
    run.prune_seconds = prune_seconds;
    run.verify_seconds = verify_seconds;
    run.pruned_cost = summary::ComputeStats(pruned).cost;
    run.lossless = lossless;
    run.bytes_match = bytes == reference_bytes;
    runs.push_back(run);
    std::printf(
        "threads=%-2u prune=%7.3fs  verify=%7.3fs  cost=%llu  lossless=%s  "
        "bytes_match=%s\n",
        t, run.prune_seconds, run.verify_seconds,
        static_cast<unsigned long long>(run.pruned_cost),
        run.lossless ? "yes" : "NO", run.bytes_match ? "yes" : "NO");
  }

  const Run* baseline = nullptr;
  for (const Run& r : runs) {
    if (r.threads == 1) baseline = &r;
  }
  if (baseline != nullptr) {
    std::printf("\nspeedup vs 1 thread:\n");
    for (const Run& r : runs) {
      std::printf("  threads=%-2u prune %.2fx  verify %.2fx\n", r.threads,
                  r.prune_seconds > 0
                      ? baseline->prune_seconds / r.prune_seconds
                      : 0.0,
                  r.verify_seconds > 0
                      ? baseline->verify_seconds / r.verify_seconds
                      : 0.0);
    }
  }

  std::string json =
      "{\"bench\":\"prune_verify\",\"graph\":\"rmat\",\"scale\":" +
      std::to_string(scale) + ",\"nodes\":" + std::to_string(g.num_nodes()) +
      ",\"edges\":" + std::to_string(g.num_edges()) +
      ",\"iterations\":" + std::to_string(iterations) + ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%u,\"prune_seconds\":%.6f,"
                  "\"verify_seconds\":%.6f,\"cost\":%llu,\"lossless\":%s,"
                  "\"bytes_match\":%s}",
                  i == 0 ? "" : ",", r.threads, r.prune_seconds,
                  r.verify_seconds,
                  static_cast<unsigned long long>(r.pruned_cost),
                  r.lossless ? "true" : "false",
                  r.bytes_match ? "true" : "false");
    json += buf;
  }
  json += "]}";

  std::printf("\n%s\n", json.c_str());
  FILE* f = std::fopen("BENCH_prune_verify.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_prune_verify.json\n");
  }

  bool ok = true;
  for (const Run& r : runs) ok = ok && r.lossless && r.bytes_match;
  return ok ? 0 : 1;
}
