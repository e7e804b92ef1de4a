// Thread-scaling benchmark of the merge engines.
//
// Runs SLUGGER on an RMAT graph with a sweep of worker counts and reports
// merge-phase and candidate-generation wall time per count: one thread
// runs the sequential engine, more run the round-based engine. It also
// reports the partners each run evaluated and how many of those the
// saving bound cut before solving. Every run is verified lossless. Results go to stdout as a table and to
// BENCH_threads.json as a single machine-readable JSON object for the
// perf trajectory.
//
// Env knobs:
//   SLUGGER_BENCH_THREADS_SCALE  RMAT scale (default 14 -> 16384 nodes)
//   SLUGGER_BENCH_THREADS_EDGES  edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_THREADS_ITERS  iterations T (default 20, per the paper)
//   SLUGGER_BENCH_THREAD_LIST    comma list of worker counts (default 1,2,4,8)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "core/slugger.hpp"
#include "gen/generators.hpp"
#include "summary/verify.hpp"

namespace {

using slugger::bench::EnvU64;
using slugger::bench::ThreadList;

struct Run {
  uint32_t threads;
  double merge_seconds;
  double candidate_seconds;
  double prune_seconds;
  uint64_t cost;
  uint64_t merges;
  uint64_t evaluations;
  uint64_t bounded;
  bool lossless;
};

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_THREADS_SCALE", 14));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_THREADS_EDGES", 8 * num_nodes);
  const uint32_t iterations =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_THREADS_ITERS", 20));
  std::vector<uint32_t> threads = ThreadList();

  std::printf("=== thread scaling (merge engines) ===\n");
  std::printf("rmat scale=%u nodes=%llu edges=%llu iterations=%u\n\n", scale,
              static_cast<unsigned long long>(num_nodes),
              static_cast<unsigned long long>(edges), iterations);

  graph::Graph g = gen::RMat(scale, edges, 0.57, 0.19, 0.19, /*seed=*/7);

  std::vector<Run> runs;
  for (uint32_t t : threads) {
    core::SluggerConfig config;
    config.iterations = iterations;
    config.seed = 7;
    config.num_threads = t;
    core::SluggerResult r = core::Summarize(g, config);
    Run run;
    run.threads = t;
    run.merge_seconds = r.merge_seconds;
    run.candidate_seconds = r.candidate_seconds;
    run.prune_seconds = r.prune_seconds;
    run.cost = r.stats.cost;
    run.merges = r.merges;
    run.evaluations = r.evaluations;
    run.bounded = r.bounded;
    run.lossless = summary::VerifyLossless(g, r.summary).ok();
    runs.push_back(run);
    std::printf(
        "threads=%-2u merge=%8.3fs  candidates=%7.3fs  prune=%6.3fs  "
        "cost=%llu  evaluations=%llu  bounded=%llu  lossless=%s\n",
        t, run.merge_seconds, run.candidate_seconds, run.prune_seconds,
        static_cast<unsigned long long>(run.cost),
        static_cast<unsigned long long>(run.evaluations),
        static_cast<unsigned long long>(run.bounded),
        run.lossless ? "yes" : "NO");
  }

  const Run* baseline = nullptr;
  for (const Run& r : runs) {
    if (r.threads == 1) baseline = &r;
  }
  if (baseline != nullptr) {
    std::printf("\nspeedup vs 1 thread (merge phase):\n");
    for (const Run& r : runs) {
      std::printf("  threads=%-2u %.2fx\n", r.threads,
                  r.merge_seconds > 0
                      ? baseline->merge_seconds / r.merge_seconds
                      : 0.0);
    }
  } else {
    std::printf("\n(no 1-thread run in SLUGGER_BENCH_THREAD_LIST; "
                "skipping speedup table)\n");
  }

  // Machine-readable line for the perf trajectory.
  std::string json = "{\"bench\":\"threads\",\"graph\":\"rmat\",\"scale\":" +
                     std::to_string(scale) +
                     ",\"nodes\":" + std::to_string(g.num_nodes()) +
                     ",\"edges\":" + std::to_string(g.num_edges()) +
                     ",\"iterations\":" + std::to_string(iterations) +
                     ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\":%u,"
                  "\"merge_seconds\":%.6f,\"candidate_seconds\":%.6f,"
                  "\"prune_seconds\":%.6f,\"cost\":%llu,\"merges\":%llu,"
                  "\"evaluations\":%llu,\"bounded\":%llu,"
                  "\"lossless\":%s}",
                  i == 0 ? "" : ",", r.threads, r.merge_seconds,
                  r.candidate_seconds, r.prune_seconds,
                  static_cast<unsigned long long>(r.cost),
                  static_cast<unsigned long long>(r.merges),
                  static_cast<unsigned long long>(r.evaluations),
                  static_cast<unsigned long long>(r.bounded),
                  r.lossless ? "true" : "false");
    json += buf;
  }
  json += "]}";

  std::printf("\n%s\n", json.c_str());
  FILE* f = std::fopen("BENCH_threads.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_threads.json\n");
  }

  bool all_lossless = true;
  for (const Run& r : runs) all_lossless = all_lossless && r.lossless;
  return all_lossless ? 0 : 1;
}
