// Cold-open latency and warm query throughput of the paged v2 format vs
// the monolithic v1 format (ISSUE 7): what does the out-of-core storage
// layer buy, and what does it cost?
//
// Summarize an RMAT graph once, write it in both formats, then measure:
//   open        per-rep cold open of each file. The monolithic load
//               parses and validates the whole file; the paged open
//               reads the header and page table only, so it should win
//               by orders of magnitude (CI gates >= 10x).
//   query       warm throughput over one random batch, in-memory vs
//               paged serving (CI gates paged within 2x once warm).
// Checksums (summed neighbor counts) must agree between every mode.
// Also reports how many file bytes the paged sweep actually faulted in —
// the out-of-core story in one number.
//
// Results go to stdout and BENCH_storage.json, gated by
// bench/check_storage.py.
//
// Env knobs:
//   SLUGGER_BENCH_STORAGE_SCALE    RMAT scale (default 18)
//   SLUGGER_BENCH_STORAGE_EDGES    edge count (default 8 * num_nodes)
//   SLUGGER_BENCH_STORAGE_BATCH    query batch size (default 20000)
//   SLUGGER_BENCH_STORAGE_REPS    repetitions per timed mode (default 8)
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench_env.hpp"
#include "gen/generators.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

using slugger::bench::EnvU64;

uint64_t MaxRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // linux: KiB
}

}  // namespace

int main() {
  using namespace slugger;

  const uint32_t scale =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_STORAGE_SCALE", 18));
  const uint64_t num_nodes = 1ull << scale;
  const uint64_t edges = EnvU64("SLUGGER_BENCH_STORAGE_EDGES", 8 * num_nodes);
  const uint64_t batch_size = EnvU64("SLUGGER_BENCH_STORAGE_BATCH", 20000);
  const uint64_t reps = EnvU64("SLUGGER_BENCH_STORAGE_REPS", 8);

  std::printf("=== paged vs monolithic storage ===\n");
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
  std::printf("compressed once in %.2fs: cost=%llu\n", compress_timer.Seconds(),
              static_cast<unsigned long long>(cg.stats().cost));

  const std::string v1_path = "BENCH_storage.v1.tmp";
  const std::string v2_path = "BENCH_storage.v2.tmp";
  storage::SaveOptions v1_opts;
  v1_opts.format = storage::Format::kMonolithicV1;
  storage::SaveOptions v2_opts;  // default: paged v2
  StatusOr<std::string> v1_bytes = storage::Serialize(cg, v1_opts);
  StatusOr<std::string> v2_bytes = storage::Serialize(cg, v2_opts);
  if (!v1_bytes.ok() || !v2_bytes.ok() ||
      !storage::Save(cg, v1_path, v1_opts).ok() ||
      !storage::Save(cg, v2_path, v2_opts).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }
  std::printf("file sizes: v1=%zu bytes, v2=%zu bytes (page_size=%u)\n\n",
              v1_bytes.value().size(), v2_bytes.value().size(),
              storage::kDefaultPageSize);

  // ---------------------------------------------------------- cold open
  double mono_open_seconds = 0;
  double paged_open_seconds = 0;
  storage::OpenOptions paged_open;
  paged_open.mode = storage::OpenOptions::Mode::kPaged;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    {
      WallTimer timer;
      StatusOr<CompressedGraph> opened = storage::Open(v1_path);
      mono_open_seconds += timer.Seconds();
      if (!opened.ok() || opened.value().num_nodes() != cg.num_nodes()) {
        std::fprintf(stderr, "monolithic open failed\n");
        return 1;
      }
    }
    {
      WallTimer timer;
      StatusOr<CompressedGraph> opened = storage::Open(v2_path, paged_open);
      paged_open_seconds += timer.Seconds();
      if (!opened.ok() || opened.value().num_nodes() != cg.num_nodes()) {
        std::fprintf(stderr, "paged open failed\n");
        return 1;
      }
    }
  }
  mono_open_seconds /= static_cast<double>(reps);
  paged_open_seconds /= static_cast<double>(reps);
  std::printf("cold open: monolithic %.2fms, paged %.3fms (%.0fx)\n",
              mono_open_seconds * 1e3, paged_open_seconds * 1e3,
              mono_open_seconds / paged_open_seconds);

  // --------------------------------------------------- warm query sweep
  Rng rng(0x57024A6E);
  std::vector<NodeId> batch(batch_size);
  for (NodeId& v : batch) {
    v = static_cast<NodeId>(rng.Below(cg.num_nodes()));
  }
  const double total_queries =
      static_cast<double>(batch_size) * static_cast<double>(reps);

  StatusOr<CompressedGraph> paged = storage::Open(v2_path, paged_open);
  if (!paged.ok()) {
    std::fprintf(stderr, "paged open failed: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  uint64_t mem_checksum = 0;
  uint64_t paged_checksum = 0;
  double mem_qps = 0;
  double paged_qps = 0;
  {
    BatchResult result;
    BatchScratch scratch;
    if (!cg.NeighborsBatch(batch, &result, &scratch).ok()) return 1;  // warm
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      if (!cg.NeighborsBatch(batch, &result, &scratch).ok()) return 1;
      mem_checksum = result.neighbors.size();
    }
    mem_qps = total_queries / timer.Seconds();
  }
  {
    BatchResult result;
    BatchScratch scratch;
    if (!paged.value().NeighborsBatch(batch, &result, &scratch).ok()) {
      std::fprintf(stderr, "paged warm-up batch failed\n");
      return 1;
    }
    WallTimer timer;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      if (!paged.value().NeighborsBatch(batch, &result, &scratch).ok()) {
        return 1;
      }
      paged_checksum = result.neighbors.size();
    }
    paged_qps = total_queries / timer.Seconds();
  }
  const bool checksums_agree = mem_checksum == paged_checksum;
  std::printf("warm batch query: in-memory %.0f q/s, paged %.0f q/s "
              "(%.2fx slower), checksums %s\n",
              mem_qps, paged_qps, mem_qps / paged_qps,
              checksums_agree ? "agree" : "DISAGREE");

  const storage::BufferStats bstats = paged.value().paged_source()
                                          ->buffer_stats();
  const uint64_t faulted_bytes =
      bstats.faults * paged.value().paged_source()->header().page_size;
  std::printf("paged sweep touched %llu of %zu file bytes (%.1f%%), "
              "process maxrss %llu MiB\n",
              static_cast<unsigned long long>(faulted_bytes),
              v2_bytes.value().size(),
              100.0 * static_cast<double>(faulted_bytes) /
                  static_cast<double>(v2_bytes.value().size()),
              static_cast<unsigned long long>(MaxRssBytes() >> 20));

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"storage\",\"graph\":\"rmat\",\"scale\":%u,"
      "\"nodes\":%llu,\"edges\":%llu,\"batch\":%llu,\"reps\":%llu,"
      "\"cost\":%llu,\"v1_bytes\":%zu,\"v2_bytes\":%zu,\"page_size\":%u,"
      "\"open\":{\"monolithic_seconds\":%.6f,\"paged_seconds\":%.6f,"
      "\"speedup\":%.2f},"
      "\"query\":{\"inmem_qps\":%.1f,\"paged_qps\":%.1f,"
      "\"paged_slowdown\":%.4f,\"checksums_agree\":%s},"
      "\"paged_faulted_bytes\":%llu}",
      scale, static_cast<unsigned long long>(g.num_nodes()),
      static_cast<unsigned long long>(g.num_edges()),
      static_cast<unsigned long long>(batch_size),
      static_cast<unsigned long long>(reps),
      static_cast<unsigned long long>(cg.stats().cost),
      v1_bytes.value().size(), v2_bytes.value().size(),
      storage::kDefaultPageSize, mono_open_seconds, paged_open_seconds,
      mono_open_seconds / paged_open_seconds, mem_qps, paged_qps,
      mem_qps / paged_qps, checksums_agree ? "true" : "false",
      static_cast<unsigned long long>(faulted_bytes));

  std::printf("\n%s\n", buf);
  FILE* f = std::fopen("BENCH_storage.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", buf);
    std::fclose(f);
    std::printf("wrote BENCH_storage.json\n");
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  return checksums_agree ? 0 : 1;
}
