// Scenario: zero-downtime serving. A slugger::SnapshotRegistry holds the
// live CompressedGraph; reader threads serve batched neighbor queries
// from whatever snapshot is current while the main thread rebuilds
// progressively better summaries of the same graph and publishes each
// one. Readers never pause across a swap, every answer stays correct
// (each snapshot is lossless, so the served adjacency never changes),
// and retired summaries are freed by their last reader.
//
// The bootstrap snapshot takes the restart path of a real service: the
// first summary is written as a paged v2 file, cold-opened through
// slugger::storage (header + page table only), and published while still
// out-of-core — readers fault in pages as their queries touch them, and
// later refreshes swap in fully in-memory summaries.
//
// Build & run:
//   ./build/example_serve_with_refresh [num_nodes] [readers] [refreshes]
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/snapshot_registry.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "storage/storage.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace slugger;

  NodeId nodes = 20000;
  uint32_t num_readers = 4;
  uint32_t refreshes = 3;
  const char* names[] = {"num_nodes", "readers", "refreshes"};
  uint32_t* targets[] = {&nodes, &num_readers, &refreshes};
  for (int a = 1; a < argc && a <= 3; ++a) {
    std::optional<uint32_t> parsed = ParseUint32(argv[a]);
    if (!parsed.has_value() || *parsed == 0) {
      std::fprintf(stderr,
                   "invalid %s '%s'\n"
                   "usage: %s [num_nodes >= 1] [readers >= 1] [refreshes >= 1]\n",
                   names[a - 1], argv[a], argv[0]);
      return 2;
    }
    *targets[a - 1] = *parsed;
  }

  graph::Graph g = gen::DuplicationDivergence(nodes, 3, 0.45, 0.7, 99);
  std::printf("serving graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  // Bootstrap: publish a cheap first summary immediately so serving can
  // start, then refine in the background — the swap pattern of a service
  // that cannot wait for the best compression before taking traffic.
  EngineOptions options;
  options.config.iterations = 1;
  options.config.seed = 99;
  Engine bootstrap(options);
  StatusOr<CompressedGraph> first = bootstrap.Summarize(g);
  if (!first.ok()) {
    std::fprintf(stderr, "bootstrap summarize failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }

  // Restart path: persist the bootstrap summary as a paged file and
  // cold-open it out-of-core, the way a restarted server would come back
  // up without re-summarizing or re-reading the whole file.
  const std::string bootstrap_path = "/tmp/slugger_serve_bootstrap.paged";
  Status persisted = storage::Save(first.value(), bootstrap_path);
  if (!persisted.ok()) {
    std::fprintf(stderr, "bootstrap save failed: %s\n",
                 persisted.ToString().c_str());
    return 1;
  }
  StatusOr<CompressedGraph> opened = storage::Open(bootstrap_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "bootstrap open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  // The mapping keeps the pages reachable after the unlink; nothing to
  // clean up on any later exit path.
  std::remove(bootstrap_path.c_str());

  SnapshotRegistry registry(std::move(opened).value());
  std::printf("bootstrap summary live: cost=%llu (version %llu, %s)\n",
              static_cast<unsigned long long>(
                  registry.Current()->stats().cost),
              static_cast<unsigned long long>(registry.version()),
              registry.Current()->paged() ? "serving paged from disk"
                                          : "in-memory");

  // Metrics: while serving, periodically dump the process-wide registry
  // in Prometheus text format — the payload a real server's /metrics
  // endpoint would return. Stop() emits one final dump, so even a short
  // run prints the engine/query/buffer/snapshot counters it produced.
  // (With -DSLUGGER_OBS=OFF the registry is empty and dumps are blank.)
  obs::PeriodicDumper metrics_dumper(
      [](const std::string& text) {
        std::printf("--- metrics dump (%zu bytes) ---\n%s--- end metrics ---\n",
                    text.size(), text.c_str());
      },
      /*interval_seconds=*/1.0);
  metrics_dumper.Start();

  // Readers: grab the current snapshot once per batch, serve a batch of
  // random nodes from it, and spot-check one answer against the raw
  // graph — correct under every swap because each snapshot is lossless.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_served{0};
  std::atomic<uint64_t> queries_served{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (uint32_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xC0FFEEull + r);
      BatchScratch scratch;
      BatchResult result;
      std::vector<NodeId> batch(512);
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotRegistry::Snapshot snap = registry.Current();
        for (NodeId& v : batch) {
          v = static_cast<NodeId>(rng.Below(g.num_nodes()));
        }
        Status status = snap->NeighborsBatch(batch, &result, &scratch);
        if (!status.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const size_t probe = rng.Below(batch.size());
        if (result[probe].size() != g.Degree(batch[probe])) {
          mismatches.fetch_add(1);
        }
        batches_served.fetch_add(1, std::memory_order_relaxed);
        queries_served.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }

  // Writer: progressively better summaries, one publish per refresh.
  WallTimer timer;
  for (uint32_t refresh = 1; refresh <= refreshes; ++refresh) {
    EngineOptions better;
    better.config.iterations = 1 + 4 * refresh;
    better.config.seed = 99;
    Engine engine(better);
    StatusOr<CompressedGraph> rebuilt = engine.Summarize(g);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "refresh %u failed: %s\n", refresh,
                   rebuilt.status().ToString().c_str());
      stop.store(true);
      for (std::thread& t : readers) t.join();
      return 1;
    }
    const uint64_t served_before = queries_served.load();
    SnapshotRegistry::Snapshot live =
        registry.Publish(std::move(rebuilt).value());
    std::printf(
        "refresh %u live after %.2fs: cost=%llu, version=%llu, "
        "%llu queries already served\n",
        refresh, timer.Seconds(),
        static_cast<unsigned long long>(live->stats().cost),
        static_cast<unsigned long long>(registry.version()),
        static_cast<unsigned long long>(served_before));
  }

  stop.store(true);
  for (std::thread& t : readers) t.join();
  metrics_dumper.Stop();
  std::printf("emitted %llu metrics dumps while serving\n",
              static_cast<unsigned long long>(metrics_dumper.dumps()));

  std::printf(
      "served %llu queries in %llu batches across %u readers and %llu "
      "snapshot versions; %llu mismatches\n",
      static_cast<unsigned long long>(queries_served.load()),
      static_cast<unsigned long long>(batches_served.load()),
      num_readers, static_cast<unsigned long long>(registry.version()),
      static_cast<unsigned long long>(mismatches.load()));
  return mismatches.load() == 0 && queries_served.load() > 0 ? 0 : 1;
}
