// Command-line tool: summarize an edge-list file, persist it through the
// unified slugger::storage API in both formats, and verify the round
// trips — the end-to-end production flow on the facade.
//
// The monolithic v1 summary lands at <out.summary> (unchanged CLI
// contract); the paged v2 file lands next to it at <out.summary>.paged
// and is then cold-opened out-of-core: the open reads only the header
// and page table, queries fault in pages on demand, and the final
// lossless verification materializes the rest.
//
// Usage:
//   ./build/examples/summarize_file <edges.txt> <out.summary> [iterations]
//   ./build/examples/summarize_file --demo          (self-contained demo)
#include <cstdio>
#include <optional>
#include <string>

#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "graph/graph_io.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace slugger;

  graph::Graph g;
  std::string out_path = "/tmp/slugger_demo.summary";
  uint32_t iterations = 20;

  if (argc >= 2 && std::string(argv[1]) != "--demo") {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: %s <edges.txt> <out.summary> [iterations >= 1]\n",
                   argv[0]);
      return 2;
    }
    if (argc >= 4) {
      std::optional<uint32_t> parsed = ParseUint32(argv[3]);
      if (!parsed.has_value() || *parsed == 0) {
        std::fprintf(stderr,
                     "invalid iteration count '%s'\n"
                     "usage: %s <edges.txt> <out.summary> [iterations >= 1]\n",
                     argv[3], argv[0]);
        return 2;
      }
      iterations = *parsed;
    }
    auto loaded = graph::LoadEdgeListText(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    g = std::move(loaded).value();
    out_path = argv[2];
  } else {
    std::printf("no input given; running the built-in demo workload\n");
    gen::PlantedHierarchyOptions opt;
    opt.branching = 5;
    opt.depth = 3;
    opt.leaf_size = 8;
    opt.leaf_density = 0.9;
    opt.pair_link_prob = 0.4;
    opt.pair_link_decay = 0.2;
    g = gen::PlantedHierarchy(opt, 1);
  }
  std::printf("input: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  EngineOptions options;
  options.config.iterations = iterations;
  Engine engine(options);

  WallTimer timer;
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  if (!compressed.ok()) {
    // e.g. iterations 0 from the command line: rejected up front with
    // InvalidArgument instead of failing deep inside the core layer.
    std::fprintf(stderr, "summarize failed: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }
  const CompressedGraph& cg = compressed.value();
  std::printf("summarized in %.2fs: cost=%llu (%.1f%% of |E|)\n",
              timer.Seconds(),
              static_cast<unsigned long long>(cg.stats().cost),
              100.0 * cg.stats().RelativeSize(g.num_edges()));

  // One save call per format, same entry point.
  storage::SaveOptions v1_opts;
  v1_opts.format = storage::Format::kMonolithicV1;
  Status saved = storage::Save(cg, out_path, v1_opts);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const std::string paged_path = out_path + ".paged";
  Status saved_paged = storage::Save(cg, paged_path);  // default: paged v2
  if (!saved_paged.ok()) {
    std::fprintf(stderr, "paged save failed: %s\n",
                 saved_paged.ToString().c_str());
    return 1;
  }
  std::printf("summary written to %s (v1) and %s (paged v2)\n",
              out_path.c_str(), paged_path.c_str());

  // Round trip 1: the monolithic file, fully parsed back into memory.
  // storage::Open sniffs the magic, so the same call handles both files.
  StatusOr<CompressedGraph> reloaded = storage::Open(out_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  Status lossless = reloaded.value().Verify(g);
  std::printf("v1 reload + lossless verification: %s\n",
              lossless.ToString().c_str());
  if (!lossless.ok()) return 1;

  // Round trip 2: the paged file, served out-of-core. The open touches
  // only the header and page table; each query then faults in just the
  // pages its ancestor-chain walk needs.
  WallTimer open_timer;
  StatusOr<CompressedGraph> paged = storage::Open(paged_path);
  if (!paged.ok()) {
    std::fprintf(stderr, "paged open failed: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }
  std::printf("paged cold open in %.3fms (serving %s)\n",
              open_timer.Seconds() * 1e3,
              paged.value().paged() ? "out-of-core" : "in-memory");

  QueryScratch scratch;
  Rng rng(1234);
  uint32_t checked = 0;
  for (; checked < 64 && g.num_nodes() > 0; ++checked) {
    const NodeId v = static_cast<NodeId>(rng.Below(g.num_nodes()));
    if (paged.value().Degree(v, &scratch) != g.Degree(v)) {
      std::fprintf(stderr, "paged degree mismatch at node %u\n", v);
      return 1;
    }
  }
  const storage::BufferStats bstats =
      paged.value().paged_source()->buffer_stats();
  const uint32_t num_pages = paged.value().paged_source()->header().num_pages;
  std::printf("%u spot queries faulted %llu of %u pages\n", checked,
              static_cast<unsigned long long>(bstats.faults), num_pages);

  // Full lossless verification materializes the summary behind the same
  // handle, then decodes every adjacency list.
  Status paged_lossless = paged.value().Verify(g);
  std::printf("paged reload + lossless verification: %s\n",
              paged_lossless.ToString().c_str());
  return paged_lossless.ok() ? 0 : 1;
}
