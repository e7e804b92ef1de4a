// §VIII-B: partial decompression — mean time to retrieve one node's
// neighbors straight off the summary, and its correlation with the
// average leaf depth (the paper reports Pearson r ≈ 0.82).
#include <algorithm>

#include "bench_common.hpp"
#include "summary/neighbor_query.hpp"
#include "util/random.hpp"

int main() {
  using namespace slugger;
  using namespace slugger::bench;

  gen::Scale scale = BenchScale(gen::Scale::kTiny);
  PrintHeaderLine("Appendix VIII-B — neighbor queries on summaries", scale, 1);

  std::printf("%-8s %14s %14s %12s\n", "dataset", "avg query [us]",
              "avg leaf depth", "rel. size");
  std::vector<double> depths, micros;
  for (const auto& spec : gen::AllDatasets()) {
    graph::Graph g = gen::GenerateDataset(spec.name, scale, 1);
    core::SluggerConfig config;
    config.iterations = 20;
    config.seed = 1;
    core::SluggerResult r = core::Summarize(g, config);

    summary::QueryScratch scratch;
    Rng rng(3);
    const uint32_t probes = 20000;
    uint64_t touched = 0;
    WallTimer timer;
    for (uint32_t i = 0; i < probes; ++i) {
      NodeId u = static_cast<NodeId>(rng.Below(g.num_nodes()));
      touched += summary::QueryNeighbors(r.summary, u, &scratch).size();
    }
    double us = timer.Micros() / probes;
    (void)touched;
    std::printf("%-8s %14.3f %14.2f %12.3f\n", spec.name.c_str(), us,
                r.stats.avg_leaf_depth,
                r.stats.RelativeSize(g.num_edges()));
    std::fflush(stdout);
    depths.push_back(r.stats.avg_leaf_depth);
    micros.push_back(us);
  }

  // Pearson correlation between avg leaf depth and query time.
  double mx = 0, my = 0;
  for (size_t i = 0; i < depths.size(); ++i) {
    mx += depths[i];
    my += micros[i];
  }
  mx /= depths.size();
  my /= micros.size();
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < depths.size(); ++i) {
    sxy += (depths[i] - mx) * (micros[i] - my);
    sxx += (depths[i] - mx) * (depths[i] - mx);
    syy += (micros[i] - my) * (micros[i] - my);
  }
  std::printf("\nPearson(depth, query time) = %.2f (paper: ~0.82); "
              "paper reports <15us per query everywhere.\n",
              sxy / std::sqrt(sxx * syy));
  return 0;
}
