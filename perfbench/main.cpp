// Benchmark program: runs one workload and prints its metrics. The last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}; the lines before it ('#'-prefixed) give provenance, the
// exact-repeat record and each metric. See README.md.
//
//   perfbench --workload serve-paged --seed 1 --seconds 10 --trace 0
//             [--size full|tiny] [--work-dir DIR] [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds N "
               "--trace 0|1 [--size full|tiny] [--work-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      cfg.workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      const auto v = slugger::ParseUint64(value);
      if (!v) return Usage("--seed needs a non-negative integer");
      cfg.seed = *v;
    } else if (std::strcmp(key, "--seconds") == 0) {
      const auto v = slugger::ParseUint32(value);
      if (!v || *v == 0) return Usage("--seconds needs a positive integer");
      cfg.seconds = *v;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace needs 0 or 1");
      }
      cfg.trace = value[0] == '1';
    } else if (std::strcmp(key, "--size") == 0) {
      if (std::strcmp(value, "full") != 0 && std::strcmp(value, "tiny") != 0) {
        return Usage("--size needs full or tiny");
      }
      cfg.tiny = std::strcmp(value, "tiny") == 0;
    } else if (std::strcmp(key, "--work-dir") == 0) {
      cfg.work_dir = value;
    } else if (std::strcmp(key, "--trace-out") == 0) {
      cfg.trace_path = value;
    } else {
      return Usage("unknown argument");
    }
  }
  if (argc % 2 == 0) return Usage("every option takes a value");
  if (cfg.workload.empty()) return Usage("--workload is required");

  perfbench::Tracer tracer;
  perfbench::Result result;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.tiny ? "tiny" : "full");
  if (!perfbench::RunWorkload(cfg, &tracer, &result)) {
    std::fprintf(stderr, "perfbench: %s could not be set up; nothing was measured\n",
                 cfg.workload.c_str());
    return 1;
  }
  result.E2E("peak_rss_mb", perfbench::PeakRssMiB(), "MiB");

  for (const auto& [key, value] : result.provenance) {
    std::printf("# provenance %s: %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [key, value] : result.exact) {
    std::printf("# exact %s %s\n", key.c_str(), value.c_str());
  }

  // The metrics of the run's mode, as the workload recorded them; run.py
  // checks their names and units against BENCHMARK.json.
  std::string metrics;
  for (const perfbench::Metric& m : cfg.trace ? result.per_layer : result.end_to_end) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not a finite number\n", m.name.c_str());
      result.Op(false, "metric value is finite");
      continue;
    }
    std::printf("# metric %s %s %s\n", m.name.c_str(), perfbench::Fmt(m.value).c_str(),
                m.unit.c_str());
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
               perfbench::Fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string json = "{\"correct\": " + std::string(result.failed == 0 ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(result.attempted) +
                           ", \"failed\": " + std::to_string(result.failed) +
                           ", \"metrics\": {" + metrics + "}}";

  if (cfg.trace && !cfg.trace_path.empty()) {
    if (!tracer.WriteChromeTrace(cfg.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_path.c_str());
      return 1;
    }
    std::printf("# trace %s (%zu spans)\n", cfg.trace_path.c_str(), tracer.size());
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
