// Shared pieces of the benchmark program: seeded input generation, the
// answer oracle's hashing, order statistics, the span tracer, and the
// result record every workload fills in.
#ifndef SLUGGER_PERFBENCH_HARNESS_HPP_
#define SLUGGER_PERFBENCH_HARNESS_HPP_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/compressed_graph.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace perfbench {

namespace graph = slugger::graph;
using slugger::Mix64;
using slugger::NodeId;
using slugger::Rng;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< smoke-test sizes
  std::string work_dir;     ///< scratch files (paged summaries)
  std::string trace_path;   ///< Chrome trace-event output of a traced run
};

/// Seconds on the clock the library's own spans use, so spans the
/// benchmark records and spans it imports from the registry line up.
double Now();

/// An independent stream of `seed` for one purpose (graph, batches, ...).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// `g` with its node ids renamed by a permutation drawn from `seed`, so
/// every seed hands the program a different input of the same shape
/// (sizes, degrees, hierarchy).
graph::Graph Relabel(const graph::Graph& g, uint64_t seed);

/// Node ids drawn zipf(s) over seeded permutations of [0, n): in hot set
/// k, rank 1 of permutation k is the hottest node. Cycling through several
/// hot sets in a run averages over which nodes happen to be hot, so a
/// seed's figures do not hinge on the degrees of a handful of nodes.
class ZipfNodes {
 public:
  ZipfNodes(NodeId n, double s, uint32_t sets, uint64_t seed);
  NodeId Draw(Rng* rng, uint32_t set) const;
  uint32_t sets() const { return static_cast<uint32_t>(perms_.size()); }

 private:
  std::vector<double> cdf_;
  std::vector<std::vector<NodeId>> perms_;
};

/// Order-insensitive hash of one neighbor list, so answers can be checked
/// against the oracle without sorting them on the measured path.
uint64_t HashList(std::span<const NodeId> list);

/// Hash of a whole batch answer: per-position list hashes, in input order.
uint64_t HashBatch(const slugger::BatchResult& answer);

/// The oracle's answer to the same batch, from the input adjacency.
uint64_t HashExpected(const graph::Graph& g, std::span<const NodeId> nodes);
uint64_t HashExpected(const std::vector<std::vector<NodeId>>& adj,
                      std::span<const NodeId> nodes);

/// Exact oracle check: each answer list, sorted, equals the node's sorted
/// adjacency. Returns false on the first difference.
bool SameAnswers(const slugger::BatchResult& answer,
                 std::span<const NodeId> nodes, const graph::Graph& g);
bool SameAnswers(const slugger::BatchResult& answer,
                 std::span<const NodeId> nodes,
                 const std::vector<std::vector<NodeId>>& adj);

/// Order statistics with linear interpolation between closest ranks (the
/// same convention as Python's statistics.quantiles(method="inclusive")).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99; {q, value}. q is 0 when there are too few samples.
std::pair<double, double> Tail(const std::vector<double>& values);

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// One span: a call the benchmark made into a module, or a span the
/// library recorded itself and the benchmark imported from the registry.
struct TraceSpan {
  const char* name;  ///< "<layer>.<call>", a string literal
  double start;
  double end;
  int32_t parent;    ///< index into the span list, -1 for a root
  uint64_t batch;    ///< operation id shared by the spans of one request
};

/// In-memory span recorder, written out when the run ends. Disabled
/// tracers record nothing and read no clock.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open one; returns its index
  /// (-1 when disabled).
  int32_t Open(const char* name, uint64_t batch);
  void Close(int32_t index);
  /// Adds a finished span; returns its index (-1 when disabled).
  int32_t Add(const char* name, double start, double end, int32_t parent,
              uint64_t batch);
  /// Index of the innermost open span, -1 if none.
  int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Self seconds per span name, summed over `root` and its descendants:
  /// each span's duration minus the part of it its children cover.
  std::map<std::string, double> SelfSecondsByName(int32_t root) const;

  /// Chrome trace-event JSON ("X" events, microseconds), which Perfetto
  /// and chrome://tracing load. False if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::vector<TraceSpan> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, uint64_t batch = 0)
      : tracer_(tracer), index_(tracer->Open(name, batch)) {}
  ~Scoped() { tracer_->Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one workload run reports.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Inputs and sizes that identify what was measured.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Outputs that must be bit-identical across runs of one seed.
  std::vector<std::pair<std::string, std::string>> exact;

  /// Counts one operation against the program; `ok` false counts it failed
  /// and logs the check `what` with the call's status (the first few).
  void Op(bool ok, const char* what,
          const slugger::Status& status = slugger::Status::OK());
  /// Records an exact-repeat output and checks it against an earlier
  /// record of the same key in this run (a repeated set-up or episode).
  void Exact(const std::string& key, const std::string& value);

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Prov(const std::string& key, const std::string& value) {
    provenance.emplace_back(key, value);
  }
};

/// Value of a counter or gauge in the global obs::MetricsRegistry; for a
/// histogram, its observation count. 0 when the name is not registered
/// (the layer that registers it has not run).
double RegistryValue(const std::string& name);
/// Sum of a registry histogram's observations (seconds).
double RegistryHistogramSum(const std::string& name);

std::string Fmt(double v);

}  // namespace perfbench

#endif  // SLUGGER_PERFBENCH_HARNESS_HPP_
