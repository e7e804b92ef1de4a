#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string_view>

#include "obs/metrics.hpp"

namespace perfbench {

double Now() { return slugger::obs::ProcessSeconds(); }

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed ^ Mix64(stream + 0x9e3779b97f4a7c15ULL));
}

namespace {

std::vector<NodeId> Permutation(NodeId n, uint64_t seed) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  Rng(seed).Shuffle(perm);
  return perm;
}

}  // namespace

graph::Graph Relabel(const graph::Graph& g, uint64_t seed) {
  const std::vector<NodeId> perm = Permutation(g.num_nodes(), seed);
  std::vector<slugger::Edge> edges;
  edges.reserve(g.num_edges());
  for (const auto& [u, v] : g.Edges()) edges.push_back(slugger::MakeEdge(perm[u], perm[v]));
  std::sort(edges.begin(), edges.end());
  return graph::Graph::FromCanonicalEdges(g.num_nodes(), std::move(edges));
}

ZipfNodes::ZipfNodes(NodeId n, double s, uint32_t sets, uint64_t seed) : cdf_(n) {
  double total = 0.0;
  for (NodeId k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  for (uint32_t k = 0; k < sets; ++k) perms_.push_back(Permutation(n, SubSeed(seed, k)));
}

NodeId ZipfNodes::Draw(Rng* rng, uint32_t set) const {
  const double u = rng->NextDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const std::vector<NodeId>& perm = perms_[set % perms_.size()];
  return perm[std::min(rank, perm.size() - 1)];
}

uint64_t HashList(std::span<const NodeId> list) {
  uint64_t h = Mix64(list.size() + 0x5851f42d4c957f2dULL);
  for (NodeId v : list) h += Mix64(v ^ 0x2545f4914f6cdd1dULL);
  return h;
}

namespace {

uint64_t Chain(uint64_t h, uint64_t list_hash, size_t position) {
  return Mix64(h + list_hash + position);
}

template <typename NeighborsOf>
uint64_t HashExpectedWith(std::span<const NodeId> nodes, NeighborsOf&& of) {
  uint64_t h = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    h = Chain(h, HashList(of(nodes[i])), i);
  }
  return h;
}

template <typename NeighborsOf>
bool SameAnswersWith(const slugger::BatchResult& answer,
                     std::span<const NodeId> nodes, NeighborsOf&& of) {
  if (answer.size() != nodes.size()) return false;
  std::vector<NodeId> sorted;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::span<const NodeId> got = answer[i];
    sorted.assign(got.begin(), got.end());
    std::sort(sorted.begin(), sorted.end());
    const std::span<const NodeId> want = of(nodes[i]);
    if (!std::equal(sorted.begin(), sorted.end(), want.begin(), want.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t HashBatch(const slugger::BatchResult& answer) {
  uint64_t h = 0;
  for (size_t i = 0; i < answer.size(); ++i) {
    h = Chain(h, HashList(answer[i]), i);
  }
  return h;
}

uint64_t HashExpected(const graph::Graph& g, std::span<const NodeId> nodes) {
  return HashExpectedWith(nodes, [&](NodeId v) { return g.Neighbors(v); });
}

uint64_t HashExpected(const std::vector<std::vector<NodeId>>& adj,
                      std::span<const NodeId> nodes) {
  return HashExpectedWith(nodes, [&](NodeId v) {
    return std::span<const NodeId>(adj[v]);
  });
}

bool SameAnswers(const slugger::BatchResult& answer,
                 std::span<const NodeId> nodes, const graph::Graph& g) {
  return SameAnswersWith(answer, nodes,
                         [&](NodeId v) { return g.Neighbors(v); });
}

bool SameAnswers(const slugger::BatchResult& answer,
                 std::span<const NodeId> nodes,
                 const std::vector<std::vector<NodeId>>& adj) {
  return SameAnswersWith(answer, nodes, [&](NodeId v) {
    return std::span<const NodeId>(adj[v]);
  });
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::pair<double, double> Tail(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (n < 20) return {0.0, 0.0};
  const double q = std::min(0.99, 1.0 - 10.0 / n);
  return {q, Quantile(values, q)};
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int32_t Tracer::Open(const char* name, uint64_t batch) {
  if (!enabled_) return -1;
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, Now(), 0.0, current(), batch});
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = Now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int32_t Tracer::Add(const char* name, double start, double end,
                    int32_t parent, uint64_t batch) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, batch});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfSecondsByName(int32_t root) const {
  std::map<std::string, double> out;
  if (root < 0) return out;
  // Parents always precede their children, so one forward pass marks the
  // subtree and one more sums child coverage.
  const size_t n = spans_.size();
  std::vector<uint8_t> inside(n, 0);
  std::vector<double> covered(n, 0.0);
  inside[static_cast<size_t>(root)] = 1;
  for (size_t i = static_cast<size_t>(root) + 1; i < n; ++i) {
    const int32_t p = spans_[i].parent;
    if (p >= 0 && inside[static_cast<size_t>(p)]) inside[i] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t p = spans_[i].parent;
    if (inside[i] && p >= 0) {
      covered[static_cast<size_t>(p)] += spans_[i].end - spans_[i].start;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!inside[i]) continue;
    out[spans_[i].name] += std::max(0.0, spans_[i].end - spans_[i].start - covered[i]);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"batch\":%llu}}",
                 i == 0 ? "" : ",", s.name, layer.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.batch));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Result::Op(bool ok, const char* what, const slugger::Status& status) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) {
    std::fprintf(stderr, "perfbench: FAILED %s (%s)\n", what, status.ToString().c_str());
  }
}

void Result::Exact(const std::string& key, const std::string& value) {
  for (const auto& [k, v] : exact) {
    if (k == key) {
      if (v != value) {
        std::fprintf(stderr, "perfbench: %s was %s, now %s\n", key.c_str(), v.c_str(),
                     value.c_str());
      }
      Op(v == value, "exact-repeat output is identical within the run");
      return;
    }
  }
  exact.emplace_back(key, value);
}

namespace {

const slugger::obs::MetricsRegistry::Entry* FindEntry(
    const std::vector<slugger::obs::MetricsRegistry::Entry>& entries,
    const std::string& name) {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;  // not registered yet: its layer has not run
}

}  // namespace

double RegistryValue(const std::string& name) {
  using Kind = slugger::obs::MetricsRegistry::Kind;
  const auto entries = slugger::obs::MetricsRegistry::Global().Collect();
  const auto* e = FindEntry(entries, name);
  if (e == nullptr) return 0.0;
  switch (e->kind) {
    case Kind::kCounter:
      return static_cast<double>(e->counter->Value());
    case Kind::kGauge:
      return static_cast<double>(e->gauge->Value());
    case Kind::kHistogram:
      return static_cast<double>(e->histogram->Snapshot().count);
  }
  return 0.0;
}

double RegistryHistogramSum(const std::string& name) {
  using Kind = slugger::obs::MetricsRegistry::Kind;
  const auto entries = slugger::obs::MetricsRegistry::Global().Collect();
  const auto* e = FindEntry(entries, name);
  if (e == nullptr || e->kind != Kind::kHistogram) return 0.0;
  return e->histogram->Snapshot().sum;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
