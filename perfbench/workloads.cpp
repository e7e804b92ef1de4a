// The three workloads. A run sets up kSetups times (setup_s is the
// median), and each set-up is followed by an equal slice of a closed loop
// with one client thread, so the set-ups are spread over the whole run.
// Each call into the library is timed on its own. Every answer is checked
// against an oracle built from the generated input, outside the timed
// calls. A traced run adds one set-up and a loop with spans on, then makes
// the comparison calls (in-memory twin, direct paged source, base-only
// read, core::Summarize, single box) in a separate pass, so they do not
// perturb the traced loop. README.md says why each workload exists.
#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "core/slugger.hpp"
#include "dist/partitioner.hpp"
#include "gen/datasets.hpp"
#include "obs/metrics.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"

namespace perfbench {
namespace {

namespace gen = slugger::gen;
namespace storage = slugger::storage;
using slugger::BatchResult;
using slugger::BatchScratch;
using slugger::CompressedGraph;
using slugger::Status;

// Set-ups per run, each followed by an equal slice of the untraced loop;
// setup_s reports their median. Spread over the run, they sample more of
// the host's speed swings than set-ups bunched at its start would.
constexpr int kSetups = 4;
// Nodes per read batch: every timed read takes over a millisecond.
constexpr size_t kBatchNodes = 1000;
// Distinct read batches a loop cycles through.
constexpr size_t kPoolBatches = 256;
// Batches each comparison call of a traced run is timed on; a multiple of
// 3! so every call order occurs equally often.
constexpr size_t kCompareBatches = 72;
constexpr double kZipfExponent = 0.99;
// Hot sets (zipf permutations) a run cycles through; see ZipfNodes.
constexpr uint32_t kHotSets = 8;
// Summarizer threads of serve-live (base and rebuilds); with the client
// thread idle meanwhile, at most two threads are busy at once.
constexpr uint32_t kEngineThreads = 2;
constexpr uint32_t kShards = 4;

// serve-live: each step applies one edit batch, compacts synchronously
// if the default trigger fires, then reads kLiveReadsPerStep batches.
constexpr size_t kLiveEditsPerCall = 128;
constexpr size_t kLiveReadsPerStep = 10;
constexpr size_t kLiveSteps = 24;

// Every workload's graph is its dataset generated with this seed (the
// sizes the README quotes), then relabeled by a permutation drawn from
// --seed. Seeds therefore vary the ids the program sees but not the
// graph's shape; the generators' own seeds change edge counts by up to
// 60% (EU-syn: 216k-349k edges), which no run-to-run bound could absorb.
constexpr uint64_t kDatasetSeed = 1;

// Independent random streams of one seed.
enum : uint64_t {
  kLabelStream = 1,
  kPermStream,
  kBatchStream,
  kEditStream,
  kReadStream,
  kCompareStream
};

struct Dataset {
  const char* name;
  gen::Scale scale;
};

// A traced run splits its measuring time between the untraced loop and
// the traced one.
double LoopSeconds(const RunConfig& cfg) { return cfg.trace ? cfg.seconds / 2 : cfg.seconds; }

double SafeDiv(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The workload's input graph: its dataset, relabeled by the seed.
graph::Graph MakeInput(const Dataset& ds, uint64_t seed) {
  return Relabel(gen::GenerateDataset(ds.name, ds.scale, kDatasetSeed),
                 SubSeed(seed, kLabelStream));
}

void ProvenanceOf(Result* r, const Dataset& ds, uint64_t seed,
                  const graph::Graph& g) {
  r->Prov("generator", std::string("gen::GenerateDataset(\"") + ds.name + "\", " +
                           gen::ScaleName(ds.scale) + ", " + std::to_string(kDatasetSeed) +
                           "), node ids permuted by the seed");
  r->Prov("seed", std::to_string(seed));
  r->Prov("nodes", std::to_string(g.num_nodes()));
  r->Prov("edges", std::to_string(g.num_edges()));
  r->Prov("nproc", std::to_string(std::thread::hardware_concurrency()));
  r->Prov("client_threads", "1 (closed loop)");
  r->Prov("setups", std::to_string(kSetups) + ", each followed by 1/" + std::to_string(kSetups) +
                        " of the untraced loop");
}

// One set-up step under a span when tracing; its seconds go to *seconds
// when that is given.
template <typename Fn>
auto Step(Tracer* tr, const char* span, std::vector<double>* seconds, Fn&& fn) {
  Scoped s(tr, span);
  const double t0 = Now();
  auto out = fn();
  if (seconds != nullptr) seconds->push_back(Now() - t0);
  return out;
}

// Imports the spans the library recorded in the registry's ring since the
// last call, nested under `parent` (the benchmark's span of the call that
// produced them). Library span names get their layer as a prefix.
class LibrarySpans {
 public:
  LibrarySpans() {
    for (const auto& s : slugger::obs::MetricsRegistry::Global().RecentSpans()) {
      last_ = std::max(last_, s.id);
    }
  }

  // Returns the summed seconds of imported coordinator dispatch spans.
  double Import(Tracer* tr, int32_t parent, uint64_t batch) {
    if (!tr->enabled()) return 0.0;
    auto spans = slugger::obs::MetricsRegistry::Global().RecentSpans();
    std::sort(spans.begin(), spans.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    double dispatch = 0.0;
    ids_.clear();
    for (const auto& s : spans) {
      if (s.id <= last_) continue;
      last_ = s.id;
      int32_t p = parent;
      for (const auto& [id, index] : ids_) {
        if (id == s.parent) p = index;
      }
      const std::string_view name(s.name);
      const int32_t index =
          tr->Add(Rename(name), s.start_seconds,
                  s.start_seconds + s.duration_seconds, p, batch);
      ids_.emplace_back(s.id, index);
      if (name == "coord.dispatch") dispatch += s.duration_seconds;
    }
    return dispatch;
  }

 private:
  // A dispatch span covers one shard's in-memory batch walk, so its self
  // time belongs to the summary layer; the batch span's own self time is
  // the coordinator's split and stitch.
  static const char* Rename(std::string_view name) {
    if (name == "coord.batch") return "dist.coord.batch";
    if (name == "coord.dispatch") return "summary.coord.dispatch";
    if (name == "engine.summarize") return "core.engine.summarize";
    return "lib.span";
  }

  uint64_t last_ = 0;
  std::vector<std::pair<uint64_t, int32_t>> ids_;
};

// Registry counters of the in-memory batch walk.
struct ChainCounters {
  double reuse = 0, reset = 0, dup = 0;
  static ChainCounters Read() {
    return {RegistryValue("slugger_query_chain_reuse_total"),
            RegistryValue("slugger_query_chain_reset_total"),
            RegistryValue("slugger_query_batch_dup_hits_total")};
  }
  ChainCounters operator-(const ChainCounters& o) const {
    return {reuse - o.reuse, reset - o.reset, dup - o.dup};
  }
};

// Summarizer phase histograms; differences give per-run phase seconds.
struct EnginePhases {
  double runs = 0, total = 0, candidate = 0, merge = 0, prune = 0;
  static EnginePhases Read() {
    return {RegistryValue("slugger_engine_summarize_seconds"),
            RegistryHistogramSum("slugger_engine_summarize_seconds"),
            RegistryHistogramSum("slugger_engine_candidate_seconds"),
            RegistryHistogramSum("slugger_engine_merge_seconds"),
            RegistryHistogramSum("slugger_engine_prune_seconds")};
  }
  EnginePhases operator-(const EnginePhases& o) const {
    return {runs - o.runs, total - o.total, candidate - o.candidate, merge - o.merge,
            prune - o.prune};
  }
  EnginePhases& operator+=(const EnginePhases& o) {
    runs += o.runs;
    total += o.total;
    candidate += o.candidate;
    merge += o.merge;
    prune += o.prune;
    return *this;
  }
  // Mean phase seconds per run; with `with_total`, also the mean run
  // (core.summarize_s).
  void Report(bool with_total, Result* r) const {
    if (with_total) r->Layer("core.summarize_s", SafeDiv(total, runs), "s");
    r->Layer("core.candidate_s", SafeDiv(candidate, runs), "s");
    r->Layer("core.merge_s", SafeDiv(merge - candidate, runs), "s");
    r->Layer("core.prune_s", SafeDiv(prune, runs), "s");
  }
};

// What the set-ups of one run measured.
struct Setups {
  std::vector<double> seconds;  ///< each untraced set-up, whole
  double traced = 0.0;          ///< the traced run's extra set-up
  EnginePhases phases;          ///< summarizer phases, summed over set-ups
};

// Makes kSetups set-ups, each followed by `slice(state, seconds)`, which
// runs the untraced loop on that set-up's state for `seconds` (at least
// one operation). Slice k ends when the loop has run k/kSetups of its
// time, so an operation that overruns one slice shortens the next. A
// traced run then makes one more set-up, with spans on, for its traced
// loop. Each set-up releases the previous state first and is timed whole.
// Returns the last state, or null when a set-up failed.
template <typename State, typename Make, typename Slice>
std::unique_ptr<State> SetUpAndRun(const RunConfig& cfg, Tracer* tr, Setups* setups,
                                   Make&& make, Slice&& slice) {
  std::unique_ptr<State> state;
  double looped = 0.0;
  for (int rep = 0; rep < kSetups + (cfg.trace ? 1 : 0); ++rep) {
    const bool traced = rep == kSetups;
    state.reset();
    tr->set_enabled(traced);
    const EnginePhases before = EnginePhases::Read();
    const double t0 = Now();
    {
      Scoped span(tr, "bench.setup", static_cast<uint64_t>(rep));
      state = make(rep);
    }
    const double t1 = Now();
    tr->set_enabled(false);
    setups->phases += EnginePhases::Read() - before;
    if (traced) {
      setups->traced = t1 - t0;
    } else {
      setups->seconds.push_back(t1 - t0);
    }
    if (state == nullptr) return nullptr;
    if (!traced) {
      slice(*state, LoopSeconds(cfg) * (rep + 1) / kSetups - looped);
      looped += Now() - t1;
    }
  }
  return state;
}

void ReportShape(const slugger::summary::SummaryStats& s, Result* r) {
  r->Layer("core.p_edges", static_cast<double>(s.p_count), "count");
  r->Layer("core.n_edges", static_cast<double>(s.n_count), "count");
  r->Layer("core.h_edges", static_cast<double>(s.h_count), "count");
  r->Layer("core.max_height", static_cast<double>(s.max_height), "count");
}

// A traced call whose inner layers record no spans of their own: its self
// time is divided among `weights` (layer, weight), which come from the
// comparison pass's timings of the same batches.
struct Split {
  const char* span;
  std::vector<std::pair<std::string, double>> weights;
};

// Per-layer self time of the traced loop as shares of its wall time, the
// tracing overhead on the batch median and on set-up, and the traced
// loop's sample count and tail. A span's self time goes to the layer its
// name starts with, or is divided as its Split says.
void ReportTrace(const Tracer& tr, int32_t loop_root, double loop_seconds,
                 const std::vector<double>& traced, const std::vector<double>& untraced,
                 const Setups& setups, const std::vector<Split>& splits, Result* r) {
  std::map<std::string, double> self;
  for (const auto& [name, seconds] : tr.SelfSecondsByName(loop_root)) {
    const auto split = std::find_if(splits.begin(), splits.end(),
                                    [&](const Split& sp) { return name == sp.span; });
    double total = 0.0;
    if (split != splits.end()) {
      for (const auto& [layer, w] : split->weights) total += w;
    }
    if (total <= 0.0) {
      self[name.substr(0, name.find('.'))] += seconds;
      continue;
    }
    for (const auto& [layer, w] : split->weights) self[layer] += seconds * w / total;
  }
  for (const char* layer :
       {"bench", "api", "core", "summary", "storage", "dist", "stream"}) {
    r->Layer(std::string(layer) + ".self_share", SafeDiv(self[layer], loop_seconds),
             "ratio");
  }
  r->Layer("trace.batch_p50_overhead_ms",
           (Median(traced) - Median(untraced)) * 1e3, "ms");
  r->Layer("trace.setup_overhead_s", setups.traced - Median(setups.seconds), "s");
  const auto [q, tail] = Tail(traced);
  r->Layer("api.batches", static_cast<double>(traced.size()), "count");
  r->Layer("api.batch_tail_q", q, "ratio");
  r->Layer("api.batch_tail_ms", tail * 1e3, "ms");
}

// Weight of one layer in a Split: a difference of two comparison medians,
// never below 0.
double Gap(const std::vector<double>& outer, const std::vector<double>& inner) {
  return std::max(0.0, Median(outer) - Median(inner));
}

// ------------------------------------------------------------ read loops

struct BatchPool {
  std::vector<std::vector<NodeId>> batches;
  std::vector<uint64_t> expected;  ///< oracle hash of each batch's answer
};

// `draw(b)` gives one node of pool batch b.
template <typename Draw>
BatchPool MakePool(const graph::Graph& g, Draw&& draw) {
  BatchPool pool;
  pool.batches.resize(kPoolBatches);
  for (size_t b = 0; b < kPoolBatches; ++b) {
    pool.batches[b].resize(kBatchNodes);
    for (NodeId& v : pool.batches[b]) v = draw(b);
    pool.expected.push_back(HashExpected(g, pool.batches[b]));
  }
  return pool;
}

struct ReadStats {
  std::vector<double> latency;  ///< seconds per batch call
  uint64_t ops = 0;             ///< calls made; op ids continue across slices
  uint64_t nodes = 0;
  int32_t root = -1;            ///< loop span of a traced run
  double wall = 0.0;
};

// Closed loop over the pool for `seconds` (at least one call), appending
// to *st. `call` is timed alone; `after` runs untimed with the op id, its
// span and latency, and returns false if the op failed a check of its
// own. Each answer is hash-checked against the oracle.
template <typename Call, typename After>
void ReadLoop(const BatchPool& pool, double seconds, Tracer* tr, const char* span, Result* r,
              ReadStats* st, Call&& call, After&& after) {
  BatchResult out;
  const double start = Now();
  {
    Scoped loop(tr, "bench.loop");
    st->root = loop.index();
    const double deadline = start + seconds;
    for (bool first = true; first || Now() < deadline; first = false) {
      const uint64_t op = st->ops++;
      const size_t b = op % pool.batches.size();
      const std::vector<NodeId>& nodes = pool.batches[b];
      const double t0 = Now();
      const Status s = call(nodes, &out);
      const double t1 = Now();
      const int32_t index = tr->Add(span, t0, t1, loop.index(), op);
      const bool checked = after(op, index, t1 - t0);
      const bool ok = s.ok() && checked && HashBatch(out) == pool.expected[b];
      r->Op(ok, span, s);
      st->latency.push_back(t1 - t0);
      st->nodes += nodes.size();
    }
  }
  st->wall += Now() - start;
}

// Untimed pass: every pool batch once more, each answer list sorted and
// compared with the input CSR. Returns the checksum of all answers.
template <typename Call>
uint64_t VerifyPool(const BatchPool& pool, const graph::Graph& g, Result* r,
                    const char* what, Call&& call) {
  BatchResult out;
  uint64_t checksum = 0;
  for (size_t b = 0; b < pool.batches.size(); ++b) {
    const Status s = call(b, pool.batches[b], &out);
    const bool ok = s.ok() && SameAnswers(out, pool.batches[b], g);
    r->Op(ok, what, s);
    checksum = Mix64(checksum + HashBatch(out));
  }
  return checksum;
}

// setup_s, and every set-up's seconds in run order as provenance.
void ReportSetups(const Setups& setups, Result* r) {
  r->E2E("setup_s", Median(setups.seconds), "s");
  std::string each;
  for (double v : setups.seconds) {
    if (!each.empty()) each += ' ';
    each += Fmt(v);
  }
  r->Prov("setup_seconds", each);
}

void ReportLatency(const std::vector<double>& latency, Result* r) {
  r->E2E("batch_p50_ms", Median(latency) * 1e3, "ms");
}

void ProvenanceOfReads(Result* r, const char* skew) {
  r->Prov("batch", std::to_string(kBatchNodes) + " nodes, " + skew + ", " +
                       std::to_string(kPoolBatches) + " distinct batches cycled");
}

// One call of a comparison pass: its span name, the library call, and the
// oracle check of its answer.
struct CompareCall {
  const char* span;
  std::function<Status(std::span<const NodeId>, BatchResult*)> call;
  std::function<bool(std::span<const NodeId>, const BatchResult&)> check;
};

// Times each call on the same batches. Calls warm caches for the ones
// after them, so the batches cycle through every order of the calls and
// each call follows each other one equally often. Only the library call
// is timed; its check runs afterwards.
std::vector<std::vector<double>> Compare(const std::vector<std::vector<NodeId>>& batches,
                                         const std::vector<CompareCall>& calls, Tracer* tr,
                                         Result* r) {
  std::vector<std::vector<size_t>> orders;
  std::vector<size_t> order(calls.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  do {
    orders.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  std::vector<std::vector<double>> seconds(calls.size());
  BatchResult out;
  for (size_t i = 0; i < batches.size(); ++i) {
    for (const size_t which : orders[i % orders.size()]) {
      const CompareCall& c = calls[which];
      const double t0 = Now();
      const Status s = c.call(batches[i], &out);
      const double t1 = Now();
      tr->Add(c.span, t0, t1, tr->current(), i);
      r->Op(s.ok() && c.check(batches[i], out), c.span, s);
      seconds[which].push_back(t1 - t0);
    }
  }
  return seconds;
}

// Chain counters of `call` run once over `batches`, outside any timing.
template <typename Call>
ChainCounters ChainCountersOf(const std::vector<std::vector<NodeId>>& batches, Call&& call) {
  const ChainCounters before = ChainCounters::Read();
  BatchResult out;
  for (const auto& nodes : batches) (void)call(nodes, &out);
  return ChainCounters::Read() - before;
}

std::vector<std::vector<NodeId>> FirstBatches(const BatchPool& pool) {
  const size_t n = std::min(kCompareBatches, pool.batches.size());
  return {pool.batches.begin(), pool.batches.begin() + static_cast<long>(n)};
}

// --------------------------------------------------------- serve-paged

bool ServePaged(const RunConfig& cfg, Tracer* tr, Result* r) {
  const Dataset ds = cfg.tiny ? Dataset{"CN-syn", gen::Scale::kTiny}
                              : Dataset{"U5-syn", gen::Scale::kTiny};
  // One summarizer thread: on U5-syn the sequential engine is faster than
  // the round-based one on two, so more set-ups fit in a run.
  slugger::EngineOptions options;
  options.config.num_threads = 1;
  const storage::OpenOptions open_options{};  // defaults: mmap, 4,096 records
  static constexpr const char* kCall = "api.CompressedGraph::NeighborsBatch";
  struct State {
    graph::Graph g;
    CompressedGraph inmem;
    CompressedGraph paged;
    std::string path;
    uint64_t file_bytes = 0;
    ~State() {
      paged = CompressedGraph();  // unmap before the file goes
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove(path, ec);
    }
  };

  // Reads of one state through the paged facade. An op also fails if the
  // handle's query_errors() rose during it.
  std::optional<BatchPool> pool;
  BatchScratch scratch;
  const auto read = [&](State& s, double seconds, ReadStats* st) {
    if (!pool) {
      // Consecutive runs of kPoolBatches / kHotSets batches share a hot set.
      const ZipfNodes hot(s.g.num_nodes(), kZipfExponent, kHotSets,
                          SubSeed(cfg.seed, kPermStream));
      Rng batch_rng(SubSeed(cfg.seed, kBatchStream));
      pool = MakePool(s.g, [&](size_t b) {
        return hot.Draw(&batch_rng, static_cast<uint32_t>(b * kHotSets / kPoolBatches));
      });
    }
    uint64_t errors = s.paged.query_errors();
    ReadLoop(
        *pool, seconds, tr, kCall, r, st,
        [&](std::span<const NodeId> nodes, BatchResult* out) {
          return s.paged.NeighborsBatch(nodes, out, &scratch);
        },
        [&](uint64_t, int32_t, double) {
          const uint64_t now = s.paged.query_errors();
          const bool ok = now == errors;
          errors = now;
          return ok;
        });
  };

  Setups setups;
  ReadStats untraced;
  std::vector<double> save_s, open_s;
  auto state = SetUpAndRun<State>(
      cfg, tr, &setups,
      [&](int rep) -> std::unique_ptr<State> {
        auto s = std::make_unique<State>();
        s->g = Step(tr, "gen.GenerateDataset", nullptr,
                    [&] { return MakeInput(ds, cfg.seed); });
        slugger::Engine engine(options);
        auto c = Step(tr, "api.Engine::Summarize", nullptr,
                      [&] { return engine.Summarize(s->g); });
        r->Op(c.ok(), "Engine::Summarize", c.status());
        if (!c.ok()) return nullptr;
        s->inmem = std::move(c).value();
        s->path = cfg.work_dir + "/paged-" + std::to_string(getpid()) + "-" +
                  std::to_string(rep) + ".slg";
        const Status saved = Step(tr, "storage.Save", &save_s,
                                  [&] { return storage::Save(s->inmem, s->path); });
        r->Op(saved.ok(), "storage::Save", saved);
        if (!saved.ok()) return nullptr;
        auto opened = Step(tr, "storage.Open", &open_s,
                           [&] { return storage::Open(s->path, open_options); });
        r->Op(opened.ok() && opened.value().paged(), "storage::Open returns a paged handle",
              opened.status());
        if (!opened.ok() || !opened.value().paged()) return nullptr;
        s->paged = std::move(opened).value();
        s->file_bytes = std::filesystem::file_size(s->path);
        r->Exact("setup.cost", std::to_string(s->inmem.stats().cost));
        r->Exact("setup.file_bytes", std::to_string(s->file_bytes));
        return s;
      },
      [&](State& s, double seconds) { read(s, seconds, &untraced); });
  if (state == nullptr) return false;
  const graph::Graph& g = state->g;
  const auto source = state->paged.paged_source();
  const storage::PagedHeader& header = source->header();
  ProvenanceOf(r, ds, cfg.seed, g);
  r->Prov("engine", "Engine num_threads=1 (kAuto: sequential) in set-up");
  r->Prov("summary_cost", std::to_string(state->inmem.stats().cost));
  r->Prov("v2_file", std::to_string(state->file_bytes) + " bytes, " +
                         std::to_string(header.num_pages) + " pages of " +
                         std::to_string(header.page_size) + " B, " +
                         std::to_string(header.total_supernodes()) + " records, height " +
                         std::to_string(header.max_height));
  r->Prov("open", "storage::Open defaults: mmap, record cache " +
                      std::to_string(open_options.record_cache_capacity) + " records");
  ProvenanceOfReads(r, "zipf(0.99) over seeded permutations of node ids, the hot set changing "
                       "every 32 batches (8 hot sets)");

  ReadStats traced;
  const storage::BufferStats buffer_before = source->buffer_stats();
  const double hits_before = RegistryValue("slugger_paged_record_cache_hits_total");
  const double misses_before = RegistryValue("slugger_paged_record_cache_misses_total");
  if (cfg.trace) {
    tr->set_enabled(true);
    read(*state, LoopSeconds(cfg), &traced);
    tr->set_enabled(false);
  }
  const storage::BufferStats buffer_after = source->buffer_stats();
  const double hits = RegistryValue("slugger_paged_record_cache_hits_total") - hits_before;
  const double misses = RegistryValue("slugger_paged_record_cache_misses_total") - misses_before;

  const uint64_t errors = state->paged.query_errors();
  const uint64_t checksum = VerifyPool(*pool, g, r, "paged NeighborsBatch (verify pass)",
                                       [&](size_t, std::span<const NodeId> nodes, BatchResult* out) {
                                         return state->paged.NeighborsBatch(nodes, out, &scratch);
                                       });
  r->Op(state->paged.query_errors() == errors,
        "CompressedGraph::query_errors stays flat in the verify pass");
  const double m = static_cast<double>(g.num_edges());
  const double relative = SafeDiv(static_cast<double>(state->inmem.stats().cost), m);
  const double per_edge = SafeDiv(static_cast<double>(state->file_bytes), m);
  r->Exact("relative_size", Fmt(relative));
  r->Exact("bytes_per_edge", Fmt(per_edge));
  r->Exact("answers.checksum", Hex(checksum));

  ReportSetups(setups, r);
  r->E2E("relative_size", relative, "ratio");
  r->E2E("bytes_per_edge", per_edge, "B");
  ReportLatency(untraced.latency, r);
  r->Prov("samples", std::to_string(untraced.latency.size()) + " read batches");
  if (!cfg.trace) return true;

  // Comparison pass: facade, direct paged source and in-memory twin on
  // the same batches.
  tr->set_enabled(true);
  BatchScratch s_facade, s_direct, s_inmem;
  const auto batches = FirstBatches(*pool);
  const auto oracle = [&](std::span<const NodeId> nodes, const BatchResult& out) {
    return HashBatch(out) == HashExpected(g, nodes);
  };
  const auto inmem = [&](std::span<const NodeId> nodes, BatchResult* out) {
    return state->inmem.NeighborsBatch(nodes, out, &s_inmem);
  };
  std::vector<std::vector<double>> t;
  {
    Scoped compare(tr, "bench.compare");
    t = Compare(batches,
                {{kCall,
                  [&](std::span<const NodeId> nodes, BatchResult* out) {
                    return state->paged.NeighborsBatch(nodes, out, &s_facade);
                  },
                  oracle},
                 {"storage.PagedSummarySource::NeighborsBatch",
                  [&](std::span<const NodeId> nodes, BatchResult* out) {
                    return source->NeighborsBatch(nodes, out, &s_direct);
                  },
                  oracle},
                 {"summary.CompressedGraph::NeighborsBatch", inmem, oracle}},
                tr, r);
  }
  tr->set_enabled(false);
  const ChainCounters chain = ChainCountersOf(batches, inmem);

  setups.phases.Report(/*with_total=*/true, r);
  ReportShape(state->inmem.stats(), r);
  r->Layer("api.batch_overhead_ms", (Median(t[0]) - Median(t[1])) * 1e3, "ms");
  r->Layer("summary.batch_ms", Median(t[2]) * 1e3, "ms");
  r->Layer("summary.chain_reuse_ratio", SafeDiv(chain.reuse, chain.reuse + chain.reset), "ratio");
  r->Layer("summary.dup_hits", SafeDiv(chain.dup, static_cast<double>(batches.size())), "count");
  r->Layer("storage.save_s", Median(save_s), "s");
  r->Layer("storage.open_s", Median(open_s), "s");
  r->Layer("storage.paged_over_inmem", SafeDiv(Median(t[1]), Median(t[2])), "ratio");
  r->Layer("storage.fetches_per_node",
           SafeDiv(static_cast<double>(buffer_after.fetches - buffer_before.fetches),
                   static_cast<double>(traced.nodes)),
           "count");
  r->Layer("storage.record_cache_hit_ratio", SafeDiv(hits, hits + misses), "ratio");
  r->Layer("storage.faults", static_cast<double>(buffer_after.faults - buffer_before.faults),
           "count");
  // A paged facade call is the facade's own work (facade - direct), the
  // paged walk with its record cache and buffer manager (direct -
  // in-memory), and the walk an in-memory summary would make.
  const std::vector<Split> splits = {
      {kCall, {{"api", Gap(t[0], t[1])}, {"storage", Gap(t[1], t[2])}, {"summary", Median(t[2])}}}};
  ReportTrace(*tr, traced.root, traced.wall, traced.latency, untraced.latency, setups, splits, r);
  return true;
}

// ------------------------------------------------------- serve-sharded

bool ServeSharded(const RunConfig& cfg, Tracer* tr, Result* r) {
  const Dataset ds = cfg.tiny ? Dataset{"CA-syn", gen::Scale::kTiny}
                              : Dataset{"LJ-syn", gen::Scale::kTiny};
  slugger::ShardedOptions options;
  options.partition.num_shards = kShards;
  // One worker: ShardedGraph::Build with two workers runs two sequential
  // engines at once, and both use the unsynchronized process-wide
  // core::MemoTable::Global() (a data race under ThreadSanitizer that
  // crashed a run). Shards are built one after another until it is fixed.
  options.num_threads = 1;
  options.parallel_dispatch = false;
  static constexpr const char* kCall = "api.ShardedGraph::NeighborsBatch";
  struct State {
    graph::Graph g;
    slugger::ShardedGraph sharded;
    uint64_t cost = 0;
  };
  const auto shard_snapshot = [](const State& s, uint32_t i) {
    return s.sharded.shard_registry(i)->Current();
  };

  slugger::dist::GatherStats gather;
  const auto batch_on = [&gather](const State& s) {
    return [&gather, &s](std::span<const NodeId> nodes, BatchResult* out) {
      gather = slugger::dist::GatherStats{};
      return s.sharded.NeighborsBatch(nodes, out, &gather);
    };
  };
  // Reads of one state; the coordinator's own stitch and slowest-shard
  // times and the spans it recorded are kept per batch.
  std::optional<BatchPool> pool;
  std::vector<double> stitch, max_shard, dispatch;
  LibrarySpans library;
  const auto read = [&](const State& s, double seconds, ReadStats* st) {
    if (!pool) {
      Rng batch_rng(SubSeed(cfg.seed, kBatchStream));
      pool = MakePool(s.g, [&](size_t) {
        return static_cast<NodeId>(batch_rng.Below(s.g.num_nodes()));
      });
    }
    ReadLoop(*pool, seconds, tr, kCall, r, st, batch_on(s),
             [&](uint64_t op, int32_t span, double) {
               stitch.push_back(gather.stitch_seconds);
               max_shard.push_back(gather.max_shard_seconds);
               dispatch.push_back(library.Import(tr, span, op));
               return gather.degraded.empty();
             });
  };

  Setups setups;
  ReadStats untraced;
  std::vector<double> build_s;
  auto state = SetUpAndRun<State>(
      cfg, tr, &setups,
      [&](int) -> std::unique_ptr<State> {
        auto s = std::make_unique<State>();
        s->g = Step(tr, "gen.GenerateDataset", nullptr,
                    [&] { return MakeInput(ds, cfg.seed); });
        auto built = Step(tr, "dist.ShardedGraph::Build", &build_s,
                          [&] { return slugger::ShardedGraph::Build(s->g, options); });
        r->Op(built.ok(), "ShardedGraph::Build", built.status());
        if (!built.ok()) return nullptr;
        s->sharded = std::move(built).value();
        for (uint32_t i = 0; i < s->sharded.num_shards(); ++i) {
          s->cost += shard_snapshot(*s, i)->stats().cost;
        }
        r->Exact("setup.cost", std::to_string(s->cost));
        return s;
      },
      [&](const State& s, double seconds) { read(s, seconds, &untraced); });
  if (state == nullptr) return false;
  const graph::Graph& g = state->g;
  const slugger::ShardedGraph& sharded = state->sharded;
  ProvenanceOf(r, ds, cfg.seed, g);
  r->Prov("shards", std::to_string(sharded.num_shards()) +
                        " (balanced-degree edge cut), shards built one at a time, sequential dispatch");
  r->Prov("summary_cost", std::to_string(state->cost) + " summed over shards");
  ProvenanceOfReads(r, "uniform node ids");

  ReadStats traced;
  if (cfg.trace) {
    stitch.clear();
    max_shard.clear();
    dispatch.clear();
    tr->set_enabled(true);
    library = LibrarySpans();
    read(*state, LoopSeconds(cfg), &traced);
    tr->set_enabled(false);
  }

  const auto call = batch_on(*state);
  uint64_t subqueries = 0;
  const uint64_t checksum =
      VerifyPool(*pool, g, r, "sharded NeighborsBatch (verify pass)",
                 [&](size_t, std::span<const NodeId> nodes, BatchResult* out) {
                   const Status s = call(nodes, out);
                   subqueries += gather.subqueries;
                   return s;
                 });
  const double fanout = SafeDiv(static_cast<double>(subqueries),
                                static_cast<double>(kPoolBatches * kBatchNodes));
  uint64_t v2_bytes = 0;
  slugger::summary::SummaryStats shape;
  for (uint32_t i = 0; i < sharded.num_shards(); ++i) {
    const auto snap = shard_snapshot(*state, i);
    auto bytes = storage::Serialize(*snap);
    r->Op(bytes.ok(), "storage::Serialize (shard)", bytes.status());
    if (bytes.ok()) v2_bytes += bytes.value().size();
    shape.p_count += snap->stats().p_count;
    shape.n_count += snap->stats().n_count;
    shape.h_count += snap->stats().h_count;
    shape.max_height = std::max(shape.max_height, snap->stats().max_height);
  }
  const double m = static_cast<double>(g.num_edges());
  const double relative = SafeDiv(static_cast<double>(state->cost), m);
  const double per_edge = SafeDiv(static_cast<double>(v2_bytes), m);
  r->Exact("relative_size", Fmt(relative));
  r->Exact("bytes_per_edge", Fmt(per_edge));
  r->Exact("answers.checksum", Hex(checksum));
  r->Exact("dist.fanout", Fmt(fanout));
  r->Prov("v2_bytes", std::to_string(v2_bytes) + " summed over shards");

  ReportSetups(setups, r);
  r->E2E("relative_size", relative, "ratio");
  r->E2E("bytes_per_edge", per_edge, "B");
  ReportLatency(untraced.latency, r);
  r->Prov("samples", std::to_string(untraced.latency.size()) + " read batches");
  if (!cfg.trace) return true;

  // Comparison pass: partitioning alone, and a single box built with the
  // shards' own engine settings, read on the same batches.
  tr->set_enabled(true);
  std::vector<double> partition_s;
  std::vector<std::vector<double>> t;
  const auto batches = FirstBatches(*pool);
  ChainCounters chain;
  {
    Scoped compare(tr, "bench.compare");
    for (int i = 0; i < kSetups; ++i) {
      auto partition = Step(tr, "dist.PartitionGraph", &partition_s,
                            [&] { return slugger::dist::PartitionGraph(g, options.partition); });
      r->Op(partition.ok(), "dist::PartitionGraph", partition.status());
    }
    slugger::Engine engine(options.engine);
    std::optional<CompressedGraph> single;
    {
      Scoped span(tr, "api.Engine::Summarize");
      auto c = engine.Summarize(g);
      r->Op(c.ok(), "Engine::Summarize (single box)", c.status());
      if (c.ok()) single = std::move(c).value();
    }
    if (single) {
      BatchScratch s_single;
      const auto oracle = [&](std::span<const NodeId> nodes, const BatchResult& out) {
        return HashBatch(out) == HashExpected(g, nodes);
      };
      const auto single_box = [&](std::span<const NodeId> nodes, BatchResult* out) {
        return single->NeighborsBatch(nodes, out, &s_single);
      };
      t = Compare(batches, {{kCall, call, oracle},
                            {"summary.CompressedGraph::NeighborsBatch", single_box, oracle}},
                  tr, r);
      chain = ChainCountersOf(batches, single_box);
    }
  }
  tr->set_enabled(false);

  setups.phases.Report(/*with_total=*/true, r);
  ReportShape(shape, r);
  std::vector<double> route;
  for (size_t i = 0; i < traced.latency.size(); ++i) {
    route.push_back(traced.latency[i] - dispatch[i] - stitch[i]);
  }
  r->Layer("dist.partition_s", Median(partition_s), "s");
  r->Layer("dist.build_s", Median(build_s), "s");
  r->Layer("dist.dispatch_ms", Median(dispatch) * 1e3, "ms");
  r->Layer("dist.stitch_ms", Median(stitch) * 1e3, "ms");
  r->Layer("dist.route_ms", Median(route) * 1e3, "ms");
  r->Layer("dist.fanout", fanout, "ratio");
  r->Layer("dist.max_shard_ms", Median(max_shard) * 1e3, "ms");
  r->Layer("dist.cost_skew", sharded.CostSkew(), "ratio");
  if (t.size() == 2) {
    r->Layer("dist.over_single_box", SafeDiv(Median(t[0]), Median(t[1])), "ratio");
    r->Layer("summary.batch_ms", Median(t[1]) * 1e3, "ms");
    r->Layer("summary.chain_reuse_ratio", SafeDiv(chain.reuse, chain.reuse + chain.reset),
             "ratio");
    r->Layer("summary.dup_hits", SafeDiv(chain.dup, static_cast<double>(batches.size())),
             "count");
  }
  // The coordinator's own spans split a sharded call into api, dist and
  // summary already.
  ReportTrace(*tr, traced.root, traced.wall, traced.latency, untraced.latency, setups, {}, r);
  return true;
}

// ----------------------------------------------------------- serve-live

using Adjacency = std::vector<std::vector<NodeId>>;

// Draws `count` edits against the oracle adjacency, applying each to it
// as drawn: even positions delete a present edge, odd ones insert an
// absent pair. One endpoint is zipf-hot (the nodes reads favour), the
// other a neighbor (deletes) or a uniform node (inserts).
void DrawEdits(Adjacency* adj, const ZipfNodes& hot, uint32_t set, Rng* rng, size_t count,
               std::vector<slugger::EdgeEdit>* edits, uint64_t* num_edges) {
  edits->clear();
  const NodeId n = static_cast<NodeId>(adj->size());
  while (edits->size() < count) {
    const NodeId u = hot.Draw(rng, set);
    std::vector<NodeId>& nu = (*adj)[u];
    if (edits->size() % 2 == 0) {
      if (nu.empty()) continue;
      const NodeId v = nu[rng->Below(nu.size())];
      std::vector<NodeId>& nv = (*adj)[v];
      nu.erase(std::lower_bound(nu.begin(), nu.end(), v));
      nv.erase(std::lower_bound(nv.begin(), nv.end(), u));
      --*num_edges;
      edits->push_back({u, v, slugger::EditKind::kDelete});
    } else {
      const NodeId v = static_cast<NodeId>(rng->Below(n));
      const auto at = std::lower_bound(nu.begin(), nu.end(), v);
      if (v == u || (at != nu.end() && *at == v)) continue;
      nu.insert(at, v);
      std::vector<NodeId>& nv = (*adj)[v];
      nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
      ++*num_edges;
      edits->push_back({u, v, slugger::EditKind::kInsert});
    }
  }
}

struct LiveStats {
  std::vector<double> apply, read, compact, fold, rebuild;
  uint64_t edits_applied = 0;
  uint64_t ops = 0;  ///< calls made; op ids continue across slices
  int32_t root = -1;
  double wall = 0.0;
};

// What one episode ends with; identical for every episode of a seed.
struct Episode {
  std::unique_ptr<slugger::DynamicGraph> graph;
  Adjacency adj;
  uint64_t num_edges = 0;
};

// One episode: a fresh DynamicGraph over the base, kLiveSteps steps of
// edits, triggered compactions and reads, then the oracle's final checks.
Episode RunEpisode(const CompressedGraph& base, const graph::Graph& g,
                   const slugger::DynamicGraphOptions& options, const ZipfNodes& hot,
                   uint64_t seed, bool exact_reads, Tracer* tr, LibrarySpans* library,
                   int32_t parent, uint64_t* op, Result* r, LiveStats* st) {
  Episode ep;
  ep.graph = std::make_unique<slugger::DynamicGraph>(base, options);
  slugger::DynamicGraph& dg = *ep.graph;
  ep.adj.resize(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.Neighbors(u);
    ep.adj[u].assign(nbrs.begin(), nbrs.end());
  }
  ep.num_edges = g.num_edges();
  Rng edit_rng(SubSeed(seed, kEditStream));
  Rng read_rng(SubSeed(seed, kReadStream));
  std::vector<slugger::EdgeEdit> edits;
  std::vector<NodeId> nodes(kBatchNodes);
  BatchResult out;
  slugger::OverlayBatchScratch scratch;
  uint64_t checksum = 0;
  uint64_t submitted = 0;
  const slugger::CompactionPolicy& policy = options.policy;
  for (size_t step = 0; step < kLiveSteps; ++step) {
    const uint32_t set = static_cast<uint32_t>(step * kHotSets / kLiveSteps);
    DrawEdits(&ep.adj, hot, set, &edit_rng, kLiveEditsPerCall, &edits, &ep.num_edges);
    submitted += edits.size();
    double t0 = Now();
    Status s = dg.ApplyEdits(edits);
    double t1 = Now();
    tr->Add("stream.DynamicGraph::ApplyEdits", t0, t1, parent, (*op)++);
    r->Op(s.ok(), "DynamicGraph::ApplyEdits", s);
    st->apply.push_back(t1 - t0);

    // The default CompactionPolicy trigger, run synchronously so the
    // fold/rebuild decisions repeat exactly.
    const slugger::DynamicGraphStats before = dg.stats();
    const double trigger = std::max(static_cast<double>(policy.min_corrections),
                                    policy.max_overlay_ratio * static_cast<double>(before.base_cost));
    if (static_cast<double>(before.corrections) >= trigger) {
      t0 = Now();
      s = dg.Compact();
      t1 = Now();
      library->Import(tr, tr->Add("stream.DynamicGraph::Compact", t0, t1, parent, *op), *op);
      ++*op;
      const slugger::DynamicGraphStats after = dg.stats();
      r->Op(s.ok() && after.corrections == 0,
            "DynamicGraph::Compact leaves an empty overlay", s);
      st->compact.push_back(t1 - t0);
      (after.compactions_fold > before.compactions_fold ? st->fold : st->rebuild)
          .push_back(t1 - t0);
    }

    for (size_t j = 0; j < kLiveReadsPerStep; ++j) {
      for (NodeId& v : nodes) v = hot.Draw(&read_rng, set);
      t0 = Now();
      s = dg.NeighborsBatch(nodes, &out, &scratch);
      t1 = Now();
      tr->Add("api.DynamicGraph::NeighborsBatch", t0, t1, parent, (*op)++);
      const bool ok = s.ok() && HashBatch(out) == HashExpected(ep.adj, nodes) &&
                      (!exact_reads || SameAnswers(out, nodes, ep.adj));
      r->Op(ok, "DynamicGraph::NeighborsBatch matches the oracle", s);
      st->read.push_back(t1 - t0);
      checksum = Mix64(checksum + HashBatch(out));
    }
  }

  const slugger::DynamicGraphStats end = dg.stats();
  r->Op(end.edits_applied == submitted && end.edits_redundant == 0,
        "DynamicGraphStats counts every edit as effective, like the oracle");
  st->edits_applied += end.edits_applied;
  std::vector<slugger::Edge> expected;
  expected.reserve(ep.num_edges);
  for (NodeId u = 0; u < ep.adj.size(); ++u) {
    for (NodeId v : ep.adj[u]) {
      if (u < v) expected.emplace_back(u, v);
    }
  }
  const graph::Graph decoded = dg.Decode();
  r->Op(decoded.num_nodes() == g.num_nodes() && decoded.Edges() == expected,
        "DynamicGraph::Decode equals the oracle's edge set");
  auto bytes = storage::Serialize(*dg.registry().Current());
  r->Op(bytes.ok(), "storage::Serialize (live base)", bytes.status());
  const double m = static_cast<double>(ep.num_edges);
  r->Exact("relative_size",
           Fmt(SafeDiv(static_cast<double>(end.base_cost + end.corrections), m)));
  r->Exact("bytes_per_edge",
           Fmt(bytes.ok() ? SafeDiv(static_cast<double>(bytes.value().size()), m) : 0.0));
  r->Exact("answers.checksum", Hex(checksum));
  r->Exact("stream.folds", std::to_string(end.compactions_fold));
  r->Exact("stream.rebuilds", std::to_string(end.compactions_rebuild));
  r->Exact("stream.corrections", std::to_string(end.corrections));
  return ep;
}

double ExactValue(const Result& r, const std::string& key) {
  for (const auto& [k, v] : r.exact) {
    if (k == key) return std::stod(v);
  }
  return 0.0;
}

bool ServeLive(const RunConfig& cfg, Tracer* tr, Result* r) {
  const Dataset ds = cfg.tiny ? Dataset{"EU-syn", gen::Scale::kTiny}
                              : Dataset{"EU-syn", gen::Scale::kSmall};
  slugger::EngineOptions engine_options;
  engine_options.config.num_threads = kEngineThreads;
  slugger::DynamicGraphOptions options;
  options.auto_compact = false;
  options.rebuild = engine_options;
  static constexpr const char* kRead = "api.DynamicGraph::NeighborsBatch";
  struct State {
    graph::Graph g;
    CompressedGraph base;
  };

  // Whole episodes on one state's base for `seconds` (at least one). The
  // first episode of the run also checks every read exactly.
  std::optional<ZipfNodes> hot;
  Episode last;
  uint64_t episodes = 0;
  const auto run = [&](const State& s, double seconds, LiveStats* st) {
    if (!hot) hot.emplace(s.g.num_nodes(), kZipfExponent, kHotSets, SubSeed(cfg.seed, kPermStream));
    LibrarySpans library;
    const double start = Now();
    {
      Scoped root(tr, "bench.loop");
      st->root = root.index();
      const double deadline = start + seconds;
      for (bool first = true; first || Now() < deadline; first = false) {
        Scoped span(tr, "bench.episode", episodes);
        // One episode's graph at a time, so peak RSS does not depend on how
        // many episodes a slice fits.
        last = Episode{};
        last = RunEpisode(s.base, s.g, options, *hot, cfg.seed, episodes == 0, tr, &library,
                          span.index(), &st->ops, r, st);
        ++episodes;
      }
    }
    st->wall += Now() - start;
  };

  Setups setups;
  LiveStats untraced;
  auto state = SetUpAndRun<State>(
      cfg, tr, &setups,
      [&](int) -> std::unique_ptr<State> {
        last = Episode{};  // the previous slice's graph goes with its state
        auto s = std::make_unique<State>();
        s->g = Step(tr, "gen.GenerateDataset", nullptr,
                    [&] { return MakeInput(ds, cfg.seed); });
        slugger::Engine engine(engine_options);
        auto c = Step(tr, "api.Engine::Summarize", nullptr,
                      [&] { return engine.Summarize(s->g); });
        r->Op(c.ok(), "Engine::Summarize", c.status());
        if (!c.ok()) return nullptr;
        s->base = std::move(c).value();
        r->Exact("setup.cost", std::to_string(s->base.stats().cost));
        return s;
      },
      [&](const State& s, double seconds) { run(s, seconds, &untraced); });
  if (state == nullptr) return false;
  const graph::Graph& g = state->g;
  ProvenanceOf(r, ds, cfg.seed, g);
  r->Prov("engine", "Engine num_threads=2 (kAuto: deterministic round-based) for the base and rebuilds");
  r->Prov("summary_cost", std::to_string(state->base.stats().cost));
  r->Prov("edits", std::to_string(kLiveEditsPerCall) +
                       " per ApplyEdits: half deletes of present edges, half inserts of absent "
                       "pairs, one endpoint zipf(0.99)-hot");
  r->Prov("episode", std::to_string(kLiveSteps) + " steps of 1 ApplyEdits + " +
                         std::to_string(kLiveReadsPerStep) +
                         " reads, synchronous Compact() at the default CompactionPolicy trigger");
  r->Prov("batch", std::to_string(kBatchNodes) +
                       " nodes, zipf(0.99) over seeded permutations of node ids, drawn per "
                       "read; the hot set (one of 8) changes every 3 steps, for edits too");

  LiveStats traced;
  const ChainCounters chain_before = ChainCounters::Read();
  if (cfg.trace) {
    tr->set_enabled(true);
    run(*state, LoopSeconds(cfg), &traced);
    tr->set_enabled(false);
  }
  const ChainCounters chain = ChainCounters::Read() - chain_before;

  const double relative = ExactValue(*r, "relative_size");
  ReportSetups(setups, r);
  r->E2E("relative_size", relative, "ratio");
  r->E2E("bytes_per_edge", ExactValue(*r, "bytes_per_edge"), "B");
  ReportLatency(untraced.read, r);
  r->Prov("samples", std::to_string(untraced.read.size()) + " read batches, " +
                         std::to_string(untraced.apply.size()) + " ApplyEdits, " +
                         std::to_string(untraced.compact.size()) + " compactions");
  if (!cfg.trace) return true;

  // Comparison pass: overlay reads against base-only reads of the same
  // nodes, on the last episode's graph (its overlay is not empty).
  tr->set_enabled(true);
  std::vector<std::vector<NodeId>> batches(kCompareBatches, std::vector<NodeId>(kBatchNodes));
  Rng compare_rng(SubSeed(cfg.seed, kCompareStream));
  for (size_t i = 0; i < batches.size(); ++i) {
    for (NodeId& v : batches[i]) v = hot->Draw(&compare_rng, static_cast<uint32_t>(i));
  }
  std::vector<std::vector<double>> t;
  {
    Scoped compare(tr, "bench.compare");
    slugger::OverlayBatchScratch s_overlay;
    BatchScratch s_base;
    const auto base = last.graph->registry().Current();
    // The base alone does not answer the live graph; only the overlay read
    // is checked against the oracle.
    t = Compare(batches,
                {{kRead,
                  [&](std::span<const NodeId> nodes, BatchResult* out) {
                    return last.graph->NeighborsBatch(nodes, out, &s_overlay);
                  },
                  [&](std::span<const NodeId> nodes, const BatchResult& out) {
                    return HashBatch(out) == HashExpected(last.adj, nodes);
                  }},
                 {"summary.CompressedGraph::NeighborsBatch",
                  [&](std::span<const NodeId> nodes, BatchResult* out) {
                    return base->NeighborsBatch(nodes, out, &s_base);
                  },
                  [](std::span<const NodeId>, const BatchResult&) { return true; }}},
                tr, r);
  }

  // The paper's pipeline on the same input: core::Summarize against
  // Engine::Summarize, alternating, on one pool of the same size.
  std::vector<double> core_s, engine_s;
  slugger::core::SluggerResult result;
  {
    Scoped compare(tr, "bench.compare");
    slugger::Engine engine(engine_options);
    slugger::core::SummarizeHooks hooks;
    hooks.pool = engine.pool();
    for (int i = 0; i < 2; ++i) {
      double t0 = Now();
      result = slugger::core::Summarize(g, engine_options.config, hooks);
      double t1 = Now();
      tr->Add("core.Summarize", t0, t1, tr->current(), 0);
      core_s.push_back(t1 - t0);
      r->Op(result.stats.cost == state->base.stats().cost,
            "core::Summarize matches the set-up's Engine::Summarize cost");
      t0 = Now();
      auto c = engine.Summarize(g);
      t1 = Now();
      tr->Add("api.Engine::Summarize", t0, t1, tr->current(), 0);
      engine_s.push_back(t1 - t0);
      r->Op(c.ok() && c.value().stats().cost == state->base.stats().cost,
            "Engine::Summarize repeats the set-up's cost", c.status());
    }
  }
  tr->set_enabled(false);

  setups.phases.Report(/*with_total=*/false, r);
  r->Layer("core.summarize_s", Median(core_s), "s");
  r->Layer("core.evaluations", static_cast<double>(result.evaluations), "count");
  r->Layer("core.merge_accept_ratio",
           SafeDiv(static_cast<double>(result.merges), static_cast<double>(result.evaluations)),
           "ratio");
  r->Layer("api.summarize_overhead_s", Median(engine_s) - Median(core_s), "s");
  ReportShape(state->base.stats(), r);
  const double applied_seconds = Sum(traced.apply);
  r->Layer("stream.apply_ms", Median(traced.apply) * 1e3, "ms");
  r->Layer("stream.corrections", ExactValue(*r, "stream.corrections"), "count");
  r->Layer("stream.redundant_ratio",
           SafeDiv(RegistryValue("slugger_dynamic_edits_redundant_total"),
                   RegistryValue("slugger_dynamic_edits_applied_total") +
                       RegistryValue("slugger_dynamic_edits_redundant_total")),
           "ratio");
  r->Layer("stream.patch_ms", (Median(t[0]) - Median(t[1])) * 1e3, "ms");
  r->Layer("stream.fold_s", Median(traced.fold), "s");
  r->Layer("stream.rebuild_s", Median(traced.rebuild), "s");
  r->Layer("stream.folds", ExactValue(*r, "stream.folds"), "count");
  r->Layer("stream.rebuilds", ExactValue(*r, "stream.rebuilds"), "count");
  r->Layer("stream.edits_per_s", SafeDiv(static_cast<double>(traced.edits_applied), applied_seconds),
           "1/s");
  r->Layer("stream.compact_s", Median(traced.compact), "s");
  r->Layer("summary.batch_ms", Median(t[1]) * 1e3, "ms");
  // Chain reuse of the traced loop's reads (all in-memory base walks).
  r->Layer("summary.chain_reuse_ratio", SafeDiv(chain.reuse, chain.reuse + chain.reset), "ratio");
  r->Layer("summary.dup_hits", SafeDiv(chain.dup, static_cast<double>(traced.read.size())),
           "count");
  // A live read is the base walk plus the overlay patch (overlay read -
  // base-only read); the facade's own work is inside the latter.
  const std::vector<Split> splits = {
      {kRead, {{"stream", Gap(t[0], t[1])}, {"summary", Median(t[1])}}}};
  ReportTrace(*tr, traced.root, traced.wall, traced.read, untraced.read, setups, splits, r);
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& config, Tracer* tracer, Result* result) {
  if (config.workload == "serve-paged") return ServePaged(config, tracer, result);
  if (config.workload == "serve-sharded") return ServeSharded(config, tracer, result);
  if (config.workload == "serve-live") return ServeLive(config, tracer, result);
  std::fprintf(stderr, "perfbench: unknown workload %s\n", config.workload.c_str());
  return false;
}

}  // namespace perfbench
