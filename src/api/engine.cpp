#include "api/engine.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace slugger {

namespace {

// Registered once per process; the registry owns the metrics, these are
// stable handles (the pattern every instrumented layer uses).
struct EngineObs {
  obs::Counter* runs = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_runs_total", "Summarize runs completed");
  obs::Counter* runs_failed = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_runs_failed_total",
      "Summarize calls rejected before running (bad options/graph)");
  obs::Counter* runs_cancelled = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_runs_cancelled_total",
      "Summarize runs stopped early by a cancel token");
  obs::Counter* iterations = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_iterations_total", "merge iterations completed");
  obs::Counter* merges = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_merges_total", "accepted supernode merges");
  obs::Counter* evaluations = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_evaluations_total", "merge partners evaluated");
  obs::Counter* bounded = obs::MetricsRegistry::Global().GetCounter(
      "slugger_engine_bounded_evaluations_total",
      "merge partners the saving bound cut before solving");
  // Summarize runs span ~ms (toy graphs) to minutes: 100us first bound,
  // x2 growth, 24 buckets tops out around 14 minutes.
  obs::Histogram* run_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_engine_summarize_seconds",
      obs::HistogramOptions{1e-4, 2.0, 24}, "end-to-end Summarize latency");
  obs::Histogram* candidate_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "slugger_engine_candidate_seconds",
          obs::HistogramOptions{1e-4, 2.0, 24},
          "per-run candidate-generation phase time");
  obs::Histogram* merge_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_engine_merge_seconds", obs::HistogramOptions{1e-4, 2.0, 24},
      "per-run candidate+merge phase time");
  obs::Histogram* prune_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "slugger_engine_prune_seconds", obs::HistogramOptions{1e-4, 2.0, 24},
      "per-run prune phase time");
  // Last-run summary shape: gauges because the meaningful read is "the
  // current hierarchy", not an accumulation across runs.
  obs::Gauge* last_merges = obs::MetricsRegistry::Global().GetGauge(
      "slugger_engine_last_merges", "merges accepted by the last iteration");
  obs::Gauge* last_p = obs::MetricsRegistry::Global().GetGauge(
      "slugger_engine_last_p_edges", "|P+| after the last iteration");
  obs::Gauge* last_n = obs::MetricsRegistry::Global().GetGauge(
      "slugger_engine_last_n_edges", "|P-| after the last iteration");
  obs::Gauge* last_h = obs::MetricsRegistry::Global().GetGauge(
      "slugger_engine_last_h_edges", "|H| after the last iteration");
};

const EngineObs& Obs() {
  static EngineObs handles;
  return handles;
}

}  // namespace

Status EngineOptions::Validate() const {
  if (config.iterations == 0) {
    return Status::InvalidArgument(
        "iterations must be >= 1 (0 would produce the trivial identity "
        "summary without ever running the merge phase)");
  }
  if (config.max_group_size < 2) {
    return Status::InvalidArgument(
        "max_group_size must be >= 2 (a candidate group needs at least "
        "two supernodes to propose a merge); got " +
        std::to_string(config.max_group_size));
  }
  return Status::OK();
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), options_status_(options_.Validate()) {
  if (!options_status_.ok()) return;  // inert engine; Summarize reports it
  const core::SluggerConfig& config = options_.config;
  const unsigned threads = config.num_threads == 0
                               ? ThreadPool::DefaultThreads()
                               : config.num_threads;
  // Same condition core::Summarize uses to build its own pool; creating it
  // here once amortizes thread startup across every run of this Engine.
  if (threads > 1) pool_.emplace(threads);
}

StatusOr<CompressedGraph> Engine::Summarize(const graph::Graph& g,
                                            const RunOptions& run) {
  if (!options_status_.ok()) {
    Obs().runs_failed->Add(1);
    return options_status_;
  }
  if (g.num_nodes() > kMaxNodes) {
    Obs().runs_failed->Add(1);
    return Status::InvalidArgument(
        "graph has " + std::to_string(g.num_nodes()) +
        " nodes; the supernode id space supports at most " +
        std::to_string(kMaxNodes) +
        " (merging can allocate up to n - 1 fresh ids)");
  }
  core::SummarizeHooks hooks;
  // Per-iteration metrics piggyback on the progress hook (it fires once
  // per iteration on the driving thread); the caller's observer still
  // sees every event unchanged.
  hooks.progress = [user = run.progress](const core::ProgressEvent& ev) {
    const EngineObs& o = Obs();
    o.iterations->Add(1);
    o.last_merges->Set(static_cast<int64_t>(ev.merges));
    o.last_p->Set(static_cast<int64_t>(ev.p_count));
    o.last_n->Set(static_cast<int64_t>(ev.n_count));
    o.last_h->Set(static_cast<int64_t>(ev.h_count));
    if (user) user(ev);
  };
  hooks.cancel = run.cancel;
  hooks.pool = pool();
  obs::ScopedSpan span(&obs::MetricsRegistry::Global(), "engine.summarize",
                       /*parent=*/0, Obs().run_seconds, g.num_nodes());
  core::SluggerResult result = core::Summarize(g, options_.config, hooks);
  const EngineObs& o = Obs();
  o.runs->Add(1);
  if (result.cancelled) o.runs_cancelled->Add(1);
  o.merges->Add(result.merges);
  o.evaluations->Add(result.evaluations);
  o.bounded->Add(result.bounded);
  o.candidate_seconds->Observe(result.candidate_seconds);
  o.merge_seconds->Observe(result.merge_seconds);
  o.prune_seconds->Observe(result.prune_seconds);
  return CompressedGraph(std::move(result.summary), result.stats);
}

}  // namespace slugger
