// slugger::Engine — the supported way into the library for services.
//
// Lifecycle: construct one Engine with validated EngineOptions, keep it
// for the process lifetime, and call Summarize() per request. The Engine
// owns a persistent util::ThreadPool reused across runs (no per-run
// thread startup/teardown), validates every option up front (Status
// instead of asserts or silent UB), and plumbs per-run hooks — a
// per-iteration ProgressObserver and a cooperative CancelToken — through
// both merge engines. A cancelled run is not an error: it returns the
// lossless best-so-far CompressedGraph.
//
// Thread-safety: Summarize() is NOT reentrant — one run at a time per
// Engine (a service wanting parallel compression jobs holds one Engine
// per job slot). The returned CompressedGraph is independent of the
// Engine and serves concurrent readers; see compressed_graph.hpp.
//
//   slugger::EngineOptions options;
//   options.config.iterations = 20;
//   options.config.num_threads = 8;
//   slugger::Engine engine(options);
//   auto compressed = engine.Summarize(g);
//   if (!compressed.ok()) { /* bad options or graph */ }
//   const auto& neighbors = compressed.value().Neighbors(v, &scratch);
#ifndef SLUGGER_API_ENGINE_HPP_
#define SLUGGER_API_ENGINE_HPP_

#include <optional>

#include "api/compressed_graph.hpp"
#include "core/config.hpp"
#include "core/hooks.hpp"
#include "core/slugger.hpp"
#include "graph/graph.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace slugger {

/// Re-exported hook vocabulary so facade users never include core
/// headers directly.
using ProgressEvent = core::ProgressEvent;
using ProgressObserver = core::ProgressObserver;

/// Engine-lifetime configuration: the algorithm knobs plus validation.
struct EngineOptions {
  /// Algorithm knobs (iterations, seed, group size, threads...).
  core::SluggerConfig config;

  /// InvalidArgument on any knob the algorithms cannot honor — values
  /// that today would fail asserts or silently misbehave deep inside the
  /// core layer (iterations == 0, max_group_size < 2). OK otherwise.
  Status Validate() const;
};

/// Per-run options of Engine::Summarize.
struct RunOptions {
  /// Fires after every completed iteration with merge counts, current
  /// p/n/h sizes, and elapsed wall time — exactly config.iterations
  /// times on an uncancelled run. Called on the summarizing thread.
  ProgressObserver progress;

  /// Cooperative cancellation, polled at iteration, merge, round, and
  /// pruning-round boundaries in both merge engines. When fired the run
  /// returns early with the lossless best-so-far summary (Status OK).
  const CancelToken* cancel = nullptr;
};

class Engine {
 public:
  /// Validates `options` once; an invalid Engine stays inert and reports
  /// the validation failure from every Summarize() call.
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  /// The validation verdict of the construction-time options.
  const Status& status() const { return options_status_; }

  /// Effective worker count of the persistent pool (1 when the Engine
  /// runs on one thread and so has no pool).
  unsigned num_threads() const { return pool_ ? pool_->size() : 1; }

  /// Runs SLUGGER on g over the persistent pool. InvalidArgument when the
  /// construction options failed validation or g is too large for the
  /// supernode id space; otherwise OK — including cancelled runs, which
  /// yield the lossless best-so-far summary.
  StatusOr<CompressedGraph> Summarize(const graph::Graph& g,
                                      const RunOptions& run = {});

  /// Largest representable input: a summarization of n leaves allocates
  /// at most n - 1 fresh supernode ids, so 2n - 2 must stay below
  /// kInvalidId. Larger graphs would silently wrap SupernodeId. The same
  /// bound gates untrusted buffers in DeserializeSummary.
  static constexpr NodeId kMaxNodes = slugger::kMaxNodes;

  /// The persistent pool, for callers that want to reuse it for Decode /
  /// Verify on this Engine's thread budget. Null when num_threads() == 1.
  ThreadPool* pool() { return pool_ ? &*pool_ : nullptr; }

 private:
  EngineOptions options_;
  Status options_status_;
  std::optional<ThreadPool> pool_;
};

}  // namespace slugger

#endif  // SLUGGER_API_ENGINE_HPP_
