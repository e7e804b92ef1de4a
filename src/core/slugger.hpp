// SLUGGER: Scalable Lossless Summarization of Graphs with Hierarchy.
//
// The algorithmic entry point (paper Algorithm 1): greedily merges
// supernodes under the hierarchical graph summarization model, updating
// p/n-edges through memoized optimal local re-encodings, then prunes
// supernodes that do not pay for themselves. Services should prefer the
// stable facade in api/engine.hpp (slugger::Engine validates options,
// keeps a persistent pool, and returns a slugger::CompressedGraph);
// this header is the internal layer it sits on.
//
// Quickstart:
//   graph::Graph g = gen::ErdosRenyi(1000, 5000, /*seed=*/1);
//   core::SluggerResult r = core::Summarize(g, {});
//   summary::VerifyLossless(g, r.summary);          // always OK
//   double ratio = r.stats.RelativeSize(g.num_edges());
#ifndef SLUGGER_CORE_SLUGGER_HPP_
#define SLUGGER_CORE_SLUGGER_HPP_

#include "core/config.hpp"
#include "core/hooks.hpp"
#include "core/pruning.hpp"
#include "graph/graph.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"

namespace slugger::core {

/// Output of one summarization run.
struct SluggerResult {
  summary::SummaryGraph summary;
  summary::SummaryStats stats;      ///< stats of the final summary
  PruneAblation prune_ablation;     ///< Table IV instrumentation
  uint64_t merges = 0;              ///< accepted merges
  uint64_t evaluations = 0;         ///< merge partners evaluated
  uint64_t bounded = 0;             ///< evaluations cut by the saving bound
  double merge_seconds = 0.0;       ///< candidate generation + merging
  double candidate_seconds = 0.0;   ///< candidate generation alone
  double prune_seconds = 0.0;
  uint32_t threads_used = 1;        ///< effective worker count
  bool aggregates_valid = true;     ///< set by SluggerConfig::check_aggregates
  uint32_t iterations_completed = 0;  ///< fully finished iterations
  bool cancelled = false;           ///< a SummarizeHooks::cancel token fired
};

/// Runs SLUGGER on g. Deterministic for a fixed config: one thread runs
/// the sequential engine, and two or more run the round-based engine,
/// whose result is identical across all of those thread counts (see
/// SluggerConfig::num_threads).
SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config);

/// Summarize with run-scoped hooks: per-iteration progress reporting,
/// cooperative cancellation (the returned summary is the lossless
/// best-so-far state when the token fires), and an externally owned
/// thread pool reused across runs. Default-constructed hooks make this
/// identical to the two-argument overload.
SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config,
                        const SummarizeHooks& hooks);

/// Merging threshold θ(t) (paper Eq. 9).
double MergingThreshold(uint32_t t, uint32_t total_iterations);

}  // namespace slugger::core

#endif  // SLUGGER_CORE_SLUGGER_HPP_
