// Run-scoped hooks of core::Summarize: progress reporting, cooperative
// cancellation, and an externally owned thread pool (so a service can
// amortize pool startup across runs). The api layer (slugger::Engine)
// re-exports these; core stays usable without it.
#ifndef SLUGGER_CORE_HOOKS_HPP_
#define SLUGGER_CORE_HOOKS_HPP_

#include <cstdint>
#include <functional>

#include "util/cancel.hpp"

namespace slugger {
class ThreadPool;
}  // namespace slugger

namespace slugger::core {

/// Snapshot delivered to the progress observer after every completed
/// iteration of the merge phase (Algorithm 1's outer loop).
struct ProgressEvent {
  uint32_t iteration = 0;         ///< 1-based index of the finished iteration
  uint32_t total_iterations = 0;  ///< config.iterations
  uint64_t merges = 0;            ///< accepted merges so far
  uint64_t p_count = 0;           ///< |P+| of the current summary
  uint64_t n_count = 0;           ///< |P-| of the current summary
  uint64_t h_count = 0;           ///< |H| of the current summary
  double elapsed_seconds = 0.0;   ///< wall time since Summarize() began
};

/// Called on the thread driving Summarize (never concurrently with the
/// run itself), once per completed iteration — exactly
/// `config.iterations` times on an uncancelled run. Must not re-enter the
/// engine; firing a CancelToken from inside the observer is supported.
using ProgressObserver = std::function<void(const ProgressEvent&)>;

/// Optional per-run hooks; default-constructed hooks reproduce the plain
/// Summarize(g, config) behavior exactly.
struct SummarizeHooks {
  ProgressObserver progress;

  /// Polled at iteration boundaries, between merges inside both engines
  /// (sequential merges, round-based rounds), and at pruning-round
  /// boundaries. When fired, the run stops early and returns the
  /// best-so-far summary, which is still lossless.
  const CancelToken* cancel = nullptr;

  /// Externally owned worker pool reused across runs; its size overrides
  /// config.num_threads (a pool of size 1 runs the sequential engine and
  /// goes unused). Null: Summarize creates (and tears down) its own pool
  /// when it runs on more than one thread.
  ThreadPool* pool = nullptr;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_HOOKS_HPP_
