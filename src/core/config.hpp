// User-facing configuration of the SLUGGER algorithm.
#ifndef SLUGGER_CORE_CONFIG_HPP_
#define SLUGGER_CORE_CONFIG_HPP_

#include <cstdint>

namespace slugger::core {

/// Tuning knobs; defaults follow the paper's experimental settings (§IV-A).
struct SluggerConfig {
  /// Number of candidate-generation + merging iterations T (paper: 20).
  uint32_t iterations = 20;

  /// Seed for every random choice; identical seeds reproduce runs exactly.
  uint64_t seed = 0;

  /// Candidate-set size cap (paper: 500).
  uint32_t max_group_size = 500;

  /// Shingle re-division levels before falling back to random splitting
  /// (paper: 10).
  uint32_t shingle_levels = 10;

  /// Height bound Hb on hierarchy trees (Table V); 0 means unbounded.
  uint32_t max_height = 0;

  /// Pruning rounds over substeps 1-3 (§III-B4); 0 disables pruning.
  uint32_t pruning_rounds = 2;

  /// Worker threads; the count alone picks the merge engine. 1 runs the
  /// sequential engine (the original control flow: one planner, one RNG
  /// stream). 2 or more run the round-based evaluate-parallel /
  /// commit-serial engine, whose output is byte-identical at every such
  /// count, and also run candidate generation on the pool. Pruning has one
  /// algorithm at every count (inline at 1), so it never changes output.
  /// 0 uses all hardware threads.
  uint32_t num_threads = 1;

  /// Debug: validate state aggregates after every iteration (slow); the
  /// verdict lands in SluggerResult::aggregates_valid.
  bool check_aggregates = false;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_CONFIG_HPP_
