// Memoization of optimal local encodings (paper §III-B3).
//
// The best output encoding for a (universe shape, class target) pair is
// independent of the input graph, so solutions are memoized and reused
// across every merge a run evaluates. The table is not thread-safe: each
// merge-engine thread owns one. WarmUp() eagerly enumerates every {0,1}
// target of every shape (the cases SLUGGER's own invariant produces);
// anything else is solved lazily.
#ifndef SLUGGER_CORE_MEMO_TABLE_HPP_
#define SLUGGER_CORE_MEMO_TABLE_HPP_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/encoding_solver.hpp"
#include "core/encoding_universe.hpp"

namespace slugger::core {

/// Cache: (universe code, packed target) -> optimal encoding.
class MemoTable {
 public:
  /// Returns the memoized optimal encoding, solving on first use.
  /// Entries of `target` on inactive classes are ignored.
  const SolvedEncoding& Solve(const Universe& universe, const int8_t* target);

  /// Eagerly solves all {0,1}-valued targets for every universe shape.
  /// Returns the number of entries added.
  size_t WarmUp();

  size_t entry_count() const { return cache_.size(); }

  /// Rough memory footprint of the cache, for the §III-B3 size claim.
  size_t ApproxBytes() const;

 private:
  static uint64_t PackKey(const Universe& universe, const int8_t* target);

  std::unordered_map<uint64_t, SolvedEncoding> cache_;
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_MEMO_TABLE_HPP_
