// The Algorithm-4 coverage walk, written once for every backend: walk v's
// ancestor chain, add the signed coverage each ancestor's superedges give
// their endpoint leaves, keep the leaves whose net is positive. A backend
// supplies a `Records` type that reads its hierarchy, each call able to
// fail with a Status:
//   using Handle = ...;  // one ancestor; == means the same supernode
//   NodeId num_leaves() const;
//   ForEachAncestor(v, fn)      fn(Handle) -> Status, v's leaf to its root
//   ForEachCovered(node, fn)    fn(u, sign) per leaf u node's edges cover
//   ForEachRank(nodes, fn)      fn(i, leaf-preorder rank of nodes[i]);
//                               only the batch walk needs it
// Both record sources read one fixed-width record layout
// (summary/cover_layout.hpp), so ForEachCovered is a leaf_at scan per
// edge: neighbor_query.cpp instantiates the walk over an in-memory
// CoverLayout, storage/paged_source.cpp over the records of a paged v2
// file. Its one output is the neighbor list, in coverage order, which is
// unspecified; a degree is that list's size.
#ifndef SLUGGER_SUMMARY_COVERAGE_WALK_HPP_
#define SLUGGER_SUMMARY_COVERAGE_WALK_HPP_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "summary/neighbor_query.hpp"
#include "util/radix_sort.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace slugger::summary {

/// Coverage magnitude that dominates any real summary's net on a pair, so
/// an override decides presence no matter what the walk accumulated. Net
/// coverage is bounded by the superedge count, far below INT32_MAX / 2.
inline constexpr int32_t kForcedCoverage = INT32_MAX / 2;

/// Adds one batch's tallies to slugger_query_chain_reuse_total,
/// slugger_query_chain_reset_total and slugger_query_batch_dup_hits_total.
void RecordBatchWalk(uint64_t reuse, uint64_t reset, uint64_t dup);

/// Restores the between-queries invariant after a walk, complete or
/// failed: zero count (and the batch membership flags) over touched.
inline void ClearCoverage(QueryScratch* q,
                          std::vector<uint8_t>* in_touched = nullptr) {
  for (NodeId u : q->touched) {
    q->count[u] = 0;
    if (in_touched != nullptr) (*in_touched)[u] = 0;
  }
  q->touched.clear();
}

inline Status NodeOutOfRange(NodeId v) {
  return Status::InvalidArgument("node id " + std::to_string(v) +
                                 " out of range");
}

/// The raw coverage pass (see AccumulateCoverage). On error the counts
/// are partial; the caller clears them.
template <typename Records>
Status WalkCoverage(const Records& records, NodeId v, QueryScratch* q) {
  const NodeId n = records.num_leaves();
  if (v >= n) return NodeOutOfRange(v);
  if (q->count.size() < n) q->count.resize(n, 0);
  return records.ForEachAncestor(
      v, [&](const typename Records::Handle& node) {
        return records.ForEachCovered(node, [&](NodeId u, EdgeSign sign) {
          if (q->count[u] == 0 && sign != 0) q->touched.push_back(u);
          q->count[u] += sign;
        });
      });
}

/// One node's neighbors into q->result, with `overrides` applied; an
/// override naming a leaf outside the summary names no pair of it and is
/// skipped. On error q->result is empty and the scratch is zeroed.
template <typename Records>
Status WalkQuery(const Records& records, NodeId v, QueryScratch* q,
                 std::span<const NeighborOverride> overrides) {
  q->result.clear();
  Status status = WalkCoverage(records, v, q);
  if (!status.ok()) {
    ClearCoverage(q);
    return status;
  }
  // Duplicates in touched are benign: extraction zeroes each count on
  // first visit, so revisits contribute nothing.
  for (const NeighborOverride& o : overrides) {
    if (o.neighbor >= records.num_leaves()) continue;
    if (q->count[o.neighbor] == 0) q->touched.push_back(o.neighbor);
    q->count[o.neighbor] = o.sign > 0 ? kForcedCoverage : -kForcedCoverage;
  }
  for (NodeId u : q->touched) {
    if (q->count[u] > 0 && u != v) q->result.push_back(u);
    q->count[u] = 0;
  }
  q->touched.clear();
  return Status::OK();
}

/// Fills s->order with the batch positions sorted by hierarchy locality
/// and *chains with the root-first ancestor chains in that processing
/// order, offsets in s->chain_begin. A node equal to its predecessor in
/// the order gets an empty chain; the batch copies its answer. Kept out
/// of line, as CoverAncestor is, so WalkBatch's node loop compiles as it
/// did while two walk modes shared this function; with one caller per
/// record source the compiler would inline it.
template <typename Records>
[[gnu::noinline]] Status WalkBatchOrder(
    const Records& records, std::span<const NodeId> nodes, BatchScratch* s,
    std::vector<typename Records::Handle>* chains) {
  const size_t batch = nodes.size();
  for (NodeId v : nodes) {
    if (v >= records.num_leaves()) return NodeOutOfRange(v);
  }
  // Leaf preorder keeps every subtree's leaves contiguous, so ascending
  // rank clusters shared ancestor chains. Equal ranks mean the same node;
  // the position breaks the tie, keeping the order deterministic. The
  // (rank, position) keys are parked in chain_begin until the chains are
  // built. They arrive in position order and the radix sort is stable, so
  // sorting on the rank bits alone (every rank is below num_leaves) yields
  // the (rank, position) order.
  s->chain_begin.resize(batch);
  Status ranked = records.ForEachRank(nodes, [s](size_t i, uint32_t rank) {
    s->chain_begin[i] = (static_cast<uint64_t>(rank) << 32) | i;
  });
  if (!ranked.ok()) return ranked;
  const auto rank_bits =
      static_cast<unsigned>(std::bit_width(records.num_leaves() - 1u));
  RadixSortBits(s->chain_begin, 32, rank_bits, &s->sort_buffer);
  s->order.resize(batch);
  for (size_t k = 0; k < batch; ++k) {
    s->order[k] = static_cast<uint32_t>(s->chain_begin[k]);
  }

  chains->clear();
  s->chain_begin.assign(1, 0);
  for (size_t k = 0; k < batch; ++k) {
    const NodeId v = nodes[s->order[k]];
    if (k == 0 || nodes[s->order[k - 1]] != v) {
      const size_t begin = chains->size();
      Status climbed = records.ForEachAncestor(
          v, [chains](typename Records::Handle node) {
            chains->push_back(std::move(node));
            return Status::OK();
          });
      if (!climbed.ok()) return climbed;
      std::reverse(chains->begin() + begin, chains->end());
    }
    s->chain_begin.push_back(chains->size());
  }
  return Status::OK();
}

/// Applies (dir = +1) or retracts (dir = -1) one ancestor's coverage in a
/// batch. Counts move both ways across a batch, so "count just became
/// nonzero" no longer means "first time seen": membership in touched is
/// an explicit flag, or duplicates in touched would double-report. Kept
/// out of WalkBatch: inlined there, the leaf loop ran about 8% slower
/// (register pressure).
template <typename Records>
[[gnu::noinline]] Status CoverAncestor(const Records& records,
                     const typename Records::Handle& node, int32_t dir,
                     BatchScratch* s) {
  QueryScratch& q = s->query;
  return records.ForEachCovered(node, [&](NodeId u, EdgeSign sign) {
    if (!s->in_touched[u]) {
      s->in_touched[u] = 1;
      q.touched.push_back(u);
    }
    q.count[u] += dir * sign;
  });
}

/// The batch pass (see QueryNeighborsBatch): neighbor lists into *result
/// in input order. `chains` is the backend's buffer of ancestor handles.
/// On error *result is emptied and the scratch is zeroed, so it serves on
/// as if fresh.
template <typename Records>
Status WalkBatch(const Records& records, std::span<const NodeId> nodes,
                 BatchResult* result, BatchScratch* s,
                 std::vector<typename Records::Handle>* chains) {
  const size_t batch = nodes.size();
  result->neighbors.clear();
  result->offsets.assign(batch + 1, 0);
  if (batch == 0) return Status::OK();
  QueryScratch& q = s->query;
  const auto fail = [&](Status status) {
    ClearCoverage(&q, &s->in_touched);
    result->neighbors.clear();
    result->offsets.clear();
    return status;
  };
  Status ordered = WalkBatchOrder(records, nodes, s, chains);
  if (!ordered.ok()) return fail(ordered);
  const NodeId n = records.num_leaves();
  if (q.count.size() < n) q.count.resize(n, 0);
  if (s->in_touched.size() < n) s->in_touched.resize(n, 0);
  s->staged.clear();
  s->staged_begin.assign(1, 0);

  // The applied coverage is the chain (*chains)[applied_b, applied_b +
  // applied) of the previous node, when the peek kept it; `common` is
  // how much of the current chain it covers (0 after a reset).
  uint64_t applied_b = 0;
  size_t applied = 0;
  size_t common = 0;
  uint64_t obs_reuse = 0, obs_reset = 0, obs_dup = 0;
  for (size_t k = 0; k < batch; ++k) {
    const uint32_t i = s->order[k];
    const NodeId v = nodes[i];

    // A repeated node's answer is identical — copy it instead of
    // re-scanning the coverage. Hot nodes make this common in real
    // serving batches.
    if (k > 0 && nodes[s->order[k - 1]] == v) {
      ++obs_dup;
      const uint64_t prev_b = s->staged_begin[k - 1];
      const uint64_t prev_e = s->staged_begin[k];
      const size_t old_size = s->staged.size();
      s->staged.resize(old_size + (prev_e - prev_b));
      std::copy(s->staged.begin() + prev_b, s->staged.begin() + prev_e,
                s->staged.begin() + old_size);
      s->staged_begin.push_back(s->staged.size());
      continue;
    }

    // Retract only the applied suffix this chain does not share, then
    // apply the rest of this chain. After a reset nothing is applied and
    // this is a full application — the single-query cost.
    const uint64_t chain_b = s->chain_begin[k];
    const size_t chain_len = s->chain_begin[k + 1] - chain_b;
    while (applied > common) {
      --applied;
      Status st = CoverAncestor(records, (*chains)[applied_b + applied], -1, s);
      if (!st.ok()) return fail(st);
    }
    for (size_t d = common; d < chain_len; ++d) {
      Status st = CoverAncestor(records, (*chains)[chain_b + d], +1, s);
      if (!st.ok()) return fail(st);
    }
    applied_b = chain_b;
    applied = chain_len;

    // Peek at the next node that is not a copy of this one: retracting
    // level by level pays off only when more than half of this chain
    // stays applied (retraction walks superedges; zeroing counters in the
    // extraction scan below is nearly free). Otherwise extraction
    // destroys the coverage as it reads it — the single-query strategy.
    size_t next = k + 1;
    while (next < batch && nodes[s->order[next]] == v) ++next;
    size_t next_common = 0;
    if (next < batch) {
      const uint64_t next_b = s->chain_begin[next];
      const size_t next_len = s->chain_begin[next + 1] - next_b;
      while (next_common < chain_len && next_common < next_len &&
             (*chains)[next_b + next_common] ==
                 (*chains)[chain_b + next_common]) {
        ++next_common;
      }
    }
    const bool keep_applied = 2 * next_common > chain_len;

    // Extract positive-net leaves. Two loops, not one with a branch on
    // keep_applied: the merged loop measured slower on the in-memory walk.
    if (keep_applied) {
      ++obs_reuse;
      // Compact away entries whose coverage cancelled back to zero, so
      // touched keeps tracking exactly the applied chain.
      size_t w = 0;
      for (size_t t = 0; t < q.touched.size(); ++t) {
        const NodeId u = q.touched[t];
        const int32_t c = q.count[u];
        if (c == 0) {
          s->in_touched[u] = 0;
          continue;
        }
        q.touched[w++] = u;
        if (c > 0 && u != v) s->staged.push_back(u);
      }
      q.touched.resize(w);
      common = next_common;
    } else {
      ++obs_reset;
      for (const NodeId u : q.touched) {
        if (q.count[u] > 0 && u != v) s->staged.push_back(u);
        q.count[u] = 0;
        s->in_touched[u] = 0;
      }
      q.touched.clear();
      applied = 0;
      common = 0;
    }
    s->staged_begin.push_back(s->staged.size());
  }
  assert(q.touched.empty());  // the last peek finds no successor: reset
  RecordBatchWalk(obs_reuse, obs_reset, obs_dup);

  // Staged answers are in processing order; emit them in input order.
  for (size_t k = 0; k < batch; ++k) {
    result->offsets[s->order[k] + 1] =
        s->staged_begin[k + 1] - s->staged_begin[k];
  }
  for (size_t i = 0; i < batch; ++i) {
    result->offsets[i + 1] += result->offsets[i];
  }
  result->neighbors.resize(s->staged.size());
  for (size_t k = 0; k < batch; ++k) {
    std::copy(s->staged.begin() + s->staged_begin[k],
              s->staged.begin() + s->staged_begin[k + 1],
              result->neighbors.begin() + result->offsets[s->order[k]]);
  }
  return Status::OK();
}

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_COVERAGE_WALK_HPP_
