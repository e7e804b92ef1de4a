// Full decompression of a hierarchical summary back to the input graph.
#ifndef SLUGGER_SUMMARY_DECODE_HPP_
#define SLUGGER_SUMMARY_DECODE_HPP_

#include "graph/graph.hpp"
#include "summary/summary_graph.hpp"
#include "util/thread_pool.hpp"

namespace slugger::summary {

/// Reconstructs the exact graph a summary represents: subedge (u, v) exists
/// iff the net signed coverage of {u, v} is positive (paper §II-B).
/// Cost is linear in the total pair coverage of all superedges, which for
/// SLUGGER outputs is O(|E| + cancelled pairs).
///
/// Workers expand disjoint slices of the superedge list into per-worker
/// accumulators bucketed by the smaller endpoint's node range, then each
/// range is reduced and emitted independently. A null `pool` runs the same
/// phases inline on the calling thread. The decoded graph is identical for
/// every pool size (including none) — net coverage per pair is a sum, and
/// ranges concatenate in canonical order.
graph::Graph Decode(const SummaryGraph& summary, ThreadPool* pool = nullptr);

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_DECODE_HPP_
