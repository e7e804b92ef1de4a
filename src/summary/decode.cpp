#include "summary/decode.hpp"

#include <algorithm>
#include <optional>

#include "util/hashing.hpp"

namespace slugger::summary {

namespace {

struct SuperEdge {
  SupernodeId a;
  SupernodeId b;
  EdgeSign sign;
};

/// One covered subnode pair: its canonical key and the covering sign.
using SignedPair = std::pair<uint64_t, int32_t>;

}  // namespace

graph::Graph Decode(const SummaryGraph& summary, ThreadPool* pool) {
  // Without a caller pool the phases run inline on a one-worker pool (it
  // spawns no thread).
  std::optional<ThreadPool> inline_pool;
  if (pool == nullptr) pool = &inline_pool.emplace(1);
  const NodeId n = summary.num_leaves();
  const unsigned workers = pool->size();

  // Snapshot the superedge list so workers can claim disjoint slices.
  std::vector<SuperEdge> supers;
  supers.reserve(summary.p_count() + summary.n_count());
  summary.ForEachEdge([&](SupernodeId a, SupernodeId b, EdgeSign sign) {
    supers.push_back({a, b, sign});
  });

  // Ranges partition the node-id space by the smaller endpoint of a pair.
  // More ranges than workers load-balances skewed supernode sizes; the
  // output is range-count independent (ranges concatenate in id order).
  const uint32_t num_ranges = std::min<uint32_t>(n, workers * 8);
  auto range_of = [&](NodeId min_id) -> uint32_t {
    return static_cast<uint32_t>(static_cast<uint64_t>(min_id) * num_ranges / n);
  };

  // Phase 1: expand superedge slices into per-(worker, range) accumulators.
  // Each signed pair is recorded exactly once, keyed canonically.
  std::vector<std::vector<std::vector<SignedPair>>> buckets(workers);
  for (auto& per_worker : buckets) per_worker.resize(num_ranges);
  struct ExpandScratch {
    std::vector<NodeId> leaves_a;
    std::vector<NodeId> leaves_b;
    std::vector<SupernodeId> stack;
  };
  std::vector<ExpandScratch> scratch(workers);

  constexpr uint64_t kSuperGrain = 8;
  pool->ParallelFor(
      supers.size(), kSuperGrain,
      [&](uint64_t begin, uint64_t end, unsigned worker) {
        ExpandScratch& sc = scratch[worker];
        auto& out = buckets[worker];
        auto emit = [&](NodeId u, NodeId v, EdgeSign sign) {
          uint64_t key = PairKey(u, v);
          out[range_of(PairFirst(key))].emplace_back(key, sign);
        };
        for (uint64_t e = begin; e < end; ++e) {
          const SuperEdge& se = supers[e];
          if (se.a == se.b) {
            summary.CollectLeaves(se.a, &sc.leaves_a, &sc.stack);
            for (size_t i = 0; i < sc.leaves_a.size(); ++i) {
              for (size_t j = i + 1; j < sc.leaves_a.size(); ++j) {
                emit(sc.leaves_a[i], sc.leaves_a[j], se.sign);
              }
            }
          } else {
            summary.CollectLeaves(se.a, &sc.leaves_a, &sc.stack);
            summary.CollectLeaves(se.b, &sc.leaves_b, &sc.stack);
            for (NodeId u : sc.leaves_a) {
              for (NodeId v : sc.leaves_b) emit(u, v, se.sign);
            }
          }
        }
      });

  // Phase 2: per range, gather every worker's bucket, sort it by pair key
  // and sum each key's signs; pairs with positive net coverage come out in
  // canonical order. Range r's keys all precede range r+1's, so per-range
  // outputs concatenate sorted.
  std::vector<std::vector<Edge>> range_edges(num_ranges);
  pool->Run(num_ranges, [&](uint64_t r, unsigned) {
    std::vector<SignedPair> pairs = std::move(buckets[0][r]);
    for (unsigned w = 1; w < workers; ++w) {
      pairs.insert(pairs.end(), buckets[w][r].begin(), buckets[w][r].end());
      std::vector<SignedPair>().swap(buckets[w][r]);
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const SignedPair& x, const SignedPair& y) {
                return x.first < y.first;
              });
    std::vector<Edge>& out = range_edges[r];
    for (size_t i = 0; i < pairs.size();) {
      const uint64_t key = pairs[i].first;
      int32_t net = 0;
      for (; i < pairs.size() && pairs[i].first == key; ++i) {
        net += pairs[i].second;
      }
      if (net > 0) out.emplace_back(PairFirst(key), PairSecond(key));
    }
  });

  std::vector<Edge> edges;
  size_t total_edges = 0;
  for (const auto& re : range_edges) total_edges += re.size();
  edges.reserve(total_edges);
  for (const auto& re : range_edges) {
    edges.insert(edges.end(), re.begin(), re.end());
  }
  return graph::Graph::FromCanonicalEdges(n, std::move(edges));
}

}  // namespace slugger::summary
