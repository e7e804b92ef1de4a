#include "core/pruning.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "util/hashing.hpp"

namespace slugger::core {

namespace {

using summary::HierarchyForest;
using summary::SummaryGraph;

// Every substep evaluates against a frozen state on the pool and applies
// serially in a fixed order, so the apply order never depends on which
// worker evaluated what: the pruned summary is the same at every pool size.

/// Whether root `a` qualifies for substep 2 against the current state; on
/// success fills its single neighbor `b` and the edge sign. Read-only —
/// shared by the parallel evaluate phase and the serial revalidation
/// before an apply.
bool EvaluateStep2(const SummaryGraph& summary, SupernodeId a, SupernodeId* b,
                   EdgeSign* sign) {
  const HierarchyForest& forest = summary.forest();
  if (!forest.IsAlive(a) || !forest.IsRoot(a) || forest.IsLeaf(a)) {
    return false;
  }
  if (summary.EdgeCountOf(a) != 1) return false;

  *b = kInvalidId;
  *sign = 0;
  summary.ForEachEdgeOf(a, [&](SupernodeId other, EdgeSign s) {
    *b = other;
    *sign = s;
  });
  if (*b == a) return false;  // a lone self-loop cannot be pushed down

  // A same-sign (child, b) edge would leave a coverage deficit after the
  // rewrite; it cannot arise from SLUGGER's own encodings, but skip the
  // root defensively rather than corrupt the summary.
  for (SupernodeId c : forest.Children(a)) {
    if (summary.GetSign(c, *b) == *sign) return false;
  }
  return true;
}

/// Applies one substep-2 dissolution (paper Algorithm 3, lines 17-23):
/// replaces (a, b) by one edge per child of a, cancelling against existing
/// opposite-sign (child, b) edges, then splices a out.
template <typename OnTouched>
void ApplyStep2(SummaryGraph* summary, SupernodeId a, SupernodeId b,
                EdgeSign sign, OnTouched&& on_touched) {
  const HierarchyForest& forest = summary->forest();
  summary->RemoveEdge(a, b);
  // Children of a partition a exactly, so replacing (a, b) by one edge
  // per child preserves coverage; an existing opposite-sign (child, b)
  // cancels instead.
  for (SupernodeId c : forest.Children(a)) {
    EdgeSign existing = summary->GetSign(c, b);
    if (existing == -sign) {
      summary->RemoveEdge(c, b);
    } else {
      summary->AddEdge(c, b, sign);
    }
    on_touched(c);  // children become roots; may now qualify
  }
  on_touched(b);  // b's incident-edge set changed; may (dis)qualify
  summary->SpliceOut(a);
}

/// Substep 1: splice out edge-free non-leaf supernodes. The predicate of
/// one candidate is unaffected by splicing another (edge counts and
/// leaf-ness never change), so one frozen-state scan finds every candidate;
/// they splice in descending id order. Returns #removed.
uint64_t PruneStep1(SummaryGraph* summary, ThreadPool* pool) {
  const HierarchyForest& forest = summary->forest();
  const unsigned workers = pool->size();
  std::vector<std::vector<SupernodeId>> found(workers);
  constexpr uint64_t kGrain = 4096;
  pool->ParallelFor(forest.capacity(), kGrain,
                    [&](uint64_t begin, uint64_t end, unsigned w) {
                      for (uint64_t i = begin; i < end; ++i) {
                        SupernodeId s = static_cast<SupernodeId>(i);
                        if (!forest.IsAlive(s) || forest.IsLeaf(s)) continue;
                        if (summary->EdgeCountOf(s) != 0) continue;
                        found[w].push_back(s);
                      }
                    });
  std::vector<SupernodeId> all;
  for (const auto& f : found) all.insert(all.end(), f.begin(), f.end());
  std::sort(all.begin(), all.end(), std::greater<SupernodeId>());
  for (SupernodeId s : all) summary->SpliceOut(s);
  return all.size();
}

/// Substep 2: dissolve non-leaf roots with exactly one incident non-loop
/// edge, pushing the edge down to every child with sign cancellation.
/// Round-based: every frontier root is evaluated in parallel against the
/// same frozen state, then the qualifying dissolutions apply serially in
/// ascending id order. An apply may invalidate a later candidate of the
/// same round (it rewrites edges incident to b and to the children), so a
/// candidate whose recorded nodes were touched this round is re-evaluated
/// before applying. Touched nodes and fresh roots seed the next frontier.
/// Returns #removed.
uint64_t PruneStep2(SummaryGraph* summary, ThreadPool* pool) {
  const HierarchyForest& forest = summary->forest();
  struct Candidate {
    SupernodeId b = kInvalidId;
    EdgeSign sign = 0;
    bool ok = false;
  };
  uint64_t removed = 0;
  std::vector<SupernodeId> frontier = forest.CollectRoots();
  std::sort(frontier.begin(), frontier.end());
  // 0 = untouched this round; applies stamp the nodes they rewrite.
  std::vector<uint8_t> touched(forest.capacity(), 0);
  std::vector<Candidate> cands;
  std::vector<SupernodeId> next;
  constexpr uint64_t kGrain = 32;
  while (!frontier.empty()) {
    cands.assign(frontier.size(), Candidate{});
    pool->ParallelFor(frontier.size(), kGrain,
                      [&](uint64_t begin, uint64_t end, unsigned) {
                        for (uint64_t i = begin; i < end; ++i) {
                          Candidate& c = cands[i];
                          c.ok = EvaluateStep2(*summary, frontier[i], &c.b,
                                               &c.sign);
                        }
                      });
    next.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (!cands[i].ok) continue;
      SupernodeId a = frontier[i];
      SupernodeId b = cands[i].b;
      EdgeSign sign = cands[i].sign;
      // `a`'s own edge set only changes when a is stamped (a root is never
      // another dissolution's child); a stale partner or stale child signs
      // require stamps on a or b.
      if (touched[a] || touched[b]) {
        if (!EvaluateStep2(*summary, a, &b, &sign)) continue;
      }
      ApplyStep2(summary, a, b, sign, [&](SupernodeId t) {
        touched[t] = 1;
        next.push_back(t);
      });
      // Stamp the dissolved root too: a later candidate of this round may
      // have recorded it as its partner, whose edges just vanished.
      touched[a] = 1;
      next.push_back(a);
      ++removed;
    }
    for (SupernodeId t : next) touched[t] = 0;
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
  }
  return removed;
}

/// Dense index of substep 3's adjacent root pairs: an open-addressing
/// table (linear probing) from a root-pair key to its insertion rank, so
/// every per-pair count is an array. Slots hold only the rank (keys live
/// once, in keys()), which keeps the table small. Filled serially, then
/// read-only: Find is safe from several workers at once.
class PairIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Sized for at most `max_keys` keys at load factor <= 1/2.
  explicit PairIndex(uint64_t max_keys) {
    uint64_t capacity = 16;
    while (capacity < 2 * max_keys) capacity <<= 1;
    slots_.assign(capacity, kNone);
    mask_ = capacity - 1;
    keys_.reserve(max_keys);
  }

  /// The key's index, inserting it as keys().size() if absent.
  uint32_t Insert(uint64_t key) {
    for (uint64_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      uint32_t& slot = slots_[i];
      if (slot == kNone) {
        slot = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        return slot;
      }
      if (keys_[slot] == key) return slot;
    }
  }

  /// The key's index, or kNone.
  uint32_t Find(uint64_t key) const {
    for (uint64_t i = Mix64(key) & mask_;; i = (i + 1) & mask_) {
      const uint32_t slot = slots_[i];
      if (slot == kNone || keys_[slot] == key) return slot;
    }
  }

  /// Keys by index.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  std::vector<uint32_t> slots_;  ///< key index, or kNone for an empty slot
  uint64_t mask_ = 0;
  std::vector<uint64_t> keys_;
};

/// Substep 3: per adjacent root pair (including self pairs), switch to the
/// optimal flat encoding when strictly cheaper. Superedges are tallied per
/// root pair once, into a dense pair index, so subedge counts and decisions
/// are per-pair arrays. The counts, the removal sweep and the leaf-level
/// correction products run on the pool against the frozen state; edits
/// apply serially in pair-key order. Returns #pairs rewritten.
uint64_t PruneStep3(SummaryGraph* summary, const graph::Graph& g,
                    ThreadPool* pool) {
  const HierarchyForest& forest = summary->forest();
  const std::vector<SupernodeId> root_map = forest.ComputeRootMap();
  const SupernodeId cap = forest.capacity();
  const unsigned workers = pool->size();
  constexpr uint64_t kNodeGrain = 2048;
  constexpr uint64_t kEdgeGrain = 8192;

  // Superedge count per root pair. Both are sized up front for the most
  // pairs there can be (one per superedge).
  const uint64_t max_pairs = summary->p_count() + summary->n_count();
  PairIndex pairs(max_pairs);
  std::vector<uint32_t> superedges;
  superedges.reserve(max_pairs);
  summary->ForEachEdge([&](SupernodeId x, SupernodeId y, EdgeSign) {
    const uint32_t p = pairs.Insert(PairKey(root_map[x], root_map[y]));
    if (p == superedges.size()) superedges.push_back(0);
    ++superedges[p];
  });
  const size_t num_pairs = superedges.size();
  if (num_pairs == 0) return 0;
  const std::vector<uint64_t>& pair_key = pairs.keys();
  auto index_of = [&](SupernodeId x, SupernodeId y) {
    return pairs.Find(PairKey(root_map[x], root_map[y]));
  };

  // Subedge count per pair (only pairs with superedges can be marked), in
  // per-worker arrays summed into worker 0's.
  std::vector<std::vector<uint64_t>> sub_local(workers);
  sub_local[0].assign(num_pairs, 0);
  const auto& graph_edges = g.Edges();
  pool->ParallelFor(graph_edges.size(), kEdgeGrain,
                    [&](uint64_t begin, uint64_t end, unsigned w) {
                      auto& local = sub_local[w];
                      if (local.empty()) local.assign(num_pairs, 0);
                      for (uint64_t i = begin; i < end; ++i) {
                        const Edge& e = graph_edges[i];
                        uint32_t p = index_of(e.first, e.second);
                        if (p != PairIndex::kNone) ++local[p];
                      }
                    });
  std::vector<uint64_t>& subedges = sub_local[0];
  for (unsigned w = 1; w < workers; ++w) {
    for (size_t p = 0; p < sub_local[w].size(); ++p) {
      subedges[p] += sub_local[w][p];
    }
  }

  // Decide each pair: keep it, re-encode it as a superedge plus n-edge
  // corrections, or as p-edge corrections alone. Marked pairs apply in
  // pair-key order.
  enum Action : uint8_t { kKeep, kSuperedge, kCorrectionsOnly };
  std::vector<uint8_t> action(num_pairs, kKeep);
  std::vector<uint32_t> marked;
  for (uint32_t p = 0; p < num_pairs; ++p) {
    SupernodeId ra = PairFirst(pair_key[p]);
    SupernodeId rb = PairSecond(pair_key[p]);
    uint64_t e_ab = subedges[p];
    uint64_t sa = forest.Size(ra);
    uint64_t t_ab = ra == rb ? sa * (sa - 1) / 2 : sa * forest.Size(rb);
    uint64_t with_super = 1 + (t_ab - e_ab);
    if (std::min(e_ab, with_super) >= superedges[p]) continue;
    action[p] = e_ab <= with_super ? kCorrectionsOnly : kSuperedge;
    marked.push_back(p);
  }
  if (marked.empty()) return 0;
  std::sort(marked.begin(), marked.end(), [&](uint32_t a, uint32_t b) {
    return pair_key[a] < pair_key[b];
  });

  // Collect and apply the removals of every marked pair's superedges.
  std::vector<std::vector<std::pair<SupernodeId, SupernodeId>>> rem_local(
      workers);
  pool->ParallelFor(cap, kNodeGrain,
                    [&](uint64_t begin, uint64_t end, unsigned w) {
                      auto& local = rem_local[w];
                      for (uint64_t i = begin; i < end; ++i) {
                        SupernodeId x = static_cast<SupernodeId>(i);
                        summary->ForEachEdgeOf(
                            x, [&](SupernodeId y, EdgeSign) {
                              if (x > y) return;  // each superedge once
                              if (action[index_of(x, y)] != kKeep) {
                                local.emplace_back(x, y);
                              }
                            });
                      }
                    });
  for (const auto& local : rem_local) {
    for (const auto& [x, y] : local) summary->RemoveEdge(x, y);
  }

  // Build each superedge-encoded pair's correction edges in parallel (the
  // leaf cross products dominate substep 3), then apply serially.
  struct Scratch {
    std::vector<NodeId> leaves_a;
    std::vector<NodeId> leaves_b;
    std::vector<SupernodeId> stack;
  };
  std::vector<Scratch> scratch(workers);
  std::vector<std::vector<Edge>> n_edges(marked.size());
  pool->Run(marked.size(), [&](uint64_t idx, unsigned w) {
    const uint32_t p = marked[idx];
    if (action[p] != kSuperedge) return;  // p-edges come from the sweep below
    Scratch& sc = scratch[w];
    SupernodeId ra = PairFirst(pair_key[p]);
    SupernodeId rb = PairSecond(pair_key[p]);
    std::vector<Edge>& out = n_edges[idx];
    summary->CollectLeaves(ra, &sc.leaves_a, &sc.stack);
    if (ra == rb) {
      for (size_t i = 0; i < sc.leaves_a.size(); ++i) {
        for (size_t j = i + 1; j < sc.leaves_a.size(); ++j) {
          if (!g.HasEdge(sc.leaves_a[i], sc.leaves_a[j])) {
            out.emplace_back(sc.leaves_a[i], sc.leaves_a[j]);
          }
        }
      }
    } else {
      summary->CollectLeaves(rb, &sc.leaves_b, &sc.stack);
      for (NodeId u : sc.leaves_a) {
        for (NodeId v : sc.leaves_b) {
          if (!g.HasEdge(u, v)) out.emplace_back(u, v);
        }
      }
    }
  });

  // Correction p-edges for pairs encoded without a superedge.
  std::vector<std::vector<Edge>> p_local(workers);
  pool->ParallelFor(graph_edges.size(), kEdgeGrain,
                    [&](uint64_t begin, uint64_t end, unsigned w) {
                      auto& local = p_local[w];
                      for (uint64_t i = begin; i < end; ++i) {
                        const Edge& e = graph_edges[i];
                        uint32_t p = index_of(e.first, e.second);
                        if (p != PairIndex::kNone && action[p] == kCorrectionsOnly) {
                          local.push_back(e);
                        }
                      }
                    });

  // Serial apply: superedges + their n-edge corrections, then p-edges.
  for (size_t idx = 0; idx < marked.size(); ++idx) {
    const uint32_t p = marked[idx];
    if (action[p] != kSuperedge) continue;
    summary->AddEdge(PairFirst(pair_key[p]), PairSecond(pair_key[p]), +1);
    for (const Edge& e : n_edges[idx]) summary->AddEdge(e.first, e.second, -1);
  }
  for (const auto& local : p_local) {
    for (const Edge& e : local) summary->AddEdge(e.first, e.second, +1);
  }
  return marked.size();
}

}  // namespace

PruneAblation PruneSummary(summary::SummaryGraph* summary,
                           const graph::Graph& g,
                           const PruneOptions& options) {
  // Without a caller pool the substeps run inline on a one-worker pool
  // (it spawns no thread); the pruned summary is the same either way.
  std::optional<ThreadPool> inline_pool;
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &inline_pool.emplace(1);
  PruneAblation ablation;
  ablation.stage[0] = summary::ComputeStats(*summary);
  for (uint32_t round = 0; round < options.rounds; ++round) {
    if (IsCancelled(options.cancel)) {
      if (round == 0) {
        // Cancelled before any pruning: the ablation snapshots degenerate
        // to the pre-prune state so Table IV consumers still see totals.
        for (int i = 1; i < 4; ++i) ablation.stage[i] = ablation.stage[0];
      }
      break;
    }
    uint64_t changes = 0;
    if (options.enable_step1) changes += PruneStep1(summary, pool);
    if (round == 0) ablation.stage[1] = summary::ComputeStats(*summary);
    if (options.enable_step2) changes += PruneStep2(summary, pool);
    if (round == 0) ablation.stage[2] = summary::ComputeStats(*summary);
    if (options.enable_step3) changes += PruneStep3(summary, g, pool);
    if (round == 0) ablation.stage[3] = summary::ComputeStats(*summary);
    if (changes == 0) break;
  }
  return ablation;
}

}  // namespace slugger::core
