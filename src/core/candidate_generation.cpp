#include "core/candidate_generation.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "util/hashing.hpp"

namespace slugger::core {

namespace {

/// Hash key of the level-0 pass for iteration t (kept identical to the
/// historical per-(iteration, level) key so level-0 groupings match the
/// pre-cache implementation exactly).
uint64_t IterationKey(uint64_t seed, uint32_t iteration, uint32_t level) {
  return Mix64(seed ^ (iteration * 0xA5A5A5A5ull) ^ (level * 0x5151FF11ull));
}

constexpr uint64_t kShingleGrain = 2048;

/// Re-division groups below this size are re-keyed inline; larger ones go
/// to the pool (the output is identical either way — each root's shingle
/// lands at its index). Oversized groups exceed max_group_size (500 by
/// default), so in practice every re-division qualifies.
constexpr size_t kParallelRedivideMin = 256;
constexpr uint64_t kRedivideGrain = 16;

}  // namespace

void SortByShingle(std::vector<KeyedRoot>* keyed,
                   std::vector<KeyedRoot>* scratch,
                   std::vector<uint32_t>* bucket_end) {
  const size_t n = keyed->size();
  if (n < 2) return;
  // 2^bits buckets, n/2 to n of them, by the shingle's top bits.
  const int bits = std::bit_width(n) - 1;
  const int shift = 64 - bits;
  const size_t buckets = size_t{1} << bits;
  bucket_end->assign(buckets + 1, 0);
  for (const KeyedRoot& k : *keyed) ++(*bucket_end)[(k.first >> shift) + 1];
  for (size_t b = 0; b < buckets; ++b) {
    (*bucket_end)[b + 1] += (*bucket_end)[b];
  }
  // Scatter; each bucket's cursor ends at the next bucket's start.
  scratch->resize(n);
  for (const KeyedRoot& k : *keyed) {
    (*scratch)[(*bucket_end)[k.first >> shift]++] = k;
  }
  uint32_t begin = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const uint32_t end = (*bucket_end)[b];
    if (end - begin > 1) {
      std::sort(scratch->begin() + begin, scratch->begin() + end);
    }
    begin = end;
  }
  keyed->swap(*scratch);
}

uint64_t CandidateGenerator::LeafShingleAtLevel(NodeId u,
                                                uint64_t level_salt) const {
  uint64_t best = Mix64(node_base_[u] ^ level_salt);
  for (NodeId v : graph_->Neighbors(u)) {
    best = std::min(best, Mix64(node_base_[v] ^ level_salt));
  }
  return best;
}

void CandidateGenerator::BuildIterationCache(const SluggerState& state,
                                             uint32_t iteration,
                                             ThreadPool* pool) {
  const graph::Graph& g = *graph_;
  const summary::HierarchyForest& forest = state.summary().forest();
  const std::vector<SupernodeId>& roots = state.roots();
  const NodeId n = g.num_nodes();

  node_base_.resize(n);
  node_shingle_.resize(n);

  // Pass 1: one keyed hash per node for this iteration.
  KeyedHash hash(IterationKey(seed_, iteration, 0));
  auto base_range = [&](uint64_t begin, uint64_t end, unsigned) {
    for (uint64_t u = begin; u < end; ++u) {
      node_base_[u] = hash(static_cast<NodeId>(u));
    }
  };
  // Pass 2: closed-neighborhood min over the cached hashes (CSR scan).
  auto shingle_range = [&](uint64_t begin, uint64_t end, unsigned) {
    for (uint64_t u = begin; u < end; ++u) {
      uint64_t best = node_base_[u];
      for (NodeId v : g.Neighbors(static_cast<NodeId>(u))) {
        best = std::min(best, node_base_[v]);
      }
      node_shingle_[u] = best;
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->ParallelFor(n, kShingleGrain, base_range);
    pool->ParallelFor(n, kShingleGrain, shingle_range);
  } else {
    base_range(0, n, 0);
    shingle_range(0, n, 0);
  }

  // Bucket leaves per root once (CSR), replacing per-level tree walks.
  // Every supernode takes its root's slot in one sweep down from the
  // highest id: a merge-phase parent has a larger id than its children,
  // so its slot is set before theirs.
  root_slot_.resize(forest.capacity());
  const uint32_t num_roots = static_cast<uint32_t>(roots.size());
  for (uint32_t i = 0; i < num_roots; ++i) root_slot_[roots[i]] = i;
  for (SupernodeId s = forest.capacity(); s-- > 0;) {
    const SupernodeId p = forest.Parent(s);
    if (p == kInvalidId) continue;
    assert(p > s && "merge-phase parents outrank their children");
    root_slot_[s] = root_slot_[p];
  }

  leaf_offsets_.assign(num_roots + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    ++leaf_offsets_[root_slot_[u] + 1];
  }
  for (uint32_t i = 0; i < num_roots; ++i) {
    leaf_offsets_[i + 1] += leaf_offsets_[i];
  }
  leaf_ids_.resize(n);
  {
    std::vector<uint32_t> cursor(leaf_offsets_.begin(),
                                 leaf_offsets_.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      leaf_ids_[cursor[root_slot_[u]]++] = u;
    }
  }

  // Level-0 min-shingle per root: fold the node shingles of its leaves.
  root_shingle_.assign(num_roots, ~0ull);
  for (uint32_t i = 0; i < num_roots; ++i) {
    uint64_t best = ~0ull;
    for (uint32_t k = leaf_offsets_[i]; k < leaf_offsets_[i + 1]; ++k) {
      best = std::min(best, node_shingle_[leaf_ids_[k]]);
    }
    root_shingle_[i] = best;
  }
}

std::vector<std::vector<SupernodeId>> CandidateGenerator::Generate(
    SluggerState& state, uint32_t iteration, ThreadPool* pool) {
  Rng rng(Mix64(seed_ ^ (0x9E3779B9ull * iteration)));
  const std::vector<SupernodeId>& roots = state.roots();

  struct Pending {
    std::vector<SupernodeId> roots;
    uint32_t level;
  };

  std::vector<Pending> work;
  std::vector<std::vector<SupernodeId>> out;
  std::vector<KeyedRoot> keyed;
  std::vector<KeyedRoot> sort_scratch;
  std::vector<uint32_t> bucket_end;

  // Splits one keyed batch into emitted groups and oversized re-divisions.
  auto split_runs = [&](uint32_t level) {
    SortByShingle(&keyed, &sort_scratch, &bucket_end);
    size_t i = 0;
    while (i < keyed.size()) {
      size_t j = i + 1;
      while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
      size_t len = j - i;
      if (len >= 2) {
        std::vector<SupernodeId> sub;
        sub.reserve(len);
        for (size_t k = i; k < j; ++k) sub.push_back(keyed[k].second);
        if (len <= max_group_size_) {
          out.push_back(std::move(sub));
        } else {
          work.push_back({std::move(sub), level + 1});
        }
      }
      i = j;
    }
  };

  if (shingle_levels_ == 0) {
    // Random division only (no shingle pass at all): the level check in
    // the work loop sends the whole root set straight to random splits.
    work.push_back({roots, 0});
  } else {
    // Level 0 over all roots, straight from the per-iteration cache.
    BuildIterationCache(state, iteration, pool);
    keyed.reserve(roots.size());
    for (uint32_t i = 0; i < static_cast<uint32_t>(roots.size()); ++i) {
      keyed.emplace_back(root_shingle_[i], roots[i]);
    }
    split_runs(0);
  }

  while (!work.empty()) {
    Pending group = std::move(work.back());
    work.pop_back();
    if (group.level >= shingle_levels_) {
      // Random division down to the size cap.
      rng.Shuffle(group.roots);
      for (size_t start = 0; start < group.roots.size();
           start += max_group_size_) {
        size_t end = std::min(start + max_group_size_, group.roots.size());
        if (end - start >= 2) {
          out.emplace_back(group.roots.begin() + static_cast<int64_t>(start),
                           group.roots.begin() + static_cast<int64_t>(end));
        }
      }
      continue;
    }

    // Re-divide with a fresh level hash, derived by re-mixing the cached
    // per-node hashes — no keyed-hash pass and no tree walk. Each root's
    // shingle is independent, so deep levels fan out on the pool too.
    uint64_t level_salt = IterationKey(seed_, iteration, group.level);
    keyed.assign(group.roots.size(), {0, 0});
    auto key_range = [&](uint64_t begin, uint64_t end, unsigned) {
      for (uint64_t i = begin; i < end; ++i) {
        SupernodeId r = group.roots[i];
        uint64_t shingle = ~0ull;
        uint32_t slot = root_slot_[r];
        for (uint32_t k = leaf_offsets_[slot]; k < leaf_offsets_[slot + 1];
             ++k) {
          shingle =
              std::min(shingle, LeafShingleAtLevel(leaf_ids_[k], level_salt));
        }
        keyed[i] = {shingle, r};
      }
    };
    if (pool != nullptr && pool->size() > 1 &&
        group.roots.size() >= kParallelRedivideMin) {
      pool->ParallelFor(group.roots.size(), kRedivideGrain, key_range);
    } else {
      key_range(0, group.roots.size(), 0);
    }
    split_runs(group.level);
  }
  return out;
}

}  // namespace slugger::core
