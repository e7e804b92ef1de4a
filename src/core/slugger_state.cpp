#include "core/slugger_state.hpp"

#include <cassert>
#include <unordered_map>
#include <utility>

#include "util/hashing.hpp"

namespace slugger::core {

SluggerState::SluggerState(const graph::Graph& g)
    : input_(&g), summary_(g) {
  const NodeId n = g.num_nodes();
  // n leaves plus at most n - 1 merged supernodes.
  max_supernodes_ = n == 0 ? 0 : 2 * n - 1;
  band_root_.resize(n);
  roots_.resize(n);
  root_pos_.resize(n);
  h_.assign(n, 0);
  inc_.assign(n, 0);
  within_.assign(n, 0);
  height_.assign(n, 0);
  root_adj_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    band_root_[u] = u;
    roots_[u] = u;
    root_pos_[u] = u;
  }
  // Every root is a leaf, so a leaf's root adjacency is its CSR row with
  // count 1, in a map sized once for it.
  for (NodeId u = 0; u < n; ++u) {
    const auto neighbors = g.Neighbors(u);
    inc_[u] = neighbors.size();
    root_adj_[u].Reserve(neighbors.size());
    for (NodeId v : neighbors) root_adj_[u].Put(v, 1);
  }
}

void SluggerState::AddEdge(SupernodeId x, SupernodeId y, EdgeSign sign) {
  bool inserted = summary_.AddEdge(x, y, sign);
  assert(inserted);
  (void)inserted;
  SupernodeId rx = FindRoot(x);
  SupernodeId ry = FindRoot(y);
  if (rx == ry) {
    ShiftWithin(rx, +1);
  } else {
    ShiftBetween(rx, ry, +1);
  }
}

// The counters are unsigned and never go negative, so adding a negative
// delta modulo 2^64 (or 2^32) lands on the right value.
void SluggerState::ShiftWithin(SupernodeId root, int64_t delta) {
  within_[root] += static_cast<uint64_t>(delta);
  inc_[root] += static_cast<uint64_t>(delta);
}

void SluggerState::ShiftBetween(SupernodeId a, SupernodeId b,
                                int64_t delta) {
  assert(a != b);
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    uint32_t& count = root_adj_[from].GetOrInsert(to, 0);
    count += static_cast<uint32_t>(delta);
    if (count == 0) root_adj_[from].Erase(to);
    inc_[from] += static_cast<uint64_t>(delta);
  }
}

SupernodeId SluggerState::MergeRoots(SupernodeId a, SupernodeId b) {
  assert(a != b);
  uint32_t between_ab = Between(a, b);
  SupernodeId m = summary_.Merge(a, b);

  // Extend per-supernode arrays to cover m.
  h_.push_back(h_[a] + h_[b] + 2);
  inc_.push_back(inc_[a] + inc_[b] - between_ab);
  within_.push_back(within_[a] + within_[b] + between_ab);
  height_.push_back(std::max(height_[a], height_[b]) + 1);
  root_adj_.emplace_back();
  root_pos_.push_back(0);

  // Top band: a and b become children of m; their children drop out.
  band_root_.push_back(m);
  for (SupernodeId r : {a, b}) {
    for (SupernodeId c : summary_.forest().Children(r)) {
      band_root_[c] = kInvalidId;
    }
    band_root_[r] = m;
  }

  // Update the root list: remove a and b, add m.
  auto remove_root = [&](SupernodeId r) {
    uint32_t pos = root_pos_[r];
    SupernodeId last = roots_.back();
    roots_[pos] = last;
    root_pos_[last] = pos;
    roots_.pop_back();
  };
  remove_root(a);
  remove_root(b);
  root_pos_[m] = static_cast<uint32_t>(roots_.size());
  roots_.push_back(m);

  // Fold root adjacencies of a and b into m: the larger side's map is
  // moved wholesale and becomes m's, so only the smaller side pays map
  // inserts into m. Back-pointer rewrites (other -> a/b becoming
  // other -> m) are unavoidable on both sides.
  SupernodeId big = root_adj_[a].size() >= root_adj_[b].size() ? a : b;
  SupernodeId small = big == a ? b : a;
  FlatCountMap& m_adj = root_adj_[m];
  m_adj = std::move(root_adj_[big]);
  root_adj_[big].clear();  // normalize the moved-from map
  m_adj.Erase(small);      // between(a, b) edges became within(m)
  m_adj.ForEach([&](SupernodeId other, uint32_t count) {
    root_adj_[other].Erase(big);
    root_adj_[other].GetOrInsert(m, 0) += count;
  });
  root_adj_[small].ForEach([&](SupernodeId other, uint32_t count) {
    if (other == big) return;  // became within(m)
    root_adj_[other].Erase(small);
    root_adj_[other].GetOrInsert(m, 0) += count;
    m_adj.GetOrInsert(other, 0) += count;
  });
  root_adj_[small].clear();
  return m;
}

uint64_t SluggerState::TotalCostFromAggregates() const {
  // sum inc double-counts inter-tree edges; each root_adj entry appears
  // twice (once per side).
  uint64_t inc_sum = 0;
  uint64_t adj_sum = 0;
  for (SupernodeId r : roots_) {
    inc_sum += inc_[r];
    root_adj_[r].ForEach([&](SupernodeId, uint32_t c) { adj_sum += c; });
  }
  return summary_.h_count() + inc_sum - adj_sum / 2;
}

bool SluggerState::ValidateAggregates() const {
  // Recompute everything from scratch and compare.
  const auto& forest = summary_.forest();
  std::vector<SupernodeId> root_map = forest.ComputeRootMap();
  std::vector<uint64_t> h(forest.capacity(), 0);
  std::vector<uint64_t> inc(forest.capacity(), 0);
  std::vector<uint64_t> within(forest.capacity(), 0);
  for (SupernodeId s = 0; s < forest.capacity(); ++s) {
    if (forest.IsAlive(s) && forest.Parent(s) != kInvalidId) {
      ++h[root_map[s]];
    }
  }
  bool ok = true;
  summary_.ForEachEdge([&](SupernodeId x, SupernodeId y, EdgeSign) {
    SupernodeId rx = root_map[x];
    SupernodeId ry = root_map[y];
    if (rx == ry) {
      ++within[rx];
      ++inc[rx];
    } else {
      ++inc[rx];
      ++inc[ry];
    }
  });
  for (SupernodeId r : roots_) {
    if (h[r] != h_[r] || inc[r] != inc_[r] || within[r] != within_[r]) {
      ok = false;
    }
  }
  // Root adjacency: each root pair's inter-tree edge count, recomputed from
  // the edges, must sit in both roots' maps, and nothing else may.
  std::unordered_map<uint64_t, uint32_t> between;
  summary_.ForEachEdge([&](SupernodeId x, SupernodeId y, EdgeSign) {
    if (root_map[x] != root_map[y]) {
      ++between[PairKey(root_map[x], root_map[y])];
    }
  });
  uint64_t entries = 0;
  for (SupernodeId s = 0; s < root_adj_.size(); ++s) {
    root_adj_[s].ForEach([&](SupernodeId other, uint32_t count) {
      ++entries;
      auto it = between.find(PairKey(s, other));
      if (it == between.end() || it->second != count) ok = false;
    });
  }
  if (entries != 2 * between.size()) ok = false;
  for (SupernodeId s = 0; s < forest.capacity(); ++s) {
    if (!forest.IsAlive(s)) continue;
    const SupernodeId p = forest.Parent(s);
    const SupernodeId band = p == kInvalidId                  ? s
                             : forest.Parent(p) == kInvalidId ? p
                                                              : kInvalidId;
    if (band_root_[s] != band) ok = false;
  }
  return ok;
}

}  // namespace slugger::core
