#include "core/slugger_state.hpp"

#include <cassert>
#include <utility>

namespace slugger::core {

SluggerState::SluggerState(const graph::Graph& g)
    : input_(&g), summary_(g.num_nodes()), dsu_(g.num_nodes()) {
  const NodeId n = g.num_nodes();
  // n leaves plus at most n - 1 merged supernodes.
  max_supernodes_ = n == 0 ? 0 : 2 * n - 1;
  root_of_.resize(n);
  band_root_.resize(n);
  roots_.resize(n);
  root_pos_.resize(n);
  h_.assign(n, 0);
  inc_.assign(n, 0);
  within_.assign(n, 0);
  height_.assign(n, 0);
  root_adj_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    root_of_[u] = u;
    band_root_[u] = u;
    roots_[u] = u;
    root_pos_[u] = u;
  }
  for (const Edge& e : g.Edges()) {
    AddEdge(e.first, e.second, +1);
  }
}

void SluggerState::RootAdjAdd(SupernodeId ra, SupernodeId rb, int delta) {
  uint32_t& ab = root_adj_[ra].GetOrInsert(rb, 0);
  ab = static_cast<uint32_t>(static_cast<int64_t>(ab) + delta);
  if (ab == 0) root_adj_[ra].Erase(rb);
  uint32_t& ba = root_adj_[rb].GetOrInsert(ra, 0);
  ba = static_cast<uint32_t>(static_cast<int64_t>(ba) + delta);
  if (ba == 0) root_adj_[rb].Erase(ra);
}

void SluggerState::AddEdge(SupernodeId x, SupernodeId y, EdgeSign sign) {
  bool inserted = summary_.AddEdge(x, y, sign);
  assert(inserted);
  (void)inserted;
  SupernodeId rx = FindRoot(x);
  SupernodeId ry = FindRoot(y);
  if (rx == ry) {
    ++within_[rx];
    ++inc_[rx];
  } else {
    RootAdjAdd(rx, ry, +1);
    ++inc_[rx];
    ++inc_[ry];
  }
}

EdgeSign SluggerState::RemoveEdge(SupernodeId x, SupernodeId y) {
  SupernodeId rx = FindRoot(x);
  SupernodeId ry = FindRoot(y);
  EdgeSign sign = summary_.RemoveEdge(x, y);
  if (sign == 0) return 0;
  if (rx == ry) {
    --within_[rx];
    --inc_[rx];
  } else {
    RootAdjAdd(rx, ry, -1);
    --inc_[rx];
    --inc_[ry];
  }
  return sign;
}

SupernodeId SluggerState::MergeRoots(SupernodeId a, SupernodeId b) {
  assert(a != b);
  uint32_t between_ab = Between(a, b);
  SupernodeId m = summary_.Merge(a, b);

  // Extend per-supernode arrays to cover m.
  root_of_.push_back(m);
  h_.push_back(h_[a] + h_[b] + 2);
  inc_.push_back(inc_[a] + inc_[b] - between_ab);
  within_.push_back(within_[a] + within_[b] + between_ab);
  height_.push_back(std::max(height_[a], height_[b]) + 1);
  root_adj_.emplace_back();
  root_pos_.push_back(0);

  // Union-find: m joins the merged tree and becomes its root label.
  uint32_t dsu_id = dsu_.Add();
  assert(dsu_id == m);
  (void)dsu_id;
  uint32_t rep = dsu_.Unite(dsu_.Unite(a, b), m);
  root_of_[rep] = m;

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
