// The hierarchical graph summarization model G = (S, P+, P-, H).
#ifndef SLUGGER_SUMMARY_SUMMARY_GRAPH_HPP_
#define SLUGGER_SUMMARY_SUMMARY_GRAPH_HPP_

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "summary/hierarchy_forest.hpp"
#include "util/signed_edge_list.hpp"
#include "util/types.hpp"

namespace slugger::summary {

/// A hierarchical summary of a graph with `num_leaves` subnodes.
///
/// Semantics (paper §II-B): subedge (u, v) exists iff more p-edges than
/// n-edges cover the pair {u, v}; a superedge (A, B) covers {u, v} iff
/// u ∈ A, v ∈ B or vice versa. This implementation restricts superedges to
/// non-nested supernode pairs (self-loops allowed); every encoding SLUGGER
/// produces obeys the restriction, and it keeps partial decompression
/// (Algorithm 4) exact with a single ancestor walk.
///
/// Each supernode's superedges sit in one SignedEdgeList: a packed block
/// that holds exactly its live edges, so a scan over a supernode reads no
/// empty slot, and that counts its n-edges (NegativeCountOf). The order in
/// which ForEachEdgeOf and ForEachEdge report edges is unspecified and
/// changes as edges come and go; no output of the library depends on it
/// (merge and prune decisions sum over groups of edges, and serialization
/// sorts).
class SummaryGraph {
 public:
  explicit SummaryGraph(NodeId num_leaves = 0);

  /// The trivial summary of g: its nodes as singleton leaves, P+ = E, P- and
  /// H empty (paper Alg. 1, lines 1-4). Each leaf's list is its CSR row,
  /// allocated once at its degree, with no lookups (g is simple).
  explicit SummaryGraph(const graph::Graph& g);

  const HierarchyForest& forest() const { return forest_; }
  HierarchyForest& forest() { return forest_; }

  NodeId num_leaves() const { return forest_.num_leaves(); }
  uint64_t p_count() const { return p_count_; }
  uint64_t n_count() const { return n_count_; }
  uint64_t h_count() const { return forest_.h_count(); }

  /// The objective Cost(G) = |P+| + |P-| + |H| (paper Eq. 1).
  uint64_t Cost() const { return p_count_ + n_count_ + h_count(); }

  /// Sign of superedge {a, b}: +1 p-edge, -1 n-edge, 0 absent.
  EdgeSign GetSign(SupernodeId a, SupernodeId b) const;

  /// Inserts superedge {a, b} (a == b encodes a self-loop) with `sign`.
  /// Returns false if an identical-sign edge was already present. Replacing
  /// the opposite sign is a programming error (remove first).
  bool AddEdge(SupernodeId a, SupernodeId b, EdgeSign sign);

  /// Removes superedge {a, b}; returns its former sign (0 if absent).
  EdgeSign RemoveEdge(SupernodeId a, SupernodeId b);

  /// Number of p/n-edges incident to s (self-loop counts once).
  size_t EdgeCountOf(SupernodeId s) const { return adj_[s].size(); }

  /// Number of n-edges incident to s (self-loop counts once).
  size_t NegativeCountOf(SupernodeId s) const {
    return adj_[s].negative_count();
  }

  /// Invokes fn(other, sign) for each superedge incident to s, in
  /// unspecified order; a self-loop reports other == s.
  template <typename Fn>
  void ForEachEdgeOf(SupernodeId s, Fn&& fn) const {
    adj_[s].ForEach(fn);
  }

  /// Invokes fn(a, b, sign) once per superedge (a <= b), in unspecified
  /// order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (SupernodeId a = 0; a < static_cast<SupernodeId>(adj_.size()); ++a) {
      adj_[a].ForEach([&](SupernodeId b, EdgeSign sign) {
        if (a <= b) fn(a, b, sign);
      });
    }
  }

  /// Creates the supernode a ∪ b above roots a and b (two new h-edges).
  SupernodeId Merge(SupernodeId a, SupernodeId b) {
    SupernodeId m = forest_.CreateParent(a, b);
    adj_.emplace_back();
    return m;
  }

  /// Removes supernode s from the forest; all incident p/n-edges must have
  /// been removed already.
  void SpliceOut(SupernodeId s) {
    assert(adj_[s].empty());
    forest_.SpliceOut(s);
  }

  /// Collects the leaves (subnode ids) of s into a reusable buffer, using
  /// a caller-provided traversal stack — safe to call concurrently from
  /// several threads (each with its own buffers).
  void CollectLeaves(SupernodeId s, std::vector<NodeId>* out,
                     std::vector<SupernodeId>* stack) const;

  /// Pre-allocates forest and adjacency storage for `total` supernodes so
  /// Merge never reallocates (see HierarchyForest::Reserve).
  void Reserve(SupernodeId total) {
    forest_.Reserve(total);
    adj_.reserve(total);
  }

 private:
  HierarchyForest forest_;
  std::vector<SignedEdgeList> adj_;
  uint64_t p_count_ = 0;
  uint64_t n_count_ = 0;
};

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_SUMMARY_GRAPH_HPP_
