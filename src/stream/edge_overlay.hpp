// stream::EdgeOverlay — the signed correction set of the dynamic-update
// subsystem (ISSUE 5).
//
// A summarized graph is immutable, but a served graph mutates. The
// overlay layers a set of raw-edge corrections over one base summary:
// edges ADDED to the represented graph (absent in the base) and edges
// REMOVED from it (present in the base). The mutated graph a
// slugger::DynamicGraph serves is, by definition,
//
//     decode(base) ∪ {added} \ {removed}
//
// and the overlay maintains exactly one invariant that makes queries and
// compaction cheap: a +1 correction's edge is NOT in the base graph and
// a -1 correction's edge IS. Every Apply() preserves it (re-inserting a
// removed base edge erases the correction instead of stacking a second
// one), so the net degree delta of a node is a plain sum of signs and a
// correction list plugs straight into the summary query walk as
// NeighborOverride spans.
//
// Thread-safety: const members are safe from any number of threads.
// Apply() requires external exclusion; DynamicGraph never mutates a
// shared overlay — it copies, applies, and publishes the copy
// (copy-on-write), so readers hold immutable overlays only.
#ifndef SLUGGER_STREAM_EDGE_OVERLAY_HPP_
#define SLUGGER_STREAM_EDGE_OVERLAY_HPP_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "summary/neighbor_query.hpp"
#include "util/types.hpp"

namespace slugger::stream {

/// The per-pair correction vocabulary shared with the summary query walk.
using summary::NeighborOverride;

enum class EditKind : uint8_t {
  kInsert = 0,  ///< ensure the edge exists in the represented graph
  kDelete = 1,  ///< ensure the edge does not exist
};

/// One raw-edge mutation. Endpoints are subnode ids of the base graph
/// (the node universe is fixed; edits cannot grow it) and u != v — both
/// are validated at the DynamicGraph boundary, not here.
struct EdgeEdit {
  NodeId u;
  NodeId v;
  EditKind kind;
};

class EdgeOverlay {
 public:
  EdgeOverlay() = default;

  /// Applies one edit and returns true iff it changed the represented
  /// graph (an insert of a present edge / delete of an absent one is a
  /// redundant no-op). `base_has_edge` is invoked at most once, and only
  /// when the pair carries no correction yet, to learn whether {u, v} is
  /// an edge of the BASE graph — the caller answers it with a summary
  /// query. The overlay trusts the answer for its invariant.
  template <typename BaseHasEdgeFn>
  bool Apply(const EdgeEdit& edit, BaseHasEdgeFn&& base_has_edge) {
    const EdgeSign current = CorrectionSign(edit.u, edit.v);
    if (edit.kind == EditKind::kInsert) {
      if (current > 0) return false;  // already added
      if (current < 0) {              // re-insert of a removed base edge
        EraseCorrection(edit.u, edit.v);
        --removed_;
        return true;
      }
      if (base_has_edge()) return false;  // already present in the base
      SetCorrection(edit.u, edit.v, +1);
      ++added_;
      return true;
    }
    if (current < 0) return false;  // already removed
    if (current > 0) {              // delete of a previously added edge
      EraseCorrection(edit.u, edit.v);
      --added_;
      return true;
    }
    if (!base_has_edge()) return false;  // absent in the base too
    SetCorrection(edit.u, edit.v, -1);
    ++removed_;
    return true;
  }

  /// The corrections incident to v, sorted by neighbor id — ready to be
  /// merged into a query as summary::QueryNeighbors overrides. Empty for
  /// clean nodes. The span is valid until the next mutation.
  std::span<const NeighborOverride> DeltasOf(NodeId v) const {
    auto it = deltas_.find(v);
    if (it == deltas_.end()) return {};
    return {it->second.data(), it->second.size()};
  }

  /// Exact degree change of v in the mutated graph vs. the base: the sum
  /// of correction signs (the invariant makes each sign worth exactly
  /// one edge of difference).
  int64_t DegreeDelta(NodeId v) const {
    int64_t delta = 0;
    for (const NeighborOverride& o : DeltasOf(v)) delta += o.sign;
    return delta;
  }

  /// Sign of the correction on pair {u, v}: +1 added, -1 removed, 0 none.
  EdgeSign CorrectionSign(NodeId u, NodeId v) const;

  /// Invokes fn(u, v, sign) once per correction, with u < v.
  template <typename Fn>
  void ForEachCorrection(Fn&& fn) const {
    for (const auto& [node, list] : deltas_) {
      for (const NeighborOverride& o : list) {
        if (node < o.neighbor) fn(node, o.neighbor, o.sign);
      }
    }
  }

  uint64_t added_count() const { return added_; }
  uint64_t removed_count() const { return removed_; }

  /// Total corrections — the overlay's contribution to the cost model
  /// (each correction is one extra stored "edge" on top of the summary).
  uint64_t correction_count() const { return added_ + removed_; }
  bool empty() const { return correction_count() == 0; }

  /// Number of nodes with at least one incident correction — the dirty
  /// set whose size decides localized folding vs. a global rebuild.
  size_t dirty_node_count() const { return deltas_.size(); }

 private:
  void SetCorrection(NodeId u, NodeId v, EdgeSign sign);
  void EraseCorrection(NodeId u, NodeId v);
  void SetDirected(NodeId from, NodeId to, EdgeSign sign);
  void EraseDirected(NodeId from, NodeId to);

  /// Per-node sorted correction lists; every correction appears under
  /// both endpoints. Empty lists are erased so dirty_node_count() stays
  /// the size of the true dirty set.
  std::unordered_map<NodeId, std::vector<NeighborOverride>> deltas_;
  uint64_t added_ = 0;
  uint64_t removed_ = 0;
};

/// The mutated graph the overlay represents over `base`: applies every
/// correction to the decoded edge list. Used by rebuild compaction and
/// by tests; linear in |base| + |overlay|.
graph::Graph ApplyOverlay(const graph::Graph& base, const EdgeOverlay& overlay);

}  // namespace slugger::stream

#endif  // SLUGGER_STREAM_EDGE_OVERLAY_HPP_
