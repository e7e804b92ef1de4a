// Core integral type aliases shared across the library.
#ifndef SLUGGER_UTIL_TYPES_HPP_
#define SLUGGER_UTIL_TYPES_HPP_

#include <cstdint>
#include <utility>

namespace slugger {

/// Identifier of a subnode (a vertex of the input graph).
using NodeId = uint32_t;

/// Identifier of a supernode (a set of subnodes, a vertex of the summary).
/// The first |V| supernode ids coincide with subnode ids (singleton leaves).
using SupernodeId = uint32_t;

/// Sentinel for "no node" / "no parent".
inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

/// Largest representable leaf count: summarizing n leaves can allocate up
/// to n - 1 fresh supernode ids, so 2n - 2 must stay below kInvalidId.
/// Shared by Engine::Summarize (input gate) and DeserializeSummary
/// (untrusted-buffer gate) so a file that loads also round-trips.
inline constexpr NodeId kMaxNodes = (kInvalidId >> 1) + 1;

/// Sign of a superedge: +1 for a p-edge, -1 for an n-edge.
using EdgeSign = int8_t;

/// An undirected subedge, canonicalized so that first <= second.
using Edge = std::pair<NodeId, NodeId>;

/// Canonicalizes an undirected edge (order endpoints).
inline Edge MakeEdge(NodeId u, NodeId v) {
  return u <= v ? Edge{u, v} : Edge{v, u};
}

}  // namespace slugger

#endif  // SLUGGER_UTIL_TYPES_HPP_
