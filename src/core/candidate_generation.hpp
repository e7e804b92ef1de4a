// Candidate generation via min-hash shingles (paper §III-B2).
//
// Roots whose subnodes share a minimum hash over their closed neighborhoods
// (in the ORIGINAL graph) land in the same candidate set; such roots are
// within distance 2 of each other with high probability, and Lemma 1 shows
// distance >= 3 merges never pay off. Oversized sets are re-divided with
// fresh hashes up to `shingle_levels` times, then split randomly to the
// `max_group_size` cap (the paper uses 500).
//
// A per-iteration shingle cache removes the hot-path waste of the naive
// formulation: one keyed hash per node is computed once per iteration (a
// parallelizable pass over the CSR graph), per-node closed-neighborhood
// shingles are derived from it in a second pass, and leaves are bucketed
// per root once (each leaf's root found by one sweep over the parent
// links) so re-division levels scan flat leaf arrays instead of re-walking
// hierarchy trees. Deeper levels derive fresh hash values by re-mixing the
// cached per-node hash with a level salt, so no level ever re-runs the
// keyed hash over the graph. Each level sorts its (shingle, root) pairs by
// bucketing on the shingle's top bits (SortByShingle).
#ifndef SLUGGER_CORE_CANDIDATE_GENERATION_HPP_
#define SLUGGER_CORE_CANDIDATE_GENERATION_HPP_

#include <utility>
#include <vector>

#include "core/slugger_state.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace slugger::core {

/// A root keyed by its shingle at some division level.
using KeyedRoot = std::pair<uint64_t, SupernodeId>;

/// Sorts `keyed` into ascending (shingle, root) order, the order std::sort
/// gives, with one counting pass over the shingles' top bits and a sort of
/// each bucket. Shingles are hash values, so a bucket holds about two
/// pairs beyond the roots that share its shingle. `scratch` and
/// `bucket_end` are reusable storage.
void SortByShingle(std::vector<KeyedRoot>* keyed,
                   std::vector<KeyedRoot>* scratch,
                   std::vector<uint32_t>* bucket_end);

class CandidateGenerator {
 public:
  CandidateGenerator(const graph::Graph& g, uint64_t seed,
                     uint32_t max_group_size, uint32_t shingle_levels)
      : graph_(&g),
        seed_(seed),
        max_group_size_(max_group_size),
        shingle_levels_(shingle_levels) {}

  /// Divides the current roots into candidate sets for iteration t.
  /// Groups of size 1 are omitted (nothing to merge). When `pool` is
  /// non-null the top-level shingle pass and the deeper re-division
  /// levels run on it; the output is identical for every pool size
  /// (including none).
  std::vector<std::vector<SupernodeId>> Generate(SluggerState& state,
                                                 uint32_t iteration,
                                                 ThreadPool* pool = nullptr);

 private:
  /// Fills node_base_, node_shingle_, and the per-root leaf buckets for
  /// this iteration.
  void BuildIterationCache(const SluggerState& state, uint32_t iteration,
                           ThreadPool* pool);

  /// Level-l (l >= 1) shingle of leaf u: min over the closed neighborhood
  /// of the cached per-node hashes re-mixed with the level salt.
  uint64_t LeafShingleAtLevel(NodeId u, uint64_t level_salt) const;

  const graph::Graph* graph_;
  uint64_t seed_;
  uint32_t max_group_size_;
  uint32_t shingle_levels_;

  // ---- per-iteration shingle cache (rebuilt by BuildIterationCache) ----
  std::vector<uint64_t> node_base_;     ///< keyed hash h_t(u) per node
  std::vector<uint64_t> node_shingle_;  ///< min over N[u] of node_base_
  std::vector<uint32_t> root_slot_;     ///< supernode -> its root's slot
  std::vector<uint32_t> leaf_offsets_;  ///< CSR offsets per root slot
  std::vector<NodeId> leaf_ids_;        ///< leaves grouped by root
  std::vector<uint64_t> root_shingle_;  ///< level-0 min-shingle per slot
};

}  // namespace slugger::core

#endif  // SLUGGER_CORE_CANDIDATE_GENERATION_HPP_
