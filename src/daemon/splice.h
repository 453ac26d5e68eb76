#ifndef SHOAL_DAEMON_SPLICE_H_
#define SHOAL_DAEMON_SPLICE_H_

#include <cstdint>
#include <vector>

#include "core/dendrogram.h"
#include "core/parallel_hac.h"
#include "daemon/incremental_graph.h"
#include "graph/weighted_graph.h"
#include "util/result.h"

namespace shoal::daemon {

struct SpliceStats {
  size_t changed_edges = 0;      // added + removed + reweighted
  size_t dirty_components = 0;   // connected components re-clustered
  size_t dirty_leaves = 0;
  size_t replayed_merges = 0;    // standing merges kept
  size_t hac_merges = 0;         // merges produced by the dirty-set HAC
  core::ParallelHacStats hac;
};

// Result of one splice: the new standing dendrogram plus the node
// mapping that lets per-topic state (descriptions, rankings) ride
// across cycles.
struct SpliceResult {
  core::Dendrogram dendrogram;
  // dirty_leaf[e] — entity e sits in a component with a changed edge
  // (its subtree was re-clustered this cycle).
  std::vector<bool> dirty_leaf;
  // old dendrogram node id -> new node id for every node of a frozen
  // component (leaves included); kNoNode for nodes of dirty components.
  std::vector<uint32_t> old_to_new_node;
  SpliceStats stats;
};

// Splices the standing dendrogram against the window's new entity
// graph (DESIGN.md §13). `changes` lists every edge (u < v) that the
// old graph the dendrogram was built from and `new_graph` disagree on —
// present in one only, or reweighted — each once, with `removed` set
// when only the old graph has it; IncrementalEntityGraph::ApplyDelta
// emits exactly this list.
//
//   1. The *dirty set* is every connected component of old ∪ new that
//      holds a changed edge, found by a BFS from the changed edges'
//      endpoints over the new rows plus the removed edges (old ∪ new
//      is exactly those). The union is what guarantees a component
//      split or merge lands every affected leaf in the dirty set.
//   2. Frozen components replay their standing merges in original
//      relative order (HAC merges only ever join clusters connected by
//      an edge, so every standing merge node's leaves live inside one
//      old component — a merge is either wholly frozen or wholly
//      dirty).
//   3. All dirty components are re-clustered in ONE ParallelHac run
//      over the compact-relabelled induced subgraph of the new graph,
//      built from the dirty leaves' rows. HAC never merges across
//      components, and its decisions inside a component depend only on
//      that component's edges (ClusterGraph sorts every row by id, so
//      row order does not reach it), so clustering the dirty components
//      together (or alone, or embedded in the full graph) yields the
//      same per-component trees — which is the argument for both splice
//      correctness and the from-scratch structural identity the tests
//      gate.
//
// The result is deterministic at any `options.hac.num_threads` because
// both the replay order and ParallelHac are, and it does not depend on
// the order of `changes`.
util::Result<SpliceResult> SpliceDendrogram(
    const core::Dendrogram& old_dendrogram,
    const graph::WeightedGraph& new_graph,
    const std::vector<CappedEdgeChange>& changes,
    const core::ParallelHacOptions& options);

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_SPLICE_H_
