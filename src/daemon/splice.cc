#include "daemon/splice.h"

#include <utility>

#include "util/string_util.h"

namespace shoal::daemon {

util::Result<SpliceResult> SpliceDendrogram(
    const core::Dendrogram& old_dendrogram,
    const graph::WeightedGraph& new_graph,
    const std::vector<CappedEdgeChange>& changes,
    const core::ParallelHacOptions& options) {
  const size_t n = new_graph.num_vertices();
  if (old_dendrogram.num_leaves() != n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "standing dendrogram has %zu leaves for %zu vertices",
        old_dendrogram.num_leaves(), n));
  }
  for (const CappedEdgeChange& change : changes) {
    if (change.u >= change.v || change.v >= n) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "changed edge (%u, %u) breaks u < v < %zu", change.u, change.v,
          n));
    }
  }

  SpliceResult result;
  result.stats.changed_edges = changes.size();

  // ---- 1. dirty set: search old ∪ new from the changed edges --------
  // old ∪ new is the new rows plus the removed edges, which get their
  // own adjacency: removed_adj[removed_at[v], removed_at[v + 1]).
  std::vector<size_t> removed_at(n + 1, 0);
  for (const CappedEdgeChange& change : changes) {
    if (!change.removed) continue;
    ++removed_at[change.u + 1];
    ++removed_at[change.v + 1];
  }
  for (size_t v = 0; v < n; ++v) removed_at[v + 1] += removed_at[v];
  std::vector<uint32_t> removed_adj(removed_at[n]);
  {
    std::vector<size_t> fill(removed_at.begin(), removed_at.end() - 1);
    for (const CappedEdgeChange& change : changes) {
      if (!change.removed) continue;
      removed_adj[fill[change.u]++] = change.v;
      removed_adj[fill[change.v]++] = change.u;
    }
  }
  result.dirty_leaf.assign(n, false);
  size_t dirty_leaves = 0;
  std::vector<uint32_t> pending;
  const auto visit = [&](uint32_t v) {
    if (result.dirty_leaf[v]) return;
    result.dirty_leaf[v] = true;
    ++dirty_leaves;
    pending.push_back(v);
  };
  for (const CappedEdgeChange& change : changes) {
    // The change's edge joins u and v in old ∪ new, so a search from an
    // unvisited u discovers one whole dirty component, v included.
    if (result.dirty_leaf[change.u]) continue;
    ++result.stats.dirty_components;
    visit(change.u);
    while (!pending.empty()) {
      const uint32_t v = pending.back();
      pending.pop_back();
      for (const graph::Edge& e : new_graph.Neighbors(v)) visit(e.to);
      for (size_t i = removed_at[v]; i < removed_at[v + 1]; ++i) {
        visit(removed_adj[i]);
      }
    }
  }
  result.stats.dirty_leaves = dirty_leaves;

  // ---- 2. replay frozen merges ----------------------------------------
  core::Dendrogram dendrogram(n);
  result.old_to_new_node.assign(old_dendrogram.num_nodes(), core::kNoNode);
  for (uint32_t leaf = 0; leaf < n; ++leaf) {
    if (!result.dirty_leaf[leaf]) result.old_to_new_node[leaf] = leaf;
  }
  for (uint32_t node = static_cast<uint32_t>(n);
       node < old_dendrogram.num_nodes(); ++node) {
    const core::Dendrogram::Node& record = old_dendrogram.node(node);
    const uint32_t left = result.old_to_new_node[record.left];
    const uint32_t right = result.old_to_new_node[record.right];
    // HAC only merges along edges, so a standing merge is wholly inside
    // one component: either both children survived (frozen) or neither.
    if (left == core::kNoNode || right == core::kNoNode) continue;
    auto merged = dendrogram.Merge(left, right, record.merge_similarity);
    if (!merged.ok()) return merged.status();
    result.old_to_new_node[node] = merged.value();
    ++result.stats.replayed_merges;
  }

  // ---- 3. one HAC over the induced dirty subgraph ---------------------
  std::vector<uint32_t> dirty_list;
  dirty_list.reserve(dirty_leaves);
  for (uint32_t v = 0; v < n; ++v) {
    if (result.dirty_leaf[v]) dirty_list.push_back(v);
  }
  if (!dirty_list.empty()) {
    std::vector<uint32_t> local_id(n, core::kNoNode);
    for (uint32_t i = 0; i < dirty_list.size(); ++i) {
      local_id[dirty_list[i]] = i;
    }
    // Components are closed under both graphs' edges, so every
    // neighbour of a dirty leaf is dirty: the dirty rows, relabelled,
    // are the induced subgraph.
    std::vector<std::vector<graph::Edge>> rows(dirty_list.size());
    for (uint32_t i = 0; i < dirty_list.size(); ++i) {
      const std::vector<graph::Edge>& row = new_graph.Neighbors(dirty_list[i]);
      rows[i].reserve(row.size());
      for (const graph::Edge& e : row) {
        rows[i].push_back({local_id[e.to], e.weight});
      }
    }
    const graph::WeightedGraph subgraph =
        graph::WeightedGraph::FromRows(std::move(rows));
    auto sub_dendrogram =
        core::ParallelHac(subgraph, options, &result.stats.hac);
    if (!sub_dendrogram.ok()) return sub_dendrogram.status();

    std::vector<uint32_t> sub_to_global(sub_dendrogram->num_nodes(),
                                        core::kNoNode);
    for (uint32_t i = 0; i < dirty_list.size(); ++i) {
      sub_to_global[i] = dirty_list[i];
    }
    for (uint32_t node = static_cast<uint32_t>(dirty_list.size());
         node < sub_dendrogram->num_nodes(); ++node) {
      const core::Dendrogram::Node& record = sub_dendrogram->node(node);
      auto merged = dendrogram.Merge(sub_to_global[record.left],
                                     sub_to_global[record.right],
                                     record.merge_similarity);
      if (!merged.ok()) return merged.status();
      sub_to_global[node] = merged.value();
      ++result.stats.hac_merges;
    }
  }

  result.dendrogram = std::move(dendrogram);
  return result;
}

}  // namespace shoal::daemon
