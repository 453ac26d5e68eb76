#include "daemon/splice.h"

#include <algorithm>
#include <tuple>

#include "graph/components.h"
#include "util/string_util.h"

namespace shoal::daemon {
namespace {

// The graph's edges (u < v), sorted by (u, v): rows in u order, each
// row's forward half sorted by v (adjacency rows are in score order).
std::vector<graph::WeightedGraph::FullEdge> SortedEdges(
    const graph::WeightedGraph& graph) {
  std::vector<graph::WeightedGraph::FullEdge> edges;
  edges.reserve(graph.num_edges());
  for (uint32_t u = 0; u < graph.num_vertices(); ++u) {
    const size_t row_begin = edges.size();
    for (const graph::Edge& e : graph.Neighbors(u)) {
      if (e.to > u) edges.push_back({u, e.to, e.weight});
    }
    std::sort(edges.begin() + row_begin, edges.end(),
              [](const auto& a, const auto& b) { return a.v < b.v; });
  }
  return edges;
}

}  // namespace

util::Result<SpliceResult> SpliceDendrogram(
    const graph::WeightedGraph& old_graph,
    const core::Dendrogram& old_dendrogram,
    const graph::WeightedGraph& new_graph,
    const core::ParallelHacOptions& options) {
  const size_t n = new_graph.num_vertices();
  if (old_graph.num_vertices() != n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "old graph has %zu vertices, new graph has %zu",
        old_graph.num_vertices(), n));
  }
  if (old_dendrogram.num_leaves() != n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "standing dendrogram has %zu leaves for %zu vertices",
        old_dendrogram.num_leaves(), n));
  }

  SpliceResult result;

  // ---- 1. edge diff + dirty-component expansion -----------------------
  // Components over old ∪ new first, then one merge of the two
  // (u, v)-sorted edge lists: an edge changed when only one graph has it
  // or its weight moved, and it dirties its whole union component.
  const std::vector<graph::WeightedGraph::FullEdge> old_edges =
      SortedEdges(old_graph);
  const std::vector<graph::WeightedGraph::FullEdge> new_edges =
      SortedEdges(new_graph);
  graph::UnionFind uf(n);
  for (const auto& e : old_edges) uf.Union(e.u, e.v);
  for (const auto& e : new_edges) uf.Union(e.u, e.v);
  std::vector<char> dirty_root(n, 0);
  const auto mark_changed = [&](const graph::WeightedGraph::FullEdge& e) {
    dirty_root[uf.Find(e.u)] = 1;
    ++result.stats.changed_edges;
  };
  size_t i = 0;
  size_t j = 0;
  while (i < old_edges.size() && j < new_edges.size()) {
    const auto& a = old_edges[i];
    const auto& b = new_edges[j];
    if (a.u == b.u && a.v == b.v) {
      if (a.weight != b.weight) mark_changed(a);
      ++i;
      ++j;
    } else if (std::tie(a.u, a.v) < std::tie(b.u, b.v)) {
      mark_changed(a);  // removed
      ++i;
    } else {
      mark_changed(b);  // added
      ++j;
    }
  }
  for (; i < old_edges.size(); ++i) mark_changed(old_edges[i]);
  for (; j < new_edges.size(); ++j) mark_changed(new_edges[j]);

  result.dirty_leaf.assign(n, false);
  size_t dirty_leaves = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (dirty_root[uf.Find(v)]) {
      result.dirty_leaf[v] = true;
      ++dirty_leaves;
    }
  }
  result.stats.dirty_leaves = dirty_leaves;
  {
    // Component counts, over the union structure (singletons with no
    // edges in either graph are uninteresting frozen components; count
    // only multi-leaf frozen ones so the stat tracks replayed work).
    std::vector<char> seen_dirty(n, 0), seen_frozen(n, 0);
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t root = uf.Find(v);
      if (dirty_root[root]) {
        if (!seen_dirty[root]) {
          seen_dirty[root] = 1;
          ++result.stats.dirty_components;
        }
      } else if (uf.ComponentSize(root) > 1 && !seen_frozen[root]) {
        seen_frozen[root] = 1;
        ++result.stats.frozen_components;
      }
    }
  }

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
    graph::WeightedGraph subgraph(dirty_list.size());
    for (const graph::WeightedGraph::FullEdge& e : new_graph.AllEdges()) {
      // Components are closed under both graphs' edges, so an edge
      // touching a dirty leaf has both endpoints dirty.
      if (!result.dirty_leaf[e.u]) continue;
      SHOAL_RETURN_IF_ERROR(
          subgraph.AddEdge(local_id[e.u], local_id[e.v], e.weight));
    }
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
