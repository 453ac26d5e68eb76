#include "core/sequential_hac.h"

#include <algorithm>
#include <queue>

namespace shoal::core {

namespace {

struct HeapEdge {
  double similarity;
  uint32_t u;
  uint32_t v;

  // std::priority_queue is a max-heap on operator<; order must agree
  // with EdgeBeats so the sequential and parallel variants tie-break
  // identically.
  bool operator<(const HeapEdge& other) const {
    return EdgeBeats(other.u, other.v, other.similarity, u, v, similarity);
  }
};

}  // namespace

util::Result<Dendrogram> SequentialHac(const graph::WeightedGraph& graph,
                                       const HacOptions& options,
                                       SequentialHacStats* stats) {
  SHOAL_RETURN_IF_ERROR(ValidateHacOptions(options));
  Dendrogram dendrogram(graph.num_vertices());
  ClusterGraph clusters(graph);
  SequentialHacStats local_stats;

  std::priority_queue<HeapEdge> heap;
  for (const auto& e : graph.AllEdges()) {
    if (e.weight >= options.threshold) {
      heap.push(HeapEdge{e.weight, e.u, e.v});
    }
  }

  while (!heap.empty()) {
    HeapEdge top = heap.top();
    heap.pop();
    ++local_stats.heap_pops;
    // Lazy deletion: skip entries whose endpoints are gone or whose
    // similarity no longer matches the live cluster graph.
    if (!clusters.IsActive(top.u) || !clusters.IsActive(top.v)) continue;
    const ClusterEdge* edge = clusters.FindEdge(top.u, top.v);
    if (edge == nullptr || edge->similarity != top.similarity) continue;
    if (top.similarity < options.threshold) continue;

    auto merged = dendrogram.Merge(top.u, top.v, top.similarity);
    if (!merged.ok()) return merged.status();
    uint32_t new_id = merged.value();
    SHOAL_RETURN_IF_ERROR(
        clusters.Merge(top.u, top.v, new_id, options.linkage));
    ++local_stats.merges;

    for (const ClusterEdge& e : clusters.Neighbors(new_id)) {
      if (e.similarity >= options.threshold) {
        heap.push(HeapEdge{e.similarity, new_id, e.id});
      }
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return dendrogram;
}

}  // namespace shoal::core
