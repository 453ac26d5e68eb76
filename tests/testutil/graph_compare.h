#ifndef SHOAL_TESTS_TESTUTIL_GRAPH_COMPARE_H_
#define SHOAL_TESTS_TESTUTIL_GRAPH_COMPARE_H_

// Field-by-field graph equality for the oracles that check a patched or
// adopted graph against one built another way (every row in order, and
// every aggregate the graph reports), and the brute-force edge diff the
// daemon's change-list oracles compare against.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/incremental_graph.h"
#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"

namespace shoal::testutil {

// Rows in order (ids and weights compared with ==), weighted degrees,
// edge count and total weight.
inline void ExpectSameWeightedGraph(const graph::WeightedGraph& expected,
                                    const graph::WeightedGraph& actual,
                                    const std::string& context) {
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices()) << context;
  ASSERT_EQ(expected.num_edges(), actual.num_edges()) << context;
  EXPECT_EQ(expected.TotalEdgeWeight(), actual.TotalEdgeWeight()) << context;
  for (uint32_t u = 0; u < expected.num_vertices(); ++u) {
    ASSERT_EQ(expected.Neighbors(u), actual.Neighbors(u))
        << context << " row " << u;
    ASSERT_EQ(expected.WeightedDegree(u), actual.WeightedDegree(u))
        << context << " row " << u;
  }
}

// Both sides' rows in order (ids and counts), edge count and total
// interactions.
inline void ExpectSameBipartiteGraph(const graph::BipartiteGraph& expected,
                                     const graph::BipartiteGraph& actual,
                                     const std::string& context) {
  ASSERT_EQ(expected.num_left(), actual.num_left()) << context;
  ASSERT_EQ(expected.num_right(), actual.num_right()) << context;
  EXPECT_EQ(expected.num_edges(), actual.num_edges()) << context;
  EXPECT_EQ(expected.total_interactions(), actual.total_interactions())
      << context;
  const auto same_links = [&](const auto& a, const auto& b,
                              const std::string& where) {
    ASSERT_EQ(a.size(), b.size()) << context << " " << where;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << context << " " << where << " link " << i;
      EXPECT_EQ(a[i].count, b[i].count)
          << context << " " << where << " link " << i;
    }
  };
  for (uint32_t q = 0; q < expected.num_left(); ++q) {
    same_links(expected.LeftNeighbors(q), actual.LeftNeighbors(q),
               "query " + std::to_string(q));
  }
  for (uint32_t e = 0; e < expected.num_right(); ++e) {
    same_links(expected.RightNeighbors(e), actual.RightNeighbors(e),
               "entity " + std::to_string(e));
  }
}

// Brute-force diff of two graphs through std::map, sorted by (u, v):
// every edge only one graph has or whose weight moved, `removed` when
// only `before` has it — the change list ApplyDelta emits and
// SpliceDendrogram reads.
inline std::vector<daemon::CappedEdgeChange> DiffEdges(
    const graph::WeightedGraph& before, const graph::WeightedGraph& after) {
  std::map<std::pair<uint32_t, uint32_t>, double> old_edges, new_edges;
  for (const auto& e : before.AllEdges()) {
    old_edges[std::minmax(e.u, e.v)] = e.weight;
  }
  for (const auto& e : after.AllEdges()) {
    new_edges[std::minmax(e.u, e.v)] = e.weight;
  }
  std::map<std::pair<uint32_t, uint32_t>, bool> changed;  // -> removed
  for (const auto& [pair, w] : old_edges) {
    auto it = new_edges.find(pair);
    if (it == new_edges.end() || it->second != w) {
      changed[pair] = it == new_edges.end();
    }
  }
  for (const auto& [pair, w] : new_edges) {
    if (!old_edges.contains(pair)) changed[pair] = false;
  }
  std::vector<daemon::CappedEdgeChange> changes;
  for (const auto& [pair, removed] : changed) {
    changes.push_back({pair.first, pair.second, removed});
  }
  return changes;
}

}  // namespace shoal::testutil

#endif  // SHOAL_TESTS_TESTUTIL_GRAPH_COMPARE_H_
