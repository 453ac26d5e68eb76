#include "graph/weighted_graph.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testutil/graph_compare.h"

namespace shoal::graph {
namespace {

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.TotalEdgeWeight(), 0.0);
}

TEST(WeightedGraphTest, AddEdgeBasics) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.5);
}

TEST(WeightedGraphTest, MissingEdgeWeightIsZero) {
  // Matches the paper's Eq. 4 convention: S = 0 when unavailable.
  WeightedGraph g(3);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 99), 0.0);
}

TEST(WeightedGraphTest, SelfLoopRejected) {
  WeightedGraph g(2);
  auto status = g.AddEdge(1, 1, 0.5);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(WeightedGraphTest, OutOfRangeRejected) {
  WeightedGraph g(2);
  EXPECT_EQ(g.AddEdge(0, 5, 0.5).code(), util::StatusCode::kOutOfRange);
}

TEST(WeightedGraphTest, DuplicateEdgeRejected) {
  WeightedGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_EQ(g.AddEdge(1, 0, 0.7).code(), util::StatusCode::kAlreadyExists);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.5);
}

TEST(WeightedGraphTest, DuplicateFoundThroughEitherRow) {
  // The duplicate check scans the shorter endpoint row; make each side
  // the shorter one in turn.
  WeightedGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.5).ok());
  EXPECT_EQ(g.AddEdge(0, 3, 0.9).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(3, 0, 0.9).code(), util::StatusCode::kAlreadyExists);
  ASSERT_TRUE(g.AddEdge(3, 4, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(4, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(4, 2, 0.5).ok());
  EXPECT_EQ(g.AddEdge(4, 3, 0.9).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(3, 4), 0.5);
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(WeightedGraphTest, FromRowsKeepsRowOrder) {
  std::vector<std::vector<Edge>> rows = {
      {{2, 0.25}, {1, 0.5}}, {{0, 0.5}}, {{0, 0.25}}, {}};
  WeightedGraph g = WeightedGraph::FromRows(rows);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Neighbors(0), rows[0]);
  EXPECT_EQ(g.Neighbors(2), rows[2]);
  EXPECT_EQ(g.WeightedDegree(0), 0.25 + 0.5);
  EXPECT_EQ(g.WeightedDegree(3), 0.0);
  EXPECT_EQ(g.TotalEdgeWeight(), 0.75);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.5);
  // A graph built from rows takes further edges like any other.
  ASSERT_TRUE(g.AddEdge(3, 1, 1.0).ok());
  EXPECT_EQ(g.AddEdge(2, 0, 1.0).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(g.num_edges(), 3u);
}

// ReplaceRow leaves the graph as FromRows of its current rows would
// build it: rows, weighted degrees (re-summed in row order), the edge
// count and the total weight (re-summed in FromRows' order), all
// compared with ==. Each step adds, drops or reweights one edge and
// replaces both of its rows, shuffled, as the daemon's re-cap does.
TEST(WeightedGraphTest, ReplaceRowMatchesFromRows) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> weight(0.0, 1.0);
    const uint32_t n = 2 + rng() % 30;
    std::map<std::pair<uint32_t, uint32_t>, double> edges;
    const auto rows_of = [&] {
      std::vector<std::vector<Edge>> rows(n);
      for (const auto& [pair, w] : edges) {
        rows[pair.first].push_back({pair.second, w});
        rows[pair.second].push_back({pair.first, w});
      }
      for (auto& row : rows) std::shuffle(row.begin(), row.end(), rng);
      return rows;
    };
    for (int i = 0; i < 3 * static_cast<int>(n); ++i) {
      const uint32_t u = rng() % n, v = rng() % n;
      if (u != v) edges[std::minmax(u, v)] = weight(rng);
    }
    WeightedGraph g = WeightedGraph::FromRows(rows_of());
    for (int step = 0; step < 40; ++step) {
      const uint32_t u = rng() % n, v = rng() % n;
      if (u == v) continue;
      const auto pair = std::minmax(u, v);
      if (edges.contains(pair) && rng() % 2 == 0) {
        edges.erase(pair);
      } else {
        edges[pair] = weight(rng);
      }
      const std::vector<std::vector<Edge>> rows = rows_of();
      g.ReplaceRow(u, rows[u]);
      g.ReplaceRow(v, rows[v]);
      // Every other row keeps its order from the last FromRows or patch.
      std::vector<std::vector<Edge>> current(n);
      for (uint32_t x = 0; x < n; ++x) current[x] = g.Neighbors(x);
      testutil::ExpectSameWeightedGraph(
          WeightedGraph::FromRows(std::move(current)), g,
          "seed " + std::to_string(seed) + " step " + std::to_string(step));
    }
  }
}

TEST(WeightedGraphTest, DegreesTrackEdges) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.25).ok());
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 0.75);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 0.75);
}

TEST(WeightedGraphTest, NeighborsSymmetric) {
  WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  ASSERT_EQ(g.Neighbors(0).size(), 1u);
  ASSERT_EQ(g.Neighbors(2).size(), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].to, 2u);
  EXPECT_EQ(g.Neighbors(2)[0].to, 0u);
}

TEST(WeightedGraphTest, ResizeGrowsOnly) {
  WeightedGraph g(2);
  g.Resize(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  g.Resize(1);
  EXPECT_EQ(g.num_vertices(), 5u);
}

TEST(WeightedGraphTest, AllEdgesReportsEachOnce) {
  WeightedGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.1).ok());
  ASSERT_TRUE(g.AddEdge(2, 1, 0.2).ok());
  ASSERT_TRUE(g.AddEdge(3, 0, 0.3).ok());
  auto edges = g.AllEdges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(WeightedGraphTest, LargeIdsViaKeyPacking) {
  WeightedGraph g(100000);
  ASSERT_TRUE(g.AddEdge(99998, 99999, 0.5).ok());
  EXPECT_TRUE(g.HasEdge(99999, 99998));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(99998, 99999), 0.5);
}

}  // namespace
}  // namespace shoal::graph
