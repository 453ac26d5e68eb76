#include "graph/bipartite_graph.h"

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testutil/graph_compare.h"

namespace shoal::graph {
namespace {

TEST(BipartiteGraphTest, Dimensions) {
  BipartiteGraph g(3, 5);
  EXPECT_EQ(g.num_left(), 3u);
  EXPECT_EQ(g.num_right(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(BipartiteGraphTest, AddInteractionCreatesEdge) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddInteraction(0, 1).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.LeftNeighbors(0).size(), 1u);
  EXPECT_EQ(g.LeftNeighbors(0)[0].id, 1u);
  EXPECT_EQ(g.LeftNeighbors(0)[0].count, 1u);
  ASSERT_EQ(g.RightNeighbors(1).size(), 1u);
  EXPECT_EQ(g.RightNeighbors(1)[0].id, 0u);
}

TEST(BipartiteGraphTest, RepeatInteractionsAccumulate) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddInteraction(0, 1).ok());
  ASSERT_TRUE(g.AddInteraction(0, 1, 4).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.LeftNeighbors(0)[0].count, 5u);
  EXPECT_EQ(g.RightNeighbors(1)[0].count, 5u);
  EXPECT_EQ(g.total_interactions(), 5u);
}

TEST(BipartiteGraphTest, OutOfRangeRejected) {
  BipartiteGraph g(2, 2);
  EXPECT_FALSE(g.AddInteraction(5, 0).ok());
  EXPECT_FALSE(g.AddInteraction(0, 5).ok());
}

TEST(BipartiteGraphTest, ZeroCountRejected) {
  BipartiteGraph g(2, 2);
  EXPECT_FALSE(g.AddInteraction(0, 0, 0).ok());
}

TEST(BipartiteGraphTest, QueriesOfItemSorted) {
  BipartiteGraph g(5, 2);
  ASSERT_TRUE(g.AddInteraction(3, 0).ok());
  ASSERT_TRUE(g.AddInteraction(1, 0).ok());
  ASSERT_TRUE(g.AddInteraction(4, 0).ok());
  auto queries = g.QueriesOfItem(0);
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_EQ(queries[0], 1u);
  EXPECT_EQ(queries[1], 3u);
  EXPECT_EQ(queries[2], 4u);
}

TEST(BipartiteGraphTest, QueriesOfItemDeduplicated) {
  BipartiteGraph g(3, 1);
  ASSERT_TRUE(g.AddInteraction(2, 0).ok());
  ASSERT_TRUE(g.AddInteraction(2, 0).ok());
  EXPECT_EQ(g.QueriesOfItem(0).size(), 1u);
}

TEST(BipartiteGraphTest, MultipleItemsPerQuery) {
  BipartiteGraph g(1, 3);
  ASSERT_TRUE(g.AddInteraction(0, 0).ok());
  ASSERT_TRUE(g.AddInteraction(0, 1).ok());
  ASSERT_TRUE(g.AddInteraction(0, 2).ok());
  EXPECT_EQ(g.LeftNeighbors(0).size(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

// FromLeftLinks adopts per-query links and transposes them; the result
// must equal AddInteraction over the same links, queries ascending, on
// both sides' rows (order and counts), edges and interactions. Seeded
// random windows, with empty queries and entities no query reaches.
TEST(BipartiteGraphTest, FromLeftLinksMatchesAddInteraction) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    const uint32_t num_left = 1 + rng() % 40;
    const uint32_t num_right = 1 + rng() % 60;
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> window;
    const size_t clicks = rng() % 300;
    for (size_t i = 0; i < clicks; ++i) {
      window[{static_cast<uint32_t>(rng() % num_left),
              static_cast<uint32_t>(rng() % num_right)}] +=
          1 + static_cast<uint32_t>(rng() % 9);
    }
    BipartiteGraph expected(num_left, num_right);
    std::vector<std::vector<BipartiteGraph::Link>> links(num_left);
    for (const auto& [pair, count] : window) {
      ASSERT_TRUE(expected.AddInteraction(pair.first, pair.second, count).ok());
      links[pair.first].push_back({pair.second, count});
    }
    testutil::ExpectSameBipartiteGraph(
        expected, BipartiteGraph::FromLeftLinks(std::move(links), num_right),
        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace shoal::graph
