#include "graph/generators.h"

#include <cmath>

#include <gtest/gtest.h>

namespace shoal::graph {
namespace {

TEST(PlantedPartitionTest, ValidatesArguments) {
  PlantedPartitionOptions options;
  options.num_clusters = 0;
  EXPECT_FALSE(GeneratePlantedPartition(options).ok());
  options.num_clusters = 10;
  options.num_vertices = 5;
  EXPECT_FALSE(GeneratePlantedPartition(options).ok());
  options = PlantedPartitionOptions{};
  options.p_in = 1.5;
  EXPECT_FALSE(GeneratePlantedPartition(options).ok());
}

TEST(PlantedPartitionTest, GroundTruthCoversAllClusters) {
  PlantedPartitionOptions options;
  options.num_vertices = 50;
  options.num_clusters = 5;
  auto result = GeneratePlantedPartition(options);
  ASSERT_TRUE(result.ok());
  std::vector<int> seen(5, 0);
  for (uint32_t label : result->ground_truth) {
    ASSERT_LT(label, 5u);
    ++seen[label];
  }
  for (int count : seen) EXPECT_EQ(count, 10);
}

TEST(PlantedPartitionTest, IntraHeavierThanInter) {
  PlantedPartitionOptions options;
  options.num_vertices = 200;
  options.num_clusters = 4;
  auto result = GeneratePlantedPartition(options);
  ASSERT_TRUE(result.ok());
  double intra_sum = 0.0;
  size_t intra_n = 0;
  double inter_sum = 0.0;
  size_t inter_n = 0;
  for (const auto& e : result->graph.AllEdges()) {
    if (result->ground_truth[e.u] == result->ground_truth[e.v]) {
      intra_sum += e.weight;
      ++intra_n;
    } else {
      inter_sum += e.weight;
      ++inter_n;
    }
  }
  ASSERT_GT(intra_n, 0u);
  ASSERT_GT(inter_n, 0u);
  EXPECT_GT(intra_sum / intra_n, inter_sum / inter_n + 0.3);
  // Density check: intra probability is 30x the inter probability.
  EXPECT_GT(intra_n, inter_n);
}

TEST(PlantedPartitionTest, DeterministicForSeed) {
  PlantedPartitionOptions options;
  options.num_vertices = 60;
  options.seed = 77;
  auto a = GeneratePlantedPartition(options);
  auto b = GeneratePlantedPartition(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->graph.num_edges(), b->graph.num_edges());
  auto edges_a = a->graph.AllEdges();
  auto edges_b = b->graph.AllEdges();
  for (size_t i = 0; i < edges_a.size(); ++i) {
    EXPECT_EQ(edges_a[i].u, edges_b[i].u);
    EXPECT_EQ(edges_a[i].v, edges_b[i].v);
    EXPECT_EQ(edges_a[i].weight, edges_b[i].weight);
  }
}

TEST(PlantedPartitionTest, WeightsWithinUnitInterval) {
  PlantedPartitionOptions options;
  options.num_vertices = 100;
  auto result = GeneratePlantedPartition(options);
  ASSERT_TRUE(result.ok());
  for (const auto& e : result->graph.AllEdges()) {
    EXPECT_GT(e.weight, 0.0);
    EXPECT_LE(e.weight, 1.0);
  }
}

TEST(ErdosRenyiTest, ValidatesProbability) {
  EXPECT_FALSE(GenerateErdosRenyi(10, -0.1, 1).ok());
  EXPECT_FALSE(GenerateErdosRenyi(10, 1.1, 1).ok());
}

TEST(ErdosRenyiTest, ZeroProbabilityEmpty) {
  auto g = GenerateErdosRenyi(10, 0.0, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(ErdosRenyiTest, EdgeCountNearExpectation) {
  const size_t n = 200;
  const double p = 0.1;
  auto g = GenerateErdosRenyi(n, p, 3);
  ASSERT_TRUE(g.ok());
  double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g->num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  auto a = GenerateErdosRenyi(50, 0.2, 9);
  auto b = GenerateErdosRenyi(50, 0.2, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_edges(), b->num_edges());
}

TEST(PathGraphTest, StructureAndWeights) {
  WeightedGraph g = GeneratePath(5, 0.7);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(3, 4));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 0.7);
  // Consecutive vertices are linked, so the path is one component.
  for (uint32_t i = 0; i + 1 < 5; ++i) {
    EXPECT_TRUE(g.HasEdge(i, i + 1)) << i;
  }
}

TEST(PathGraphTest, DegenerateSizes) {
  EXPECT_EQ(GeneratePath(0).num_edges(), 0u);
  EXPECT_EQ(GeneratePath(1).num_edges(), 0u);
}

}  // namespace
}  // namespace shoal::graph
