#include "core/sequential_hac.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/modularity.h"

namespace shoal::core {
namespace {

TEST(SequentialHacTest, RejectsNonPositiveThreshold) {
  graph::WeightedGraph g(2);
  HacOptions options;
  options.threshold = 0.0;
  EXPECT_FALSE(SequentialHac(g, options).ok());
  // NaN passes a `<= 0` test and then fails every `>=` comparison, which
  // would build an empty dendrogram instead of an error.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    options.threshold = bad;
    EXPECT_FALSE(SequentialHac(g, options).ok()) << bad;
  }
}

TEST(SequentialHacTest, EmptyGraphNoMerges) {
  graph::WeightedGraph g(5);
  auto d = SequentialHac(g, HacOptions{});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 0u);
  EXPECT_EQ(d->Roots().size(), 5u);
}

TEST(SequentialHacTest, MergesAboveThresholdOnly) {
  graph::WeightedGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.3).ok());
  HacOptions options;
  options.threshold = 0.5;
  auto d = SequentialHac(g, options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 1u);
  auto labels = d->FlatClusters();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[2], labels[3]);
}

TEST(SequentialHacTest, MergeOrderIsGreedy) {
  // Chain 0-1 (0.9), 1-2 (0.8): first merge is (0,1); then S(01,2) =
  // (0 + 0.8)/2 = 0.4 < threshold 0.5, so only one merge happens.
  graph::WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.8).ok());
  HacOptions options;
  options.threshold = 0.5;
  SequentialHacStats stats;
  auto d = SequentialHac(g, options, &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(d->node(3).left, 0u);
  EXPECT_EQ(d->node(3).right, 1u);
}

TEST(SequentialHacTest, ChainMergesWhenUpdateStaysHigh) {
  // Same chain but max linkage: S(01,2) = max(0, 0.8) = 0.8 >= 0.5.
  graph::WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.8).ok());
  HacOptions options;
  options.threshold = 0.5;
  options.linkage = LinkageRule::kMax;
  auto d = SequentialHac(g, options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 2u);
  EXPECT_EQ(d->Roots().size(), 1u);
}

TEST(SequentialHacTest, RecoversPlantedPartition) {
  graph::PlantedPartitionOptions planted_options;
  planted_options.num_vertices = 120;
  planted_options.num_clusters = 4;
  planted_options.p_in = 0.5;
  planted_options.p_out = 0.01;
  planted_options.mu_in = 0.9;
  planted_options.mu_out = 0.15;
  auto planted = graph::GeneratePlantedPartition(planted_options);
  ASSERT_TRUE(planted.ok());
  HacOptions options;
  options.threshold = 0.4;
  auto d = SequentialHac(planted->graph, options);
  ASSERT_TRUE(d.ok());
  auto q = graph::Modularity(planted->graph, d->FlatClusters());
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q.value(), 0.3);  // the paper's quality bar
}

TEST(SequentialHacTest, DeterministicAcrossRuns) {
  auto g = graph::GenerateErdosRenyi(60, 0.15, 3);
  ASSERT_TRUE(g.ok());
  HacOptions options;
  options.threshold = 0.3;
  auto d1 = SequentialHac(*g, options);
  auto d2 = SequentialHac(*g, options);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ASSERT_EQ(d1->num_nodes(), d2->num_nodes());
  for (uint32_t n = 0; n < d1->num_nodes(); ++n) {
    EXPECT_EQ(d1->node(n).left, d2->node(n).left);
    EXPECT_EQ(d1->node(n).right, d2->node(n).right);
  }
}

TEST(SequentialHacTest, MergeSimilaritiesAreMonotoneNonIncreasing) {
  // Greedy exact HAC with a "reducible" linkage produces non-increasing
  // merge similarities; sqrt-normalised average with zeros for missing
  // entries is contractive (never exceeds its inputs), so the global max
  // can only fall.
  auto g = graph::GenerateErdosRenyi(80, 0.2, 11);
  ASSERT_TRUE(g.ok());
  HacOptions options;
  options.threshold = 0.2;
  auto d = SequentialHac(*g, options);
  ASSERT_TRUE(d.ok());
  double prev = 2.0;
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_LE(d->node(n).merge_similarity, prev + 1e-9);
    prev = d->node(n).merge_similarity;
  }
}

TEST(SequentialHacTest, AllMergesAboveThreshold) {
  auto g = graph::GenerateErdosRenyi(60, 0.25, 17);
  ASSERT_TRUE(g.ok());
  HacOptions options;
  options.threshold = 0.45;
  auto d = SequentialHac(*g, options);
  ASSERT_TRUE(d.ok());
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_GE(d->node(n).merge_similarity, 0.45);
  }
}

TEST(SequentialHacTest, StatsReported) {
  graph::WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.8).ok());
  HacOptions options;
  options.linkage = LinkageRule::kMax;
  SequentialHacStats stats;
  auto d = SequentialHac(g, options, &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(stats.merges, 2u);
  EXPECT_GE(stats.heap_pops, stats.merges);
}

}  // namespace
}  // namespace shoal::core
