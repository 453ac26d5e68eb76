#include "core/hac_common.h"

#include <cmath>

#include <gtest/gtest.h>


namespace shoal::core {
namespace {

TEST(MergedSimilarityTest, SqrtNormalizedEqualSizes) {
  // Eq. 4 with nA = nB: plain average.
  EXPECT_NEAR(
      MergedSimilarity(LinkageRule::kSqrtNormalized, 0.8, 0.4, 1, 1), 0.6,
      1e-12);
}

TEST(MergedSimilarityTest, SqrtNormalizedWeightsBySqrtSize) {
  // nA = 4, nB = 1: weights 2/3 and 1/3.
  EXPECT_NEAR(
      MergedSimilarity(LinkageRule::kSqrtNormalized, 0.9, 0.3, 4, 1),
      (2.0 * 0.9 + 1.0 * 0.3) / 3.0, 1e-12);
}

TEST(MergedSimilarityTest, SqrtNormalizedMissingNeighborIsZero) {
  // The paper: S(A,C) = 0 when unavailable.
  EXPECT_NEAR(
      MergedSimilarity(LinkageRule::kSqrtNormalized, 0.0, 0.6, 1, 1), 0.3,
      1e-12);
}

TEST(MergedSimilarityTest, ArithmeticMeanWeightsBySize) {
  EXPECT_NEAR(
      MergedSimilarity(LinkageRule::kArithmeticMean, 0.9, 0.3, 3, 1),
      (3.0 * 0.9 + 1.0 * 0.3) / 4.0, 1e-12);
}

TEST(MergedSimilarityTest, MaxAndMinRules) {
  EXPECT_DOUBLE_EQ(MergedSimilarity(LinkageRule::kMax, 0.2, 0.7, 5, 2), 0.7);
  EXPECT_DOUBLE_EQ(MergedSimilarity(LinkageRule::kMin, 0.2, 0.7, 5, 2), 0.2);
}

TEST(MergedSimilarityTest, AllRulesBoundedByInputs) {
  for (LinkageRule rule :
       {LinkageRule::kSqrtNormalized, LinkageRule::kArithmeticMean,
        LinkageRule::kMax, LinkageRule::kMin}) {
    for (uint32_t na : {1u, 2u, 10u}) {
      for (uint32_t nb : {1u, 5u}) {
        double s = MergedSimilarity(rule, 0.3, 0.8, na, nb);
        EXPECT_GE(s, 0.3 - 1e-12) << LinkageRuleName(rule);
        EXPECT_LE(s, 0.8 + 1e-12) << LinkageRuleName(rule);
      }
    }
  }
}

TEST(MergedSimilarityTest, RuleNames) {
  EXPECT_STREQ(LinkageRuleName(LinkageRule::kSqrtNormalized),
               "sqrt_normalized");
  EXPECT_STREQ(LinkageRuleName(LinkageRule::kArithmeticMean),
               "arithmetic_mean");
  EXPECT_STREQ(LinkageRuleName(LinkageRule::kMax), "max");
  EXPECT_STREQ(LinkageRuleName(LinkageRule::kMin), "min");
}

TEST(EdgeBeatsTest, HigherSimilarityWins) {
  EXPECT_TRUE(EdgeBeats(5, 6, 0.9, 1, 2, 0.8));
  EXPECT_FALSE(EdgeBeats(5, 6, 0.7, 1, 2, 0.8));
}

TEST(EdgeBeatsTest, TiesBreakOnSmallerIdPair) {
  EXPECT_TRUE(EdgeBeats(1, 2, 0.5, 1, 3, 0.5));
  EXPECT_FALSE(EdgeBeats(1, 3, 0.5, 1, 2, 0.5));
  EXPECT_TRUE(EdgeBeats(0, 9, 0.5, 1, 2, 0.5));
}

TEST(EdgeBeatsTest, OrientationIrrelevant) {
  EXPECT_EQ(EdgeBeats(2, 1, 0.5, 3, 1, 0.5), EdgeBeats(1, 2, 0.5, 1, 3, 0.5));
}

TEST(EdgeBeatsTest, StrictTotalOrder) {
  // An edge never beats itself; exactly one of two distinct edges wins.
  EXPECT_FALSE(EdgeBeats(1, 2, 0.5, 1, 2, 0.5));
  bool ab = EdgeBeats(1, 2, 0.5, 3, 4, 0.5);
  bool ba = EdgeBeats(3, 4, 0.5, 1, 2, 0.5);
  EXPECT_NE(ab, ba);
}

// --- ClusterGraph -------------------------------------------------------

graph::WeightedGraph TriangleWithTail() {
  // 0-1 (0.9), 1-2 (0.7), 0-2 (0.6), 2-3 (0.4)
  graph::WeightedGraph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.4).ok());
  return g;
}

TEST(ClusterGraphTest, InitialStateMirrorsBaseGraph) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  EXPECT_EQ(clusters.num_active(), 4u);
  EXPECT_EQ(clusters.ClusterSize(0), 1u);
  EXPECT_DOUBLE_EQ(clusters.SimilarityOrZero(0, 1), 0.9);
  EXPECT_DOUBLE_EQ(clusters.SimilarityOrZero(2, 3), 0.4);
}

TEST(ClusterGraphTest, GlobalBestEdgeFindsMaximum) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  auto best = clusters.GlobalBestEdge();
  EXPECT_EQ(std::min(best.u, best.v), 0u);
  EXPECT_EQ(std::max(best.u, best.v), 1u);
  EXPECT_DOUBLE_EQ(best.similarity, 0.9);
}

TEST(ClusterGraphTest, MergeAppliesEq4) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  ASSERT_TRUE(clusters.Merge(0, 1, 4, LinkageRule::kSqrtNormalized).ok());
  EXPECT_EQ(clusters.num_active(), 3u);
  EXPECT_FALSE(clusters.IsActive(0));
  EXPECT_FALSE(clusters.IsActive(1));
  EXPECT_TRUE(clusters.IsActive(4));
  EXPECT_EQ(clusters.ClusterSize(4), 2u);
  // S(01, 2) = (sqrt(1)*0.6 + sqrt(1)*0.7) / 2 = 0.65
  EXPECT_NEAR(clusters.SimilarityOrZero(4, 2), 0.65, 1e-12);
  // Vertex 2's adjacency rewired to the merged node.
  EXPECT_TRUE(clusters.HasNeighbor(2, 4));
  EXPECT_FALSE(clusters.HasNeighbor(2, 0));
  EXPECT_FALSE(clusters.HasNeighbor(2, 1));
  // Untouched edge survives.
  EXPECT_DOUBLE_EQ(clusters.SimilarityOrZero(2, 3), 0.4);
}

TEST(ClusterGraphTest, MergeWithMissingNeighborUsesZero) {
  // 0-1 edge plus 1-2 edge; merging 0,1 must give S(01,2) with
  // S(0,2) = 0.
  graph::WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.8).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.6).ok());
  ClusterGraph clusters(g);
  ASSERT_TRUE(clusters.Merge(0, 1, 3, LinkageRule::kSqrtNormalized).ok());
  EXPECT_NEAR(clusters.SimilarityOrZero(3, 2), 0.3, 1e-12);
}

TEST(ClusterGraphTest, SequentialMergesGrowSizes) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  ASSERT_TRUE(clusters.Merge(0, 1, 4, LinkageRule::kSqrtNormalized).ok());
  ASSERT_TRUE(clusters.Merge(4, 2, 5, LinkageRule::kSqrtNormalized).ok());
  EXPECT_EQ(clusters.ClusterSize(5), 3u);
  // S(012, 3): S(01,3)=0 missing, S(2,3)=0.4, sizes 2 and 1:
  // (sqrt(2)*0 + 1*0.4) / (sqrt(2)+1)
  double expected = 0.4 / (std::sqrt(2.0) + 1.0);
  EXPECT_NEAR(clusters.SimilarityOrZero(5, 3), expected, 1e-12);
}

TEST(ClusterGraphTest, MergeValidation) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  EXPECT_FALSE(clusters.Merge(0, 0, 4, LinkageRule::kMax).ok());
  EXPECT_FALSE(clusters.Merge(0, 1, 99, LinkageRule::kMax).ok());
  ASSERT_TRUE(clusters.Merge(0, 1, 4, LinkageRule::kMax).ok());
  EXPECT_FALSE(clusters.Merge(0, 2, 5, LinkageRule::kMax).ok());
}

TEST(ClusterGraphTest, BestEdgeOnEmptyGraph) {
  graph::WeightedGraph g(3);
  ClusterGraph clusters(g);
  auto best = clusters.GlobalBestEdge();
  EXPECT_LT(best.similarity, 0.0);
}

TEST(ClusterGraphTest, ActiveClustersEnumeration) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  ASSERT_TRUE(clusters.Merge(1, 2, 4, LinkageRule::kMax).ok());
  auto active = clusters.ActiveClusters();
  EXPECT_EQ(active, (std::vector<uint32_t>{0, 3, 4}));
}

TEST(ClusterGraphTest, RowsStaySortedAcrossMerges) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  ASSERT_TRUE(clusters.Merge(0, 1, 4, LinkageRule::kSqrtNormalized).ok());
  ASSERT_TRUE(clusters.Merge(4, 2, 5, LinkageRule::kSqrtNormalized).ok());
  for (uint32_t c : clusters.ActiveClusters()) {
    const auto& row = clusters.Neighbors(c);
    for (size_t i = 1; i < row.size(); ++i) {
      EXPECT_LT(row[i - 1].id, row[i].id) << "row " << c;
    }
  }
}

TEST(ClusterGraphTest, FindEdgeBinarySearch) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  const ClusterEdge* e = clusters.FindEdge(2, 3);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, 3u);
  EXPECT_DOUBLE_EQ(e->similarity, 0.4);
  EXPECT_EQ(clusters.FindEdge(0, 3), nullptr);
}

TEST(ClusterGraphTest, MergeableFrontierShrinks) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g, /*track_threshold=*/0.5);
  // 2-3 edge (0.4) is below threshold, so 3 is never mergeable.
  EXPECT_EQ(clusters.MergeableClusters(), (std::vector<uint32_t>{0, 1, 2}));
  ASSERT_TRUE(clusters.Merge(0, 1, 4, LinkageRule::kSqrtNormalized).ok());
  // S(01,2) = 0.65 >= 0.5, so {2, 4} remain on the frontier.
  EXPECT_EQ(clusters.MergeableClusters(), (std::vector<uint32_t>{2, 4}));
  ASSERT_TRUE(clusters.Merge(4, 2, 5, LinkageRule::kSqrtNormalized).ok());
  // Remaining edge 5-3 has similarity 0.4/(sqrt(2)+1) < 0.5.
  EXPECT_TRUE(clusters.MergeableClusters().empty());
}

// --- ValidateMatching / MergeBatch --------------------------------------

// 0-1-2-3-4-5 path with a 1-4 chord, so two matched pairs share
// neighbours and a cross-pair edge exists.
graph::WeightedGraph TwoPairGraph() {
  graph::WeightedGraph g(6);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(3, 4, 0.8).ok());
  EXPECT_TRUE(g.AddEdge(4, 5, 0.3).ok());
  EXPECT_TRUE(g.AddEdge(1, 4, 0.4).ok());
  return g;
}

TEST(ClusterGraphTest, ValidateMatchingAcceptsDisjointPairs) {
  auto g = TwoPairGraph();
  ClusterGraph clusters(g);
  EXPECT_TRUE(clusters.ValidateMatching({{0, 1}, {3, 4}}, 6).ok());
}

TEST(ClusterGraphTest, ValidateMatchingRejectsBadInput) {
  auto g = TwoPairGraph();
  ClusterGraph clusters(g);
  // Wrong first id.
  EXPECT_FALSE(clusters.ValidateMatching({{0, 1}}, 7).ok());
  // Self pair.
  EXPECT_FALSE(clusters.ValidateMatching({{2, 2}}, 6).ok());
  // Shared endpoint.
  EXPECT_FALSE(clusters.ValidateMatching({{0, 1}, {1, 2}}, 6).ok());
  // Inactive endpoint.
  ASSERT_TRUE(clusters.Merge(0, 1, 6, LinkageRule::kMax).ok());
  EXPECT_FALSE(clusters.ValidateMatching({{1, 2}}, 7).ok());
  // A failed validation must not leave stale marks behind.
  EXPECT_TRUE(clusters.ValidateMatching({{3, 4}}, 7).ok());
}

// MergeBatch must be bit-identical to applying the same pairs serially,
// for every linkage rule, including the cross-pair similarity (the
// 1-4 chord becomes a (01)-(34) edge whose value nests two linkage
// applications).
TEST(ClusterGraphTest, MergeBatchMatchesSerialMerges) {
  for (LinkageRule rule :
       {LinkageRule::kSqrtNormalized, LinkageRule::kArithmeticMean,
        LinkageRule::kMax, LinkageRule::kMin}) {
    auto g = TwoPairGraph();
    ClusterGraph serial(g);
    ASSERT_TRUE(serial.Merge(0, 1, 6, rule).ok());
    ASSERT_TRUE(serial.Merge(3, 4, 7, rule).ok());

    ClusterGraph batched(g);
    ASSERT_TRUE(batched.MergeBatch({{0, 1}, {3, 4}}, 6, rule).ok());

    ASSERT_EQ(batched.num_nodes(), serial.num_nodes());
    for (uint32_t c = 0; c < serial.num_nodes(); ++c) {
      EXPECT_EQ(batched.IsActive(c), serial.IsActive(c)) << c;
      if (!serial.IsActive(c)) continue;
      EXPECT_EQ(batched.ClusterSize(c), serial.ClusterSize(c)) << c;
      // Bit-identical rows: same ids, same order, same doubles.
      EXPECT_EQ(batched.Neighbors(c), serial.Neighbors(c))
          << "row " << c << " rule " << LinkageRuleName(rule);
    }
  }
}

// Regression test for atomic round failure: a batch containing one
// corrupt pair must leave the graph completely untouched.
TEST(ClusterGraphTest, MergeBatchCorruptPairLeavesGraphUnchanged) {
  auto g = TwoPairGraph();
  ClusterGraph clusters(g, /*track_threshold=*/0.3);
  ClusterGraph before(g, /*track_threshold=*/0.3);
  // {3, 3} is a self pair — invalid — while {0, 1} is fine. Nothing may
  // be applied.
  EXPECT_FALSE(clusters.MergeBatch({{0, 1}, {3, 3}}, 6,
                                   LinkageRule::kSqrtNormalized)
                   .ok());
  ASSERT_EQ(clusters.num_nodes(), before.num_nodes());
  EXPECT_EQ(clusters.num_active(), before.num_active());
  for (uint32_t c = 0; c < before.num_nodes(); ++c) {
    EXPECT_EQ(clusters.IsActive(c), before.IsActive(c)) << c;
    EXPECT_EQ(clusters.Neighbors(c), before.Neighbors(c)) << c;
    EXPECT_EQ(clusters.MergeableEdgeCount(c), before.MergeableEdgeCount(c))
        << c;
  }
  // And the graph still works after the rejected batch.
  EXPECT_TRUE(clusters.MergeBatch({{0, 1}, {3, 4}}, 6,
                                  LinkageRule::kSqrtNormalized)
                  .ok());
}

TEST(ClusterGraphTest, MergeBatchEmptyIsNoOp) {
  auto g = TriangleWithTail();
  ClusterGraph clusters(g);
  EXPECT_TRUE(clusters.MergeBatch({}, 4, LinkageRule::kMax).ok());
  EXPECT_EQ(clusters.num_active(), 4u);
  EXPECT_EQ(clusters.num_nodes(), 4u);
}

}  // namespace
}  // namespace shoal::core
