#include "core/hac_common.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

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

// --- Randomized oracles for the constructor and MergeBatch --------------

// A seeded random symmetric graph. Vertices are isolated with
// probability 1/6; when `hub` is set, vertex n/2 is adjacent to every
// other vertex (no vertex is isolated then). Weights sit on a 1/16 grid
// so thresholds and ties are common.
struct RandomGraphSpec {
  uint32_t n = 0;
  std::vector<graph::WeightedGraph::FullEdge> edges;  // u < v, shuffled
};

RandomGraphSpec RandomSymmetricGraph(uint64_t seed, bool hub) {
  util::Rng rng(seed);
  RandomGraphSpec spec;
  spec.n = 1 + static_cast<uint32_t>(rng.Uniform(80));
  const uint32_t center = spec.n / 2;
  std::vector<bool> isolated(spec.n, false);
  if (!hub) {
    for (uint32_t v = 0; v < spec.n; ++v) isolated[v] = rng.Uniform(6) == 0;
  }
  const double density = 0.05 + 0.3 * rng.UniformDouble();
  for (uint32_t u = 0; u < spec.n; ++u) {
    for (uint32_t v = u + 1; v < spec.n; ++v) {
      if (isolated[u] || isolated[v]) continue;
      const bool at_hub = hub && (u == center || v == center);
      if (!at_hub && !rng.Bernoulli(density)) continue;
      spec.edges.push_back(
          {u, v, static_cast<double>(1 + rng.Uniform(16)) / 16.0});
    }
  }
  for (size_t i = spec.edges.size(); i > 1; --i) {
    std::swap(spec.edges[i - 1], spec.edges[rng.Uniform(i)]);
  }
  return spec;
}

graph::WeightedGraph ViaAddEdge(const RandomGraphSpec& spec) {
  graph::WeightedGraph g(spec.n);
  for (const auto& e : spec.edges) {
    EXPECT_TRUE(g.AddEdge(e.u, e.v, e.weight).ok());
  }
  return g;
}

// The same graph adopted through FromRows, each row in shuffled order.
graph::WeightedGraph ViaShuffledRows(const RandomGraphSpec& spec,
                                     uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<graph::Edge>> rows(spec.n);
  for (const auto& e : spec.edges) {
    rows[e.u].push_back({e.v, e.weight});
    rows[e.v].push_back({e.u, e.weight});
  }
  for (auto& row : rows) {
    for (size_t i = row.size(); i > 1; --i) {
      std::swap(row[i - 1], row[rng.Uniform(i)]);
    }
  }
  return graph::WeightedGraph::FromRows(std::move(rows));
}

// Reference construction, row by row: copy each base row and sort it
// by id. It needs no symmetric-rows precondition.
struct ReferenceRows {
  std::vector<std::vector<ClusterEdge>> rows;
  std::vector<std::vector<uint32_t>> strong;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> mergeable;
};

ReferenceRows SortedRowCopy(const graph::WeightedGraph& base,
                            double track_threshold) {
  ReferenceRows ref;
  const uint32_t n = static_cast<uint32_t>(base.num_vertices());
  ref.rows.resize(n);
  ref.strong.resize(n);
  ref.counts.assign(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    for (const graph::Edge& e : base.Neighbors(u)) {
      ref.rows[u].push_back(ClusterEdge{e.to, e.weight});
    }
    std::sort(ref.rows[u].begin(), ref.rows[u].end(),
              [](const ClusterEdge& x, const ClusterEdge& y) {
                return x.id < y.id;
              });
    if (track_threshold <= 0.0) continue;
    for (const ClusterEdge& e : ref.rows[u]) {
      if (e.similarity < track_threshold) continue;
      ref.strong[u].push_back(e.id);
      ++ref.counts[u];
    }
    if (ref.counts[u] > 0) ref.mergeable.push_back(u);
  }
  return ref;
}

void ExpectMatchesReference(ClusterGraph& clusters,
                            const ReferenceRows& ref, bool track,
                            const std::string& label) {
  ASSERT_EQ(clusters.num_nodes(), ref.rows.size()) << label;
  for (uint32_t u = 0; u < ref.rows.size(); ++u) {
    EXPECT_EQ(clusters.Neighbors(u), ref.rows[u]) << label << " row " << u;
    EXPECT_EQ(clusters.MergeableEdgeCount(u), ref.counts[u])
        << label << " row " << u;
    EXPECT_EQ(clusters.StrongNeighbors(u), ref.strong[u])
        << label << " row " << u;
  }
  if (track) {
    EXPECT_EQ(clusters.MergeableClusters(), ref.mergeable) << label;
  }
}

// The transpose construction equals an id-sorted copy of every row, for
// graphs built by AddEdge and for FromRows with rows in any order.
TEST(ClusterGraphTest, ConstructorMatchesSortedRowCopyOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const RandomGraphSpec spec = RandomSymmetricGraph(seed, seed % 3 == 0);
    for (const double threshold : {0.0, 0.5}) {
      const bool track = threshold > 0.0;
      const graph::WeightedGraph added = ViaAddEdge(spec);
      const graph::WeightedGraph adopted = ViaShuffledRows(spec, seed + 99);
      const ReferenceRows ref = SortedRowCopy(added, threshold);
      ClusterGraph from_added(added, threshold);
      ClusterGraph from_adopted(adopted, threshold);
      const std::string label = "seed " + std::to_string(seed) +
                                " threshold " + std::to_string(threshold);
      ExpectMatchesReference(from_added, ref, track, label + " AddEdge");
      ExpectMatchesReference(from_adopted, ref, track, label + " FromRows");
    }
  }
}

// Everything MergeBatch maintains, compared field by field.
void ExpectSameState(ClusterGraph& batched, ClusterGraph& serial,
                     const std::string& label) {
  ASSERT_EQ(batched.num_nodes(), serial.num_nodes()) << label;
  EXPECT_EQ(batched.num_active(), serial.num_active()) << label;
  for (uint32_t c = 0; c < serial.num_nodes(); ++c) {
    ASSERT_EQ(batched.IsActive(c), serial.IsActive(c)) << label << " " << c;
    if (!serial.IsActive(c)) continue;
    EXPECT_EQ(batched.ClusterSize(c), serial.ClusterSize(c))
        << label << " " << c;
    EXPECT_EQ(batched.Neighbors(c), serial.Neighbors(c))
        << label << " row " << c;
    EXPECT_EQ(batched.MergeableEdgeCount(c), serial.MergeableEdgeCount(c))
        << label << " row " << c;
    EXPECT_EQ(batched.StrongNeighbors(c), serial.StrongNeighbors(c))
        << label << " row " << c;
  }
  EXPECT_EQ(batched.MergeableClusters(), serial.MergeableClusters())
      << label;
}

// Serial Eq. 4 merges over ordered maps, with none of ClusterGraph's
// row code: Merge and MergeBatch share the neighbour rewiring, so the
// batch-vs-serial comparison alone could not see a fault in it.
struct MapModel {
  std::vector<std::map<uint32_t, double>> rows;
  std::vector<uint32_t> sizes;
  std::vector<bool> active;

  explicit MapModel(const graph::WeightedGraph& g)
      : rows(g.num_vertices()),
        sizes(g.num_vertices(), 1),
        active(g.num_vertices(), true) {
    for (uint32_t u = 0; u < g.num_vertices(); ++u) {
      for (const graph::Edge& e : g.Neighbors(u)) rows[u][e.to] = e.weight;
    }
  }

  void Merge(uint32_t a, uint32_t b, LinkageRule rule) {
    const uint32_t new_id = static_cast<uint32_t>(rows.size());
    std::map<uint32_t, double> merged;
    for (const uint32_t side : {a, b}) {
      for (const auto& [c, s] : rows[side]) {
        if (c == a || c == b || merged.count(c)) continue;
        const double s_ac = rows[a].count(c) ? rows[a].at(c) : 0.0;
        const double s_bc = rows[b].count(c) ? rows[b].at(c) : 0.0;
        merged[c] = MergedSimilarity(rule, s_ac, s_bc, sizes[a], sizes[b]);
      }
    }
    for (const auto& [c, s] : merged) {
      rows[c].erase(a);
      rows[c].erase(b);
      rows[c][new_id] = s;
    }
    rows.push_back(std::move(merged));
    sizes.push_back(sizes[a] + sizes[b]);
    active.push_back(true);
    rows[a].clear();
    rows[b].clear();
    active[a] = false;
    active[b] = false;
  }
};

void ExpectMatchesModel(ClusterGraph& clusters, const MapModel& model,
                        double threshold, const std::string& label) {
  ASSERT_EQ(clusters.num_nodes(), model.rows.size()) << label;
  std::vector<uint32_t> mergeable;
  for (uint32_t c = 0; c < model.rows.size(); ++c) {
    ASSERT_EQ(clusters.IsActive(c), model.active[c]) << label << " " << c;
    if (!model.active[c]) continue;
    EXPECT_EQ(clusters.ClusterSize(c), model.sizes[c]) << label << " " << c;
    std::vector<ClusterEdge> row;
    std::vector<uint32_t> strong;
    for (const auto& [id, s] : model.rows[c]) {
      row.push_back(ClusterEdge{id, s});
      if (s >= threshold) strong.push_back(id);
    }
    EXPECT_EQ(clusters.Neighbors(c), row) << label << " row " << c;
    EXPECT_EQ(clusters.StrongNeighbors(c), strong) << label << " row " << c;
    EXPECT_EQ(clusters.MergeableEdgeCount(c), strong.size())
        << label << " row " << c;
    if (!strong.empty()) mergeable.push_back(c);
  }
  EXPECT_EQ(clusters.MergeableClusters(), mergeable) << label;
}

// MergeBatch equals serial Merge calls, and both equal the map model,
// strong lists and counts included, on seeded random matchings of 1-30
// pairs over three successive batches (so later batches rewire rows
// whose tails already hold merged ids). Every graph has a hub that
// stays unmatched, so its row neighbours every pair and holds both
// endpoints of each; the loop counts both row shapes to show they were
// exercised.
TEST(ClusterGraphTest, MergeBatchMatchesSerialMergesOnRandomMatchings) {
  const LinkageRule rules[] = {
      LinkageRule::kSqrtNormalized, LinkageRule::kArithmeticMean,
      LinkageRule::kMax, LinkageRule::kMin};
  constexpr double kThreshold = 0.5;
  size_t rows_near_several_pairs = 0;
  size_t rows_holding_both_endpoints = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    const RandomGraphSpec spec = RandomSymmetricGraph(seed, /*hub=*/true);
    if (spec.n < 3) continue;
    const uint32_t hub = spec.n / 2;
    const LinkageRule rule = rules[seed % 4];
    const graph::WeightedGraph g = ViaAddEdge(spec);
    ClusterGraph batched(g, kThreshold);
    ClusterGraph serial(g, kThreshold);
    MapModel model(g);
    util::Rng rng(seed * 7919);
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<uint32_t> pool;
      for (uint32_t c : serial.ActiveClusters()) {
        if (c != hub) pool.push_back(c);
      }
      for (size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.Uniform(i)]);
      }
      const size_t want = 1 + rng.Uniform(30);
      std::vector<std::pair<uint32_t, uint32_t>> pairs;
      for (size_t i = 0; i + 1 < pool.size() && pairs.size() < want; i += 2) {
        pairs.emplace_back(pool[i], pool[i + 1]);
      }
      if (pairs.empty()) break;

      // Coverage of the two row shapes RewireNeighbor has to get right.
      for (uint32_t c : serial.ActiveClusters()) {
        size_t near = 0;
        for (const auto& [a, b] : pairs) {
          const bool has_a = serial.HasNeighbor(c, a);
          const bool has_b = serial.HasNeighbor(c, b);
          if (c == a || c == b) continue;
          near += has_a || has_b;
          rows_holding_both_endpoints += has_a && has_b;
        }
        rows_near_several_pairs += near >= 2;
      }

      const uint32_t first_new_id = static_cast<uint32_t>(serial.num_nodes());
      for (uint32_t m = 0; m < pairs.size(); ++m) {
        ASSERT_TRUE(serial
                        .Merge(pairs[m].first, pairs[m].second,
                               first_new_id + m, rule)
                        .ok());
        model.Merge(pairs[m].first, pairs[m].second, rule);
      }
      ASSERT_TRUE(batched.MergeBatch(pairs, first_new_id, rule).ok());
      const std::string label = "seed " + std::to_string(seed) + " batch " +
                                std::to_string(batch) + " rule " +
                                LinkageRuleName(rule);
      ExpectSameState(batched, serial, label);
      ExpectMatchesModel(serial, model, kThreshold, label);
    }
  }
  EXPECT_GT(rows_near_several_pairs, 0u);
  EXPECT_GT(rows_holding_both_endpoints, 0u);
}

}  // namespace
}  // namespace shoal::core
