#include "core/parallel_hac.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/modularity.h"

namespace shoal::core {
namespace {

ParallelHacOptions FastOptions() {
  ParallelHacOptions options;
  options.num_partitions = 4;
  options.num_threads = 2;
  return options;
}

TEST(ParallelHacTest, ValidatesOptions) {
  graph::WeightedGraph g(2);
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.0;
  EXPECT_FALSE(ParallelHac(g, options).ok());
  options = FastOptions();
  options.diffusion_iterations = 0;
  EXPECT_FALSE(ParallelHac(g, options).ok());
}

// The resume entry point shares ValidateOptions with the fresh path: a
// zero diffusion depth must be rejected before any state is touched,
// not fall into the k - 1 superstep arithmetic.
TEST(ParallelHacTest, ResumeValidatesDiffusionIterations) {
  ParallelHacOptions options = FastOptions();
  options.diffusion_iterations = 0;
  HacResumeState state;  // contents irrelevant: options fail first
  auto resumed = ResumeParallelHac(options, std::move(state));
  EXPECT_FALSE(resumed.ok());
}

TEST(ParallelHacTest, EmptyGraphNoMerges) {
  graph::WeightedGraph g(5);
  auto d = ParallelHac(g, FastOptions());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 0u);
}

TEST(ParallelHacTest, SingleEdgeMerges) {
  graph::WeightedGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ParallelHacStats stats;
  auto d = ParallelHac(g, FastOptions(), &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 1u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.total_merges, 1u);
  EXPECT_DOUBLE_EQ(d->node(2).merge_similarity, 0.9);
}

TEST(ParallelHacTest, BelowThresholdEdgesIgnored) {
  graph::WeightedGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.3).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.9).ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.5;
  auto d = ParallelHac(g, options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_merges(), 1u);
  auto labels = d->FlatClusters();
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
}

TEST(ParallelHacTest, IndependentEdgesMergeInOneRound) {
  // Two far-apart strong edges must merge in the same round — the whole
  // point of distributed merging (Figure 3: AB and EF merge together).
  graph::WeightedGraph g(6);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.85).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 0.8).ok());
  ParallelHacStats stats;
  auto d = ParallelHac(g, FastOptions(), &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.merges_per_round[0], 3u);
}

TEST(ParallelHacTest, LocalMaximaFormMatching) {
  // In a triangle only one edge can be locally maximal (they all share
  // vertices), so the first round merges exactly one pair.
  graph::WeightedGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.8).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  ParallelHacStats stats;
  auto d = ParallelHac(g, FastOptions(), &stats);
  ASSERT_TRUE(d.ok());
  ASSERT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.merges_per_round[0], 1u);
  // First merge must be the best edge (0,1).
  EXPECT_EQ(d->node(3).left, 0u);
  EXPECT_EQ(d->node(3).right, 1u);
}

TEST(ParallelHacTest, MoreDiffusionIterationsFewerLocalMaxima) {
  // The paper's Figure 3 trade-off: larger k means each edge must
  // dominate a wider neighbourhood, so the first round finds at most as
  // many local maxima.
  auto g = graph::GenerateErdosRenyi(100, 0.08, 21);
  ASSERT_TRUE(g.ok());
  size_t prev_first_round = SIZE_MAX;
  for (size_t k : {1u, 2u, 4u}) {
    ParallelHacOptions options = FastOptions();
    options.diffusion_iterations = k;
    options.hac.threshold = 0.2;
    ParallelHacStats stats;
    auto d = ParallelHac(*g, options, &stats);
    ASSERT_TRUE(d.ok());
    ASSERT_FALSE(stats.merges_per_round.empty());
    EXPECT_LE(stats.merges_per_round[0], prev_first_round);
    prev_first_round = stats.merges_per_round[0];
  }
}

TEST(ParallelHacTest, FewerRoundsThanSequentialIterations) {
  // Challenge 2: sequential HAC needs one iteration per merge; parallel
  // HAC packs many independent merges into each early round. On a
  // clustered graph the first rounds carry most of the merges, so the
  // total round count is well below the merge count.
  graph::PlantedPartitionOptions planted_options;
  planted_options.num_vertices = 300;
  planted_options.num_clusters = 20;
  planted_options.p_in = 0.5;
  planted_options.p_out = 0.005;
  planted_options.mu_in = 0.85;
  planted_options.seed = 5;
  auto planted = graph::GeneratePlantedPartition(planted_options);
  ASSERT_TRUE(planted.ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.3;
  ParallelHacStats stats;
  auto d = ParallelHac(planted->graph, options, &stats);
  ASSERT_TRUE(d.ok());
  ASSERT_GT(stats.total_merges, 100u);
  EXPECT_LT(stats.rounds, stats.total_merges / 2);
  // The first round alone performs many independent merges.
  EXPECT_GT(stats.merges_per_round[0], 10u);
}

TEST(ParallelHacTest, AllMergesAboveThreshold) {
  auto g = graph::GenerateErdosRenyi(80, 0.15, 7);
  ASSERT_TRUE(g.ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.45;
  auto d = ParallelHac(*g, options);
  ASSERT_TRUE(d.ok());
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_GE(d->node(n).merge_similarity, 0.45);
  }
}

TEST(ParallelHacTest, TerminatesWithNoMergeableEdgesLeft) {
  auto g = graph::GenerateErdosRenyi(60, 0.2, 13);
  ASSERT_TRUE(g.ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.5;
  auto d = ParallelHac(g.value(), options);
  ASSERT_TRUE(d.ok());
  // Rebuild the final cluster graph and verify no remaining edge
  // reaches the threshold.
  ClusterGraph clusters(g.value());
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    ASSERT_TRUE(clusters
                    .Merge(d->node(n).left, d->node(n).right, n,
                           options.hac.linkage)
                    .ok());
  }
  auto best = clusters.GlobalBestEdge();
  if (best.similarity >= 0.0) {
    EXPECT_LT(best.similarity, options.hac.threshold);
  }
}

TEST(ParallelHacTest, DeterministicAcrossThreadCounts) {
  auto g = graph::GenerateErdosRenyi(100, 0.1, 19);
  ASSERT_TRUE(g.ok());
  auto run = [&](size_t threads, size_t partitions) {
    ParallelHacOptions options;
    options.num_threads = threads;
    options.num_partitions = partitions;
    options.hac.threshold = 0.3;
    auto d = ParallelHac(*g, options);
    EXPECT_TRUE(d.ok());
    return d->FlatClusters();
  };
  auto a = run(1, 2);
  auto b = run(4, 8);
  EXPECT_EQ(a, b);
}

TEST(ParallelHacTest, RecoversPlantedPartitionWithGoodModularity) {
  graph::PlantedPartitionOptions planted_options;
  planted_options.num_vertices = 150;
  planted_options.num_clusters = 5;
  planted_options.p_in = 0.6;
  planted_options.p_out = 0.01;
  planted_options.mu_in = 0.9;
  planted_options.mu_out = 0.15;
  auto planted = graph::GeneratePlantedPartition(planted_options);
  ASSERT_TRUE(planted.ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.35;
  auto d = ParallelHac(planted->graph, options);
  ASSERT_TRUE(d.ok());
  auto q = graph::Modularity(planted->graph, d->FlatClusters());
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q.value(), 0.3);  // the paper's in-text claim
}

TEST(ParallelHacTest, StatsAccounting) {
  auto g = graph::GenerateErdosRenyi(50, 0.2, 23);
  ASSERT_TRUE(g.ok());
  ParallelHacOptions options = FastOptions();
  options.hac.threshold = 0.3;
  ParallelHacStats stats;
  auto d = ParallelHac(*g, options, &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(stats.rounds, stats.merges_per_round.size());
  size_t sum = 0;
  for (size_t m : stats.merges_per_round) sum += m;
  EXPECT_EQ(sum, stats.total_merges);
  EXPECT_EQ(d->num_merges(), stats.total_merges);
  // The default mode decides merges without diffusion: no messages and
  // no supersteps, only candidate evaluations.
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_supersteps, 0u);
  EXPECT_EQ(stats.total_candidates - stats.total_rejected,
            stats.total_merges);
}

}  // namespace
}  // namespace shoal::core
