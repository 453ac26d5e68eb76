// Property-based sweeps over both HAC implementations: for a grid of
// graph shapes, thresholds, linkage rules and diffusion settings, the
// invariants of hierarchical agglomerative clustering must hold.

#include <gtest/gtest.h>

#include "core/parallel_hac.h"
#include "core/sequential_hac.h"
#include "eval/cluster_metrics.h"
#include "graph/generators.h"
#include "graph/modularity.h"

namespace shoal::core {
namespace {

struct HacCase {
  size_t num_vertices;
  size_t num_clusters;
  double threshold;
  LinkageRule linkage;
  size_t diffusion_iterations;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<HacCase>& info) {
  const HacCase& c = info.param;
  return "n" + std::to_string(c.num_vertices) + "_k" +
         std::to_string(c.num_clusters) + "_t" +
         std::to_string(static_cast<int>(c.threshold * 100)) + "_" +
         LinkageRuleName(c.linkage) + "_d" +
         std::to_string(c.diffusion_iterations) + "_s" +
         std::to_string(c.seed);
}

class HacPropertyTest : public ::testing::TestWithParam<HacCase> {
 protected:
  graph::PlantedPartitionResult MakeGraph() const {
    const HacCase& c = GetParam();
    graph::PlantedPartitionOptions options;
    options.num_vertices = c.num_vertices;
    options.num_clusters = c.num_clusters;
    options.p_in = 0.35;
    options.p_out = 0.02;
    options.mu_in = 0.85;
    options.mu_out = 0.2;
    options.seed = c.seed;
    auto result = graph::GeneratePlantedPartition(options);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST_P(HacPropertyTest, ParallelHacInvariants) {
  const HacCase& c = GetParam();
  auto planted = MakeGraph();
  ParallelHacOptions options;
  options.hac.threshold = c.threshold;
  options.hac.linkage = c.linkage;
  options.diffusion_iterations = c.diffusion_iterations;
  options.num_threads = 2;
  ParallelHacStats stats;
  auto d = ParallelHac(planted.graph, options, &stats);
  ASSERT_TRUE(d.ok());

  // Invariant 1: node count bookkeeping.
  EXPECT_EQ(d->num_nodes(), d->num_leaves() + stats.total_merges);

  // Invariant 2: every merge happened at or above the threshold.
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_GE(d->node(n).merge_similarity, c.threshold);
  }

  // Invariant 3: sizes are consistent (children sum to parent).
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_EQ(d->node(n).size,
              d->node(d->node(n).left).size +
                  d->node(d->node(n).right).size);
  }

  // Invariant 4: root sizes sum to the number of leaves (no vertex is
  // lost or duplicated).
  size_t total = 0;
  for (uint32_t root : d->Roots()) total += d->node(root).size;
  EXPECT_EQ(total, d->num_leaves());

  // Invariant 5: cluster labels form a valid partition.
  auto labels = d->FlatClusters();
  EXPECT_EQ(labels.size(), d->num_leaves());
}

TEST_P(HacPropertyTest, SequentialHacInvariants) {
  const HacCase& c = GetParam();
  auto planted = MakeGraph();
  HacOptions options;
  options.threshold = c.threshold;
  options.linkage = c.linkage;
  auto d = SequentialHac(planted.graph, options);
  ASSERT_TRUE(d.ok());
  for (uint32_t n = static_cast<uint32_t>(d->num_leaves());
       n < d->num_nodes(); ++n) {
    EXPECT_GE(d->node(n).merge_similarity, c.threshold);
    EXPECT_EQ(d->node(n).size,
              d->node(d->node(n).left).size +
                  d->node(d->node(n).right).size);
  }
}

TEST_P(HacPropertyTest, ParallelQualityTracksSequential) {
  // The paper's implicit claim: distributed merging matches exact greedy
  // HAC quality. Require parallel NMI within 0.15 of sequential NMI
  // against the planted partition, and modularity above the paper's 0.3
  // bar whenever the sequential baseline reaches it.
  const HacCase& c = GetParam();
  auto planted = MakeGraph();

  HacOptions seq_options;
  seq_options.threshold = c.threshold;
  seq_options.linkage = c.linkage;
  auto seq = SequentialHac(planted.graph, seq_options);
  ASSERT_TRUE(seq.ok());

  ParallelHacOptions par_options;
  par_options.hac = seq_options;
  par_options.diffusion_iterations = c.diffusion_iterations;
  auto par = ParallelHac(planted.graph, par_options);
  ASSERT_TRUE(par.ok());

  auto seq_nmi = eval::NormalizedMutualInformation(seq->FlatClusters(),
                                                   planted.ground_truth);
  auto par_nmi = eval::NormalizedMutualInformation(par->FlatClusters(),
                                                   planted.ground_truth);
  ASSERT_TRUE(seq_nmi.ok());
  ASSERT_TRUE(par_nmi.ok());
  EXPECT_GT(par_nmi.value(), seq_nmi.value() - 0.15)
      << "parallel " << par_nmi.value() << " vs sequential "
      << seq_nmi.value();

  auto seq_q =
      graph::Modularity(planted.graph, seq->FlatClusters());
  auto par_q =
      graph::Modularity(planted.graph, par->FlatClusters());
  ASSERT_TRUE(seq_q.ok());
  ASSERT_TRUE(par_q.ok());
  if (seq_q.value() > 0.3) {
    EXPECT_GT(par_q.value(), 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HacPropertyTest,
    ::testing::Values(
        HacCase{80, 4, 0.4, LinkageRule::kSqrtNormalized, 2, 1},
        HacCase{80, 4, 0.4, LinkageRule::kSqrtNormalized, 1, 1},
        HacCase{80, 4, 0.4, LinkageRule::kSqrtNormalized, 3, 1},
        HacCase{80, 4, 0.55, LinkageRule::kSqrtNormalized, 2, 2},
        HacCase{80, 4, 0.3, LinkageRule::kSqrtNormalized, 2, 3},
        HacCase{120, 6, 0.4, LinkageRule::kArithmeticMean, 2, 4},
        HacCase{120, 6, 0.4, LinkageRule::kMax, 2, 5},
        HacCase{120, 6, 0.4, LinkageRule::kMin, 2, 6},
        HacCase{150, 3, 0.45, LinkageRule::kSqrtNormalized, 2, 7},
        HacCase{60, 10, 0.4, LinkageRule::kSqrtNormalized, 2, 8}),
    CaseName);

}  // namespace
}  // namespace shoal::core
