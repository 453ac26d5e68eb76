#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_hac.h"
#include "core/sequential_hac.h"
#include "graph/generators.h"

namespace shoal::core {
namespace {

// The SHOAL determinism contract (DESIGN.md): the dendrogram produced
// by ParallelHac is a pure function of the graph and the HAC options —
// never of the thread count or the partitioning. These tests sweep the
// full execution matrix and require byte-identical results.

std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                       double>>
DendrogramBytes(const Dendrogram& d) {
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                         double>>
      out;
  out.reserve(d.num_nodes());
  for (uint32_t i = 0; i < d.num_nodes(); ++i) {
    const auto& n = d.node(i);
    // merge_similarity is compared as an exact double: "deterministic"
    // means bit-identical floats, not approximately-equal ones.
    out.emplace_back(n.id, n.parent, n.left, n.right, n.size,
                     n.merge_similarity);
  }
  return out;
}

graph::WeightedGraph TestGraph(bool planted, uint64_t seed) {
  if (!planted) {
    auto er = graph::GenerateErdosRenyi(180, 0.07, seed);
    EXPECT_TRUE(er.ok());
    return std::move(er.value());
  }
  graph::PlantedPartitionOptions po;
  po.num_vertices = 200;
  po.num_clusters = 10;
  po.p_in = 0.45;
  po.p_out = 0.01;
  po.mu_in = 0.8;
  po.seed = seed;
  auto result = graph::GeneratePlantedPartition(po);
  EXPECT_TRUE(result.ok());
  return std::move(result->graph);
}

struct MatrixCase {
  bool planted;
  uint64_t seed;
};

class HacDeterminismTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(HacDeterminismTest, ByteIdenticalAcrossThreadsAndPartitions) {
  const MatrixCase& param = GetParam();
  auto graph = TestGraph(param.planted, param.seed);

  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                         double>>
      reference;
  bool have_reference = false;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (size_t partitions : {1u, 4u, 13u}) {
      ParallelHacOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;
      options.hac.threshold = 0.3;
      auto d = ParallelHac(graph, options);
      ASSERT_TRUE(d.ok()) << d.status().message();
      auto bytes = DendrogramBytes(d.value());
      if (!have_reference) {
        reference = std::move(bytes);
        have_reference = true;
      } else {
        EXPECT_EQ(bytes, reference)
            << "threads=" << threads << " partitions=" << partitions;
      }
    }
  }
}

// The default mode finds local maximal edges without diffusion: at every
// diffusion depth its mutual-best candidates plus the exact ball-k check
// must reproduce the full-broadcast dendrogram and merge schedule byte
// for byte, while sending no messages. Some candidates must be rejected
// by the check — otherwise it would not be exercised.
TEST_P(HacDeterminismTest, DeltaMatchesFullBroadcastAtEveryDepth) {
  const MatrixCase& param = GetParam();
  auto graph = TestGraph(param.planted, param.seed);
  for (size_t k : {1u, 2u, 3u}) {
    ParallelHacOptions options;
    options.hac.threshold = 0.3;
    options.diffusion_iterations = k;

    options.diffusion_mode = DiffusionMode::kDelta;
    ParallelHacStats delta_stats;
    auto delta = ParallelHac(graph, options, &delta_stats);
    ASSERT_TRUE(delta.ok()) << delta.status().message();

    options.diffusion_mode = DiffusionMode::kFullBroadcast;
    ParallelHacStats full_stats;
    auto full = ParallelHac(graph, options, &full_stats);
    ASSERT_TRUE(full.ok()) << full.status().message();

    EXPECT_EQ(DendrogramBytes(delta.value()), DendrogramBytes(full.value()))
        << "k=" << k;
    EXPECT_EQ(delta_stats.total_merges, full_stats.total_merges) << "k=" << k;
    EXPECT_EQ(delta_stats.rounds, full_stats.rounds) << "k=" << k;
    EXPECT_EQ(delta_stats.total_messages, 0u) << "k=" << k;
    EXPECT_GT(full_stats.total_messages, 0u) << "k=" << k;
    if (k == 2) {
      EXPECT_GT(delta_stats.total_rejected, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HacDeterminismTest,
    ::testing::Values(MatrixCase{false, 11}, MatrixCase{false, 29},
                      MatrixCase{false, 47}, MatrixCase{true, 11},
                      MatrixCase{true, 29}, MatrixCase{true, 47}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.planted ? "planted" : "er") + "_s" +
             std::to_string(info.param.seed);
    });

// On well-separated planted partitions the locally-maximal-edge rounds
// make the same merge decisions as exact best-first HAC, so the flat
// clusterings agree at the default threshold. This is the paper's
// quality claim (Sec 2.2) in its strongest checkable form.
TEST(HacParallelVsSequentialTest, FlatClustersAgreeOnPlantedPartitions) {
  for (uint64_t seed : {11ull, 29ull, 47ull}) {
    auto graph = TestGraph(/*planted=*/true, seed);

    ParallelHacOptions par_options;  // default threshold
    par_options.num_threads = 4;
    par_options.num_partitions = 4;
    auto par = ParallelHac(graph, par_options);
    ASSERT_TRUE(par.ok());

    HacOptions seq_options;  // same default threshold
    auto seq = SequentialHac(graph, seq_options);
    ASSERT_TRUE(seq.ok());

    auto par_flat = par->FlatClusters();
    auto seq_flat = seq->FlatClusters();
    ASSERT_EQ(par_flat.size(), seq_flat.size());
    // Same partition of the vertex set; label values are incidental, so
    // compare via canonical relabelling (label -> first vertex seen).
    auto canonical = [](const std::vector<uint32_t>& labels) {
      // Labels are dendrogram root ids, which range up to 2V - 1.
      std::vector<uint32_t> first(2 * labels.size(), kNoNode);
      std::vector<uint32_t> out(labels.size());
      for (uint32_t v = 0; v < labels.size(); ++v) {
        if (first[labels[v]] == kNoNode) first[labels[v]] = v;
        out[v] = first[labels[v]];
      }
      return out;
    };
    EXPECT_EQ(canonical(par_flat), canonical(seq_flat)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace shoal::core
