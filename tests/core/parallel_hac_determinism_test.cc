#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_hac.h"
#include "core/sequential_hac.h"
#include "graph/generators.h"

namespace shoal::core {
namespace {

// The SHOAL determinism contract (DESIGN.md §8): the dendrogram produced
// by ParallelHac is a pure function of the graph and the HAC options —
// never of the thread count. These tests pin it three ways: byte
// identity across threads, byte identity with a brute-force statement of
// the paper's round, and equality of the merge tree with SequentialHac's.

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

// `g` with every weight rounded to a multiple of `grid` (at least one
// grid step), so many mergeable edges tie and EdgeBeats' id order
// decides between them.
graph::WeightedGraph RoundedToGrid(const graph::WeightedGraph& g,
                                   double grid) {
  graph::WeightedGraph out(g.num_vertices());
  for (const auto& e : g.AllEdges()) {
    const double w = std::max(1.0, std::round(e.weight / grid)) * grid;
    EXPECT_TRUE(out.AddEdge(e.u, e.v, w).ok());
  }
  return out;
}

// Brute-force statement of the paper's round (Sec 2.2), with no
// incremental state: every mergeable cluster takes its best mergeable
// edge under EdgeBeats, then the best such edge within k mergeable hops,
// and the pairs whose two endpoints hold the same edge merge, in
// ascending smaller-endpoint order, through serial ClusterGraph::Merge.
struct ReferenceRun {
  Dendrogram dendrogram;
  std::vector<size_t> merges_per_round;
};

ReferenceRun ReferenceHac(const graph::WeightedGraph& graph,
                          double threshold, size_t k) {
  using Best = ClusterGraph::BestEdge;  // similarity < 0: none
  const auto beats = [](const Best& x, const Best& y) {
    if (x.similarity < 0.0) return false;
    if (y.similarity < 0.0) return true;
    return EdgeBeats(x.u, x.v, x.similarity, y.u, y.v, y.similarity);
  };
  ReferenceRun run{Dendrogram(graph.num_vertices()), {}};
  ClusterGraph clusters(graph, threshold);
  for (;;) {
    const std::vector<uint32_t> active = clusters.MergeableClusters();
    std::vector<Best> own(clusters.num_nodes());
    for (uint32_t v : active) {
      for (const ClusterEdge& e : clusters.Neighbors(v)) {
        const Best edge{std::min(v, e.id), std::max(v, e.id), e.similarity};
        if (e.similarity >= threshold && beats(edge, own[v])) own[v] = edge;
      }
    }
    std::vector<Best> held(clusters.num_nodes());
    for (uint32_t v : active) {
      held[v] = own[v];
      std::vector<uint8_t> seen(clusters.num_nodes(), 0);
      seen[v] = 1;
      std::vector<uint32_t> ring = {v};
      for (size_t hop = 0; hop < k; ++hop) {
        std::vector<uint32_t> next;
        for (uint32_t x : ring) {
          for (const ClusterEdge& e : clusters.Neighbors(x)) {
            if (e.similarity < threshold || seen[e.id]) continue;
            seen[e.id] = 1;
            next.push_back(e.id);
            if (beats(own[e.id], held[v])) held[v] = own[e.id];
          }
        }
        ring.swap(next);
      }
    }
    size_t merges = 0;
    for (uint32_t v : active) {
      const Best& e = held[v];
      if (e.similarity < 0.0 || e.u != v || held[e.v].u != e.u ||
          held[e.v].v != e.v) {
        continue;
      }
      auto id = run.dendrogram.Merge(e.u, e.v, e.similarity);
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(clusters
                      .Merge(e.u, e.v, id.value(),
                             LinkageRule::kSqrtNormalized)
                      .ok());
      ++merges;
    }
    if (merges == 0) break;
    run.merges_per_round.push_back(merges);
  }
  return run;
}

// 16 bytes, with `grid_percent` in the padding after `planted`: gtest
// prints the struct's size and bytes in each instance's name.
struct MatrixCase {
  bool planted = false;
  // > 0: weights rounded to multiples of grid_percent / 100 (tied weights).
  uint8_t grid_percent = 0;
  uint64_t seed = 0;
};

graph::WeightedGraph MatrixGraph(const MatrixCase& c) {
  auto graph = TestGraph(c.planted, c.seed);
  if (c.grid_percent == 0) return graph;
  return RoundedToGrid(graph, c.grid_percent / 100.0);
}

class HacDeterminismTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(HacDeterminismTest, ByteIdenticalAcrossThreadsAndPartitions) {
  auto graph = MatrixGraph(GetParam());

  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                         double>>
      reference;
  bool have_reference = false;
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ParallelHacOptions options;
    options.num_threads = threads;
    options.hac.threshold = 0.3;
    auto d = ParallelHac(graph, options);
    ASSERT_TRUE(d.ok()) << d.status().message();
    auto bytes = DendrogramBytes(d.value());
    if (!have_reference) {
      reference = std::move(bytes);
      have_reference = true;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

// ParallelHac finds each round's local maximal edges from mutual-best
// candidates plus an exact ball-k check, not by diffusion. At every
// depth and thread count it must reproduce the brute-force round's
// dendrogram and merge schedule byte for byte. Some candidates must be
// rejected by the check — otherwise it would not be exercised.
TEST_P(HacDeterminismTest, MatchesRoundReferenceAtEveryDepth) {
  auto graph = MatrixGraph(GetParam());
  for (size_t k : {1u, 2u, 3u}) {
    const ReferenceRun reference = ReferenceHac(graph, 0.3, k);
    for (size_t threads : {1u, 4u}) {
      ParallelHacOptions options;
      options.hac.threshold = 0.3;
      options.diffusion_iterations = k;
      options.num_threads = threads;
      ParallelHacStats stats;
      auto d = ParallelHac(graph, options, &stats);
      ASSERT_TRUE(d.ok()) << d.status().message();
      EXPECT_EQ(DendrogramBytes(d.value()),
                DendrogramBytes(reference.dendrogram))
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(stats.merges_per_round, reference.merges_per_round)
          << "k=" << k << " threads=" << threads;
      if (k == 2) {
        EXPECT_GT(stats.total_rejected, 0u) << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HacDeterminismTest,
    ::testing::Values(MatrixCase{.planted = false, .seed = 11},
                      MatrixCase{.planted = false, .seed = 29},
                      MatrixCase{.planted = false, .seed = 47},
                      MatrixCase{.planted = true, .seed = 11},
                      MatrixCase{.planted = true, .seed = 29},
                      MatrixCase{.planted = true, .seed = 47},
                      MatrixCase{.planted = false, .grid_percent = 10, .seed = 11},
                      MatrixCase{.planted = false, .grid_percent = 5, .seed = 29},
                      MatrixCase{.planted = true, .grid_percent = 10, .seed = 11},
                      MatrixCase{.planted = true, .grid_percent = 5, .seed = 29}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = std::string(info.param.planted ? "planted" : "er") +
                         "_s" + std::to_string(info.param.seed);
      if (info.param.grid_percent > 0) {
        name += "_grid";
        name += std::to_string(info.param.grid_percent);
        name += "pct";
      }
      return name;
    });

// Canonical form of a merge tree, independent of node numbering: each
// internal node's sorted leaf set mapped to its merge similarity.
std::map<std::vector<uint32_t>, double> CanonicalTree(const Dendrogram& d) {
  std::map<std::vector<uint32_t>, double> out;
  for (uint32_t n = static_cast<uint32_t>(d.num_leaves()); n < d.num_nodes();
       ++n) {
    std::vector<uint32_t> leaves = d.LeavesUnder(n);
    std::sort(leaves.begin(), leaves.end());
    out.emplace(std::move(leaves), d.node(n).merge_similarity);
  }
  return out;
}

// Eq. 4's weights sum to 1, so S(AB,C) <= max(S(A,C), S(B,C)): the
// linkage is reducible, and merging mutually-best pairs under any round
// structure builds the greedy tree (DESIGN.md §8). With distinct edge
// weights the tie-break never decides, so ParallelHac at every depth and
// thread count must build exactly SequentialHac's tree, merge
// similarities compared with ==. Only node ids may differ.
TEST(HacParallelVsSequentialTest, MergeTreeMatchesSequentialOnDistinctWeights) {
  for (bool planted : {false, true}) {
    for (uint64_t seed : {3ull, 11ull, 29ull, 47ull, 61ull, 83ull}) {
      auto graph = TestGraph(planted, seed);
      std::vector<double> weights;
      for (const auto& e : graph.AllEdges()) weights.push_back(e.weight);
      std::sort(weights.begin(), weights.end());
      ASSERT_EQ(std::adjacent_find(weights.begin(), weights.end()),
                weights.end())
          << "tied edge weights; planted=" << planted << " seed=" << seed;

      HacOptions hac;
      hac.threshold = 0.3;
      auto seq = SequentialHac(graph, hac);
      ASSERT_TRUE(seq.ok());
      const auto expected = CanonicalTree(seq.value());
      ASSERT_GT(expected.size(), 0u);
      for (size_t k : {1u, 2u, 3u}) {
        for (size_t threads : {1u, 4u}) {
          ParallelHacOptions options;
          options.hac = hac;
          options.diffusion_iterations = k;
          options.num_threads = threads;
          auto par = ParallelHac(graph, options);
          ASSERT_TRUE(par.ok());
          EXPECT_TRUE(CanonicalTree(par.value()) == expected)
              << "planted=" << planted << " seed=" << seed << " k=" << k
              << " threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace shoal::core
