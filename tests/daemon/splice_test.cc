// SpliceDendrogram correctness: frozen components replay bit-identical
// subtrees, dirty components agree with a from-scratch HAC of the new
// graph on flat clusters, the dirty set covers exactly the components
// with changed edges, and the whole operation is deterministic at any
// thread count.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dendrogram.h"
#include "core/parallel_hac.h"
#include "daemon/splice.h"
#include "graph/weighted_graph.h"
#include "testutil/graph_compare.h"

namespace shoal::daemon {
namespace {

core::ParallelHacOptions TestHac(size_t threads = 1) {
  core::ParallelHacOptions options;
  options.hac.threshold = 0.3;
  options.num_threads = threads;
  return options;
}

// Deterministic random graph: `num_vertices` vertices, `num_edges`
// distinct pairs with weights in (0.3, 1.0] so HAC has work to do.
graph::WeightedGraph RandomGraph(size_t num_vertices, size_t num_edges,
                                 uint64_t seed) {
  graph::WeightedGraph g(num_vertices);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(num_vertices - 1));
  std::uniform_real_distribution<double> weight(0.31, 1.0);
  size_t added = 0;
  while (added < num_edges) {
    uint32_t u = vertex(rng), v = vertex(rng);
    if (u == v) continue;
    if (g.AddEdge(u, v, weight(rng)).ok()) ++added;
  }
  return g;
}

// Cluster labels normalized to first-appearance order, so two
// partitions compare equal iff they group leaves identically.
std::vector<uint32_t> NormalizedClusters(const std::vector<uint32_t>& raw) {
  std::vector<uint32_t> canon(raw.size(), core::kNoNode);
  std::vector<uint32_t> normalized(raw.size());
  uint32_t next = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (canon[raw[i]] == core::kNoNode) canon[raw[i]] = next++;
    normalized[i] = canon[raw[i]];
  }
  return normalized;
}

void ExpectSameDendrogram(const core::Dendrogram& expected,
                          const core::Dendrogram& actual,
                          const std::string& context) {
  ASSERT_EQ(expected.num_leaves(), actual.num_leaves()) << context;
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes()) << context;
  for (uint32_t id = 0; id < expected.num_nodes(); ++id) {
    EXPECT_EQ(expected.node(id).left, actual.node(id).left)
        << context << " node " << id;
    EXPECT_EQ(expected.node(id).right, actual.node(id).right)
        << context << " node " << id;
    EXPECT_EQ(expected.node(id).merge_similarity,
              actual.node(id).merge_similarity)
        << context << " node " << id;
  }
}

using testutil::DiffEdges;

TEST(SpliceTest, UnchangedGraphReplaysBitIdentically) {
  auto g = RandomGraph(/*num_vertices=*/40, /*num_edges=*/70, /*seed=*/2019);
  auto standing = core::ParallelHac(g, TestHac());
  ASSERT_TRUE(standing.ok());
  ASSERT_GT(standing->num_merges(), 0u);

  auto spliced = SpliceDendrogram(*standing, g, {}, TestHac());
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(spliced->stats.changed_edges, 0u);
  EXPECT_EQ(spliced->stats.dirty_components, 0u);
  EXPECT_EQ(spliced->stats.dirty_leaves, 0u);
  EXPECT_EQ(spliced->stats.hac_merges, 0u);
  EXPECT_EQ(spliced->stats.replayed_merges, standing->num_merges());
  ExpectSameDendrogram(*standing, spliced->dendrogram, "unchanged graph");
  for (uint32_t id = 0; id < standing->num_nodes(); ++id) {
    EXPECT_EQ(spliced->old_to_new_node[id], id) << "node " << id;
  }
  for (bool dirty : spliced->dirty_leaf) EXPECT_FALSE(dirty);
}

TEST(SpliceTest, AgreesWithFromScratchHacOnFlatClusters) {
  auto old_graph =
      RandomGraph(/*num_vertices=*/60, /*num_edges=*/110, /*seed=*/7);
  auto standing = core::ParallelHac(old_graph, TestHac());
  ASSERT_TRUE(standing.ok());

  // Perturb: drop some edges, add some new ones, reweight others.
  graph::WeightedGraph new_graph(old_graph.num_vertices());
  auto edges = old_graph.AllEdges();
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> weight(0.31, 1.0);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i % 9 == 0) continue;  // removed
    const double w = i % 5 == 0 ? weight(rng) : edges[i].weight;
    ASSERT_TRUE(new_graph.AddEdge(edges[i].u, edges[i].v, w).ok());
  }
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(old_graph.num_vertices() - 1));
  for (int i = 0; i < 12; ++i) {
    uint32_t u = vertex(rng), v = vertex(rng);
    if (u == v) continue;
    (void)new_graph.AddEdge(u, v, weight(rng)).ok();  // dup add is an error
  }

  auto spliced = SpliceDendrogram(*standing, new_graph,
                                  DiffEdges(old_graph, new_graph), TestHac());
  ASSERT_TRUE(spliced.ok());
  EXPECT_GT(spliced->stats.changed_edges, 0u);
  EXPECT_GT(spliced->stats.dirty_leaves, 0u);

  auto scratch = core::ParallelHac(new_graph, TestHac());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(spliced->dendrogram.num_merges(), scratch->num_merges());
  EXPECT_EQ(NormalizedClusters(spliced->dendrogram.FlatClusters()),
            NormalizedClusters(scratch->FlatClusters()));
  EXPECT_EQ(NormalizedClusters(spliced->dendrogram.CutAt(0.5)),
            NormalizedClusters(scratch->CutAt(0.5)));
}

TEST(SpliceTest, FrozenComponentRidesAcrossUntouched) {
  // Two disjoint 4-cliques; only the second one changes.
  graph::WeightedGraph old_graph(8);
  for (uint32_t base : {0u, 4u}) {
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t j = i + 1; j < 4; ++j) {
        ASSERT_TRUE(
            old_graph.AddEdge(base + i, base + j, 0.4 + 0.05 * (i + j)).ok());
      }
    }
  }
  auto standing = core::ParallelHac(old_graph, TestHac());
  ASSERT_TRUE(standing.ok());

  graph::WeightedGraph new_graph(8);
  auto edges = old_graph.AllEdges();
  for (const auto& e : edges) {
    const bool in_second = e.u >= 4;
    const double w = in_second && e.u == 4 && e.v == 5 ? 0.95 : e.weight;
    ASSERT_TRUE(new_graph.AddEdge(e.u, e.v, w).ok());
  }

  auto spliced = SpliceDendrogram(*standing, new_graph,
                                  DiffEdges(old_graph, new_graph), TestHac());
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(spliced->stats.dirty_components, 1u);
  EXPECT_EQ(spliced->stats.dirty_leaves, 4u);
  for (uint32_t leaf = 0; leaf < 8; ++leaf) {
    EXPECT_EQ(spliced->dirty_leaf[leaf], leaf >= 4) << "leaf " << leaf;
  }
  // Every node of the frozen component maps to a structurally identical
  // node of the new dendrogram.
  for (uint32_t id = 0; id < standing->num_nodes(); ++id) {
    auto leaves = standing->LeavesUnder(id);
    const bool frozen = leaves.front() < 4;
    if (!frozen) {
      EXPECT_EQ(spliced->old_to_new_node[id], core::kNoNode) << "node " << id;
      continue;
    }
    const uint32_t mapped = spliced->old_to_new_node[id];
    ASSERT_NE(mapped, core::kNoNode) << "node " << id;
    if (standing->IsLeaf(id)) {
      EXPECT_EQ(mapped, id);  // leaves keep their entity ids
    } else {
      EXPECT_EQ(spliced->dendrogram.node(mapped).merge_similarity,
                standing->node(id).merge_similarity)
          << "node " << id;
    }
  }
}

TEST(SpliceTest, DeterministicAcrossThreadCounts) {
  auto old_graph =
      RandomGraph(/*num_vertices=*/70, /*num_edges=*/130, /*seed=*/23);
  auto standing = core::ParallelHac(old_graph, TestHac());
  ASSERT_TRUE(standing.ok());

  graph::WeightedGraph new_graph(old_graph.num_vertices());
  auto edges = old_graph.AllEdges();
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> weight(0.31, 1.0);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i % 7 == 0) continue;
    ASSERT_TRUE(
        new_graph.AddEdge(edges[i].u, edges[i].v,
                          i % 3 == 0 ? weight(rng) : edges[i].weight)
            .ok());
  }

  const std::vector<CappedEdgeChange> changes = DiffEdges(old_graph, new_graph);
  auto reference =
      SpliceDendrogram(*standing, new_graph, changes, TestHac(/*threads=*/1));
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    auto variant =
        SpliceDendrogram(*standing, new_graph, changes, TestHac(threads));
    ASSERT_TRUE(variant.ok());
    ExpectSameDendrogram(reference->dendrogram, variant->dendrogram,
                         std::to_string(threads) + " threads");
    EXPECT_EQ(reference->dirty_leaf, variant->dirty_leaf);
    EXPECT_EQ(reference->old_to_new_node, variant->old_to_new_node);
    EXPECT_EQ(reference->stats.dirty_components,
              variant->stats.dirty_components);
    EXPECT_EQ(reference->stats.replayed_merges,
              variant->stats.replayed_merges);
    EXPECT_EQ(reference->stats.hac_merges, variant->stats.hac_merges);
  }
}

using EdgeMap = std::map<std::pair<uint32_t, uint32_t>, double>;

// Inserts `edges` in a shuffled order with random orientation, so rows
// come out neither id-sorted nor in the map's order.
graph::WeightedGraph ShuffledGraph(size_t num_vertices, const EdgeMap& edges,
                                   std::mt19937_64& rng) {
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, double>> order(
      edges.begin(), edges.end());
  std::shuffle(order.begin(), order.end(), rng);
  graph::WeightedGraph g(num_vertices);
  for (const auto& [pair, weight] : order) {
    const auto [u, v] = rng() % 2 ? pair : std::make_pair(pair.second,
                                                          pair.first);
    EXPECT_TRUE(g.AddEdge(u, v, weight).ok());
  }
  return g;
}

TEST(SpliceTest, ChangedEdgesMatchBruteForceDiff) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    const uint32_t n = 20 + rng() % 40;
    std::uniform_int_distribution<uint32_t> vertex(0, n - 1);
    std::uniform_real_distribution<double> weight(0.31, 1.0);

    EdgeMap old_edges;
    while (old_edges.size() < n) {
      const uint32_t u = vertex(rng), v = vertex(rng);
      if (u != v) old_edges[std::minmax(u, v)] = weight(rng);
    }
    // Each old edge is removed, reweighted or kept; then a few are added.
    EdgeMap new_edges;
    for (const auto& [pair, w] : old_edges) {
      switch (rng() % 4) {
        case 0:
          break;  // removed
        case 1:
          new_edges[pair] = w + 0.001;  // reweighted
          break;
        default:
          new_edges[pair] = w;  // unchanged
      }
    }
    for (int i = 0; i < 6; ++i) {
      const uint32_t u = vertex(rng), v = vertex(rng);
      if (u != v) new_edges.emplace(std::minmax(u, v), weight(rng));
    }

    // The brute-force diff, handed over in shuffled order.
    const graph::WeightedGraph old_graph = ShuffledGraph(n, old_edges, rng);
    const graph::WeightedGraph new_graph = ShuffledGraph(n, new_edges, rng);
    std::vector<CappedEdgeChange> changed = DiffEdges(old_graph, new_graph);
    ASSERT_FALSE(changed.empty());
    std::shuffle(changed.begin(), changed.end(), rng);
    // Components of old ∪ new by label propagation; a component is dirty
    // when it holds a changed edge.
    std::vector<uint32_t> label(n);
    for (uint32_t v = 0; v < n; ++v) label[v] = v;
    for (bool moved = true; moved;) {
      moved = false;
      for (const EdgeMap* edges : {&old_edges, &new_edges}) {
        for (const auto& [pair, w] : *edges) {
          const uint32_t low = std::min(label[pair.first], label[pair.second]);
          for (uint32_t end : {pair.first, pair.second}) {
            if (label[end] != low) {
              label[end] = low;
              moved = true;
            }
          }
        }
      }
    }
    std::vector<bool> expected_dirty(n, false);
    std::vector<bool> dirty_label(n, false);
    for (const CappedEdgeChange& change : changed) {
      for (uint32_t x = 0; x < n; ++x) {
        if (label[x] == label[change.u]) expected_dirty[x] = true;
      }
      dirty_label[label[change.u]] = true;
    }
    const size_t expected_components = static_cast<size_t>(
        std::count(dirty_label.begin(), dirty_label.end(), true));

    auto standing = core::ParallelHac(old_graph, TestHac());
    ASSERT_TRUE(standing.ok());
    auto spliced = SpliceDendrogram(*standing, new_graph, changed, TestHac());
    ASSERT_TRUE(spliced.ok());
    EXPECT_EQ(spliced->stats.changed_edges, changed.size());
    EXPECT_EQ(spliced->stats.dirty_components, expected_components);
    EXPECT_EQ(spliced->dirty_leaf, expected_dirty);
  }
}

TEST(SpliceTest, EmptyOldGraphIsAFullRebuild) {
  graph::WeightedGraph old_graph(10);
  core::Dendrogram standing(10);  // 10 singleton leaves, no merges
  auto new_graph = RandomGraph(/*num_vertices=*/10, /*num_edges=*/16,
                               /*seed=*/3);
  auto spliced = SpliceDendrogram(standing, new_graph,
                                  DiffEdges(old_graph, new_graph), TestHac());
  ASSERT_TRUE(spliced.ok());
  auto scratch = core::ParallelHac(new_graph, TestHac());
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(NormalizedClusters(spliced->dendrogram.FlatClusters()),
            NormalizedClusters(scratch->FlatClusters()));
}

}  // namespace
}  // namespace shoal::daemon
