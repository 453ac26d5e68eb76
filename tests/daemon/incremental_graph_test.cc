// IncrementalEntityGraph correctness: after any sequence of sliding-
// window deltas, the standing store must be byte-identical to what
// BuildEntityGraph computes from scratch over the same window — the
// invariant everything else in src/daemon leans on. Also covers thread
// invariance, option validation shared with the builder, and the
// negative-count guard.

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/entity_graph.h"
#include "daemon/incremental_graph.h"
#include "graph/bipartite_graph.h"

namespace shoal::daemon {
namespace {

// One day = aggregated (query, entity) -> count.
using DayCounts = std::map<std::pair<uint32_t, uint32_t>, uint32_t>;

struct Workload {
  size_t num_queries = 0;
  size_t num_entities = 0;
  std::vector<std::vector<uint32_t>> titles;
  text::EmbeddingTable vectors{0, 0};
  std::vector<DayCounts> days;
};

// Deterministic catalog + day streams. Later days introduce entities
// from the top of the id range ("births"), so deltas also carry
// entities entering the window.
Workload MakeWorkload(size_t num_queries, size_t num_entities, size_t vocab,
                      size_t num_days, uint64_t seed) {
  Workload w;
  w.num_queries = num_queries;
  w.num_entities = num_entities;
  w.vectors = text::EmbeddingTable(vocab, 8);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(-1.0f, 1.0f);
  for (size_t v = 0; v < vocab; ++v) {
    for (size_t d = 0; d < 8; ++d) w.vectors.Row(v)[d] = coord(rng);
  }
  std::uniform_int_distribution<uint32_t> word(
      0, static_cast<uint32_t>(vocab - 1));
  w.titles.resize(num_entities);
  for (auto& title : w.titles) {
    std::uniform_int_distribution<size_t> title_len(1, 5);
    size_t len = title_len(rng);
    for (size_t i = 0; i < len; ++i) title.push_back(word(rng));
  }
  // Entities [active_floor, num_entities) are born one day at a time.
  const size_t always_active = num_entities - std::min(num_entities / 4,
                                                       num_days);
  std::uniform_int_distribution<uint32_t> query(
      0, static_cast<uint32_t>(num_queries - 1));
  std::uniform_int_distribution<uint32_t> clicks(1, 9);
  w.days.resize(num_days);
  for (size_t d = 0; d < num_days; ++d) {
    const size_t active = std::min(always_active + d, num_entities);
    std::uniform_int_distribution<uint32_t> entity(
        0, static_cast<uint32_t>(active - 1));
    std::uniform_int_distribution<size_t> volume(40, 80);
    size_t pairs = volume(rng);
    for (size_t i = 0; i < pairs; ++i) {
      w.days[d][{query(rng), entity(rng)}] += clicks(rng);
    }
    // Give each newborn a burst so it actually enters the graph.
    if (active > always_active) {
      const uint32_t born = static_cast<uint32_t>(active - 1);
      for (int i = 0; i < 6; ++i) w.days[d][{query(rng), born}] += 2;
    }
  }
  return w;
}

// The incoming-minus-retiring delta of one window step, zero entries
// dropped, sorted by (query, entity) like the daemon produces.
ClickDelta MakeDelta(const DayCounts* incoming, const DayCounts* retiring) {
  std::map<std::pair<uint32_t, uint32_t>, int64_t> net;
  if (incoming != nullptr) {
    for (const auto& [pair, count] : *incoming) net[pair] += count;
  }
  if (retiring != nullptr) {
    for (const auto& [pair, count] : *retiring) net[pair] -= count;
  }
  ClickDelta delta;
  for (const auto& [pair, change] : net) {
    if (change == 0) continue;
    delta.entries.push_back({pair.first, pair.second, change});
  }
  return delta;
}

// Aggregate of days [begin, end) as the bipartite input the from-
// scratch builder sees.
graph::BipartiteGraph AggregateWindow(const Workload& w, size_t begin,
                                      size_t end) {
  graph::BipartiteGraph qi(w.num_queries, w.num_entities);
  DayCounts total;
  for (size_t d = begin; d < end; ++d) {
    for (const auto& [pair, count] : w.days[d]) total[pair] += count;
  }
  for (const auto& [pair, count] : total) {
    EXPECT_TRUE(qi.AddInteraction(pair.first, pair.second, count).ok());
  }
  return qi;
}

void ExpectSameGraph(const graph::WeightedGraph& expected,
                     const graph::WeightedGraph& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices()) << context;
  ASSERT_EQ(expected.num_edges(), actual.num_edges()) << context;
  auto expected_edges = expected.AllEdges();
  auto actual_edges = actual.AllEdges();
  ASSERT_EQ(expected_edges.size(), actual_edges.size()) << context;
  for (size_t i = 0; i < expected_edges.size(); ++i) {
    EXPECT_EQ(expected_edges[i].u, actual_edges[i].u) << context << " edge "
                                                      << i;
    EXPECT_EQ(expected_edges[i].v, actual_edges[i].v) << context << " edge "
                                                      << i;
    // Bitwise: the incremental path must run the same arithmetic.
    EXPECT_EQ(expected_edges[i].weight, actual_edges[i].weight)
        << context << " edge " << i;
  }
}

IncrementalGraphOptions TestOptions() {
  IncrementalGraphOptions options;
  options.entity_graph.similarity_threshold = 0.2;
  options.entity_graph.max_degree = 7;
  return options;
}

TEST(IncrementalGraphTest, MatchesFromScratchAcrossSlidingWindow) {
  auto w = MakeWorkload(/*num_queries=*/41, /*num_entities=*/67,
                        /*vocab=*/19, /*num_days=*/6, /*seed=*/2019);
  const size_t window = 3;
  IncrementalGraphOptions options = TestOptions();
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, options);
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();

  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    DeltaStats stats;
    auto applied = graph.ApplyDelta(MakeDelta(&w.days[d], retiring), &stats);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    EXPECT_GT(stats.delta_entries, 0u);

    const size_t begin = d + 1 >= window ? d + 1 - window : 0;
    auto reference = core::BuildEntityGraph(AggregateWindow(w, begin, d + 1),
                                            w.titles, w.vectors,
                                            options.entity_graph);
    ASSERT_TRUE(reference.ok());
    auto materialized = graph.Materialize();
    ASSERT_TRUE(materialized.ok());
    ExpectSameGraph(*reference, *materialized,
                    "window [" + std::to_string(begin) + ", " +
                        std::to_string(d + 1) + ")");
  }
  // A non-trivial final graph, or the whole sweep proved nothing.
  auto final_graph = graph.Materialize();
  ASSERT_TRUE(final_graph.ok());
  EXPECT_GT(final_graph->num_edges(), 0u);
}

TEST(IncrementalGraphTest, IdenticalAtEveryThreadCount) {
  auto w = MakeWorkload(/*num_queries=*/31, /*num_entities=*/53,
                        /*vocab=*/13, /*num_days=*/5, /*seed=*/7);
  const size_t window = 2;
  std::vector<std::vector<core::ScoredEdge>> stores;
  std::vector<graph::WeightedGraph> graphs;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    IncrementalGraphOptions options = TestOptions();
    options.entity_graph.num_threads = threads;
    auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                  w.vectors, options);
    ASSERT_TRUE(created.ok());
    IncrementalEntityGraph graph = std::move(created).value();
    for (size_t d = 0; d < w.days.size(); ++d) {
      const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
      ASSERT_TRUE(
          graph.ApplyDelta(MakeDelta(&w.days[d], retiring), nullptr).ok());
    }
    auto materialized = graph.Materialize();
    ASSERT_TRUE(materialized.ok());
    stores.push_back(graph.StoreEdges());
    graphs.push_back(std::move(materialized).value());
  }
  for (size_t i = 1; i < graphs.size(); ++i) {
    ExpectSameGraph(graphs[0], graphs[i], "thread variant " +
                                              std::to_string(i));
    ASSERT_EQ(stores[0].size(), stores[i].size());
    for (size_t j = 0; j < stores[0].size(); ++j) {
      EXPECT_EQ(stores[0][j].u, stores[i][j].u);
      EXPECT_EQ(stores[0][j].v, stores[i][j].v);
      EXPECT_EQ(stores[0][j].s, stores[i][j].s);
    }
  }
}

TEST(IncrementalGraphTest, RejectsOptionsTheBuilderRejects) {
  // The daemon and a batch build must agree on what is a valid Eq. 3
  // knob: an alpha outside [0, 1], a non-finite alpha or threshold, and
  // a zero head-query cap fail both, with InvalidArgument.
  auto w = MakeWorkload(/*num_queries=*/7, /*num_entities=*/9,
                        /*vocab=*/5, /*num_days=*/1, /*seed=*/1);
  const graph::BipartiteGraph window = AggregateWindow(w, 0, 1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<IncrementalGraphOptions> bad;
  for (double alpha : {1.5, -0.1, nan, inf, -inf}) {
    bad.push_back(TestOptions());
    bad.back().entity_graph.alpha = alpha;
  }
  for (double threshold : {nan, inf, -inf}) {
    bad.push_back(TestOptions());
    bad.back().entity_graph.similarity_threshold = threshold;
  }
  bad.push_back(TestOptions());
  bad.back().entity_graph.max_items_per_query = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                  w.vectors, bad[i]);
    ASSERT_FALSE(created.ok()) << "case " << i;
    EXPECT_EQ(created.status().code(), util::StatusCode::kInvalidArgument)
        << "case " << i;
    auto built = core::BuildEntityGraph(window, w.titles, w.vectors,
                                        bad[i].entity_graph);
    ASSERT_FALSE(built.ok()) << "case " << i;
    EXPECT_EQ(built.status().code(), util::StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

TEST(IncrementalGraphTest, WindowGraphMatchesAggregate) {
  auto w = MakeWorkload(/*num_queries=*/17, /*num_entities=*/23,
                        /*vocab=*/7, /*num_days=*/4, /*seed=*/5);
  const size_t window = 2;
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, TestOptions());
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    ASSERT_TRUE(
        graph.ApplyDelta(MakeDelta(&w.days[d], retiring), nullptr).ok());
  }
  graph::BipartiteGraph expected =
      AggregateWindow(w, w.days.size() - window, w.days.size());
  graph::BipartiteGraph actual = graph.WindowGraph();
  ASSERT_EQ(expected.num_left(), actual.num_left());
  ASSERT_EQ(expected.num_right(), actual.num_right());
  ASSERT_EQ(expected.num_edges(), actual.num_edges());
  ASSERT_EQ(expected.total_interactions(), actual.total_interactions());
  for (uint32_t q = 0; q < expected.num_left(); ++q) {
    const auto& e_links = expected.LeftNeighbors(q);
    const auto& a_links = actual.LeftNeighbors(q);
    ASSERT_EQ(e_links.size(), a_links.size()) << "query " << q;
    for (size_t i = 0; i < e_links.size(); ++i) {
      EXPECT_EQ(e_links[i].id, a_links[i].id) << "query " << q;
      EXPECT_EQ(e_links[i].count, a_links[i].count) << "query " << q;
    }
  }
}

TEST(IncrementalGraphTest, EmptyDeltaIsANoOp) {
  auto w = MakeWorkload(/*num_queries=*/11, /*num_entities=*/13,
                        /*vocab=*/5, /*num_days=*/1, /*seed=*/3);
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, TestOptions());
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  ASSERT_TRUE(graph.ApplyDelta(MakeDelta(&w.days[0], nullptr), nullptr).ok());
  const auto before = graph.StoreEdges();

  DeltaStats stats;
  ASSERT_TRUE(graph.ApplyDelta(ClickDelta{}, &stats).ok());
  EXPECT_EQ(stats.delta_entries, 0u);
  EXPECT_EQ(stats.dirty_queries, 0u);
  EXPECT_EQ(stats.dirty_entities, 0u);
  EXPECT_EQ(stats.pairs_rescored, 0u);
  const auto after = graph.StoreEdges();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].u, after[i].u);
    EXPECT_EQ(before[i].v, after[i].v);
    EXPECT_EQ(before[i].s, after[i].s);
  }
}

TEST(IncrementalGraphTest, RetirementBelowZeroFails) {
  auto w = MakeWorkload(/*num_queries=*/7, /*num_entities=*/9,
                        /*vocab=*/5, /*num_days=*/1, /*seed=*/1);
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, TestOptions());
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  ClickDelta bogus;
  bogus.entries.push_back({0, 0, -5});  // retiring what was never ingested
  EXPECT_FALSE(graph.ApplyDelta(bogus, nullptr).ok());
}

}  // namespace
}  // namespace shoal::daemon
