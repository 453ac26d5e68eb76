// IncrementalEntityGraph correctness: after any sequence of sliding-
// window deltas, the standing store and capped graph must be
// byte-identical to what BuildEntityGraph computes from scratch over the
// same window — the invariant everything else in src/daemon leans on.
// Also covers moves across a head-query cap, degree-cap flips at rows
// the step did not touch, the re-cap's change list, delta entry order,
// the store's (u, v) order, option validation shared with the builder,
// and the negative-count guard.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/entity_graph.h"
#include "daemon/incremental_graph.h"
#include "graph/bipartite_graph.h"
#include "testutil/graph_compare.h"

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

// A window that barely moves: every day carries the same background
// (three of MakeWorkload's days merged), which cancels in every delta
// once the window is full, plus `drift_pairs` random clicks. A step then
// touches only the rows its drifting pairs reach, so most rows stay
// untouched and the degree cap can flip edges at them.
Workload MakeStationaryWorkload(size_t num_queries, size_t num_entities,
                                size_t vocab, size_t num_days,
                                size_t drift_pairs, uint64_t seed) {
  Workload w = MakeWorkload(num_queries, num_entities, vocab,
                            /*num_days=*/3, seed);
  DayCounts background;
  for (const DayCounts& day : w.days) {
    for (const auto& [pair, count] : day) background[pair] += count;
  }
  std::mt19937_64 rng(seed);
  w.days.assign(num_days, background);
  for (DayCounts& day : w.days) {
    for (size_t i = 0; i < drift_pairs; ++i) {
      day[{static_cast<uint32_t>(rng() % num_queries),
           static_cast<uint32_t>(rng() % num_entities)}] +=
          1 + static_cast<uint32_t>(rng() % 5);
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

void ExpectSameStore(const std::vector<core::ScoredEdge>& expected,
                     const std::vector<core::ScoredEdge>& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].u, actual[i].u) << context << " edge " << i;
    EXPECT_EQ(expected[i].v, actual[i].v) << context << " edge " << i;
    EXPECT_EQ(expected[i].s, actual[i].s) << context << " edge " << i;
  }
}

core::EntityGraphOptions TestOptions() {
  core::EntityGraphOptions options;
  options.similarity_threshold = 0.2;
  options.max_degree = 7;
  return options;
}

TEST(IncrementalGraphTest, MatchesFromScratchAcrossSlidingWindow) {
  auto w = MakeWorkload(/*num_queries=*/41, /*num_entities=*/67,
                        /*vocab=*/19, /*num_days=*/6, /*seed=*/2019);
  const size_t window = 3;
  core::EntityGraphOptions options = TestOptions();
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
                                            w.titles, w.vectors, options);
    ASSERT_TRUE(reference.ok());
    auto materialized = graph.Materialize();
    ASSERT_TRUE(materialized.ok());
    testutil::ExpectSameWeightedGraph(*reference, *materialized,
                                      "window [" + std::to_string(begin) +
                                          ", " + std::to_string(d + 1) + ")");
  }
  // A non-trivial final graph, or the whole sweep proved nothing.
  auto final_graph = graph.Materialize();
  ASSERT_TRUE(final_graph.ok());
  EXPECT_GT(final_graph->num_edges(), 0u);
}

// ApplyDelta takes its entries in any order: a delta whose entries are
// shuffled leaves the same store as the (query, entity)-sorted one the
// daemon produces, after every step.
TEST(IncrementalGraphTest, ShuffledDeltaEntriesGiveTheSameStore) {
  auto w = MakeWorkload(/*num_queries=*/37, /*num_entities=*/61,
                        /*vocab=*/17, /*num_days=*/7, /*seed=*/11);
  const size_t window = 3;
  auto make = [&] {
    auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                  w.vectors, TestOptions());
    EXPECT_TRUE(created.ok());
    return std::move(created).value();
  };
  IncrementalEntityGraph sorted = make();
  IncrementalEntityGraph shuffled = make();
  std::mt19937_64 rng(2024);
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    const ClickDelta delta = MakeDelta(&w.days[d], retiring);
    ClickDelta scrambled = delta;
    std::shuffle(scrambled.entries.begin(), scrambled.entries.end(), rng);
    ASSERT_TRUE(sorted.ApplyDelta(delta, nullptr).ok());
    ASSERT_TRUE(shuffled.ApplyDelta(scrambled, nullptr).ok());
    ExpectSameStore(sorted.StoreEdges(), shuffled.StoreEdges(),
                    "step " + std::to_string(d));
  }
  EXPECT_GT(sorted.store_size(), 0u);
}

// The store is the degree cap's input as is, so it must stay strictly
// ascending by (u, v), with u < v, through additions and removals.
TEST(IncrementalGraphTest, StoreStaysStrictlyAscendingAfterEveryDelta) {
  auto w = MakeWorkload(/*num_queries=*/41, /*num_entities=*/67,
                        /*vocab=*/19, /*num_days=*/8, /*seed=*/29);
  const size_t window = 2;
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, TestOptions());
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  const auto pair_less = [](const core::ScoredEdge& a,
                            const core::ScoredEdge& b) {
    return a.u < b.u || (a.u == b.u && a.v < b.v);
  };
  size_t removed = 0;
  std::vector<core::ScoredEdge> previous;
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    ASSERT_TRUE(
        graph.ApplyDelta(MakeDelta(&w.days[d], retiring), nullptr).ok());
    const std::vector<core::ScoredEdge>& store = graph.StoreEdges();
    // Pairs of the previous store that this step dropped.
    std::vector<core::ScoredEdge> dropped;
    std::set_difference(previous.begin(), previous.end(), store.begin(),
                        store.end(), std::back_inserter(dropped), pair_less);
    removed += dropped.size();
    previous = store;
    ASSERT_EQ(store.size(), graph.store_size());
    for (size_t i = 0; i < store.size(); ++i) {
      ASSERT_LT(store[i].u, store[i].v) << "step " << d << " edge " << i;
      if (i == 0) continue;
      ASSERT_TRUE(store[i - 1].u < store[i].u ||
                  (store[i - 1].u == store[i].u && store[i - 1].v < store[i].v))
          << "step " << d << " edges " << i - 1 << ", " << i;
    }
  }
  // Retiring days removed edges, so the repair's drop path ran too.
  EXPECT_GT(removed, 0u);
}

// A query that loses its last link leaves an empty link list behind;
// when it regains links a step later, the maintained graph still equals
// a from-scratch build of each window.
TEST(IncrementalGraphTest, QueryRegainingItsLastLinkMatchesFromScratch) {
  auto w = MakeWorkload(/*num_queries=*/23, /*num_entities=*/31,
                        /*vocab=*/11, /*num_days=*/5, /*seed=*/17);
  const size_t window = 2;
  // Query 0 links entities 1-4 on days 0, 3 and 4 only: window {1, 2}
  // (step 2) holds none of its links, window {2, 3} (step 3) all four.
  const uint32_t q = 0;
  for (DayCounts& day : w.days) {
    std::erase_if(day,
                  [&](const auto& entry) { return entry.first.first == q; });
  }
  for (size_t d : {0u, 3u, 4u}) {
    for (uint32_t e = 1; e <= 4; ++e) w.days[d][{q, e}] = 5;
  }
  core::EntityGraphOptions options = TestOptions();
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, options);
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    ASSERT_TRUE(
        graph.ApplyDelta(MakeDelta(&w.days[d], retiring), nullptr).ok());
    EXPECT_EQ(graph.WindowGraph().LeftNeighbors(q).size(), d == 2 ? 0u : 4u)
        << "step " << d;

    const size_t begin = d + 1 >= window ? d + 1 - window : 0;
    auto reference = core::BuildEntityGraph(AggregateWindow(w, begin, d + 1),
                                            w.titles, w.vectors, options);
    ASSERT_TRUE(reference.ok());
    auto materialized = graph.Materialize();
    ASSERT_TRUE(materialized.ok());
    testutil::ExpectSameWeightedGraph(*reference, *materialized,
                                      "step " + std::to_string(d));
  }
}

// Sorted capped set of every query of `window`, as the builder takes it.
std::vector<std::vector<uint32_t>> CappedSets(
    const graph::BipartiteGraph& window, size_t cap) {
  std::vector<std::vector<uint32_t>> sets(window.num_left());
  for (uint32_t q = 0; q < window.num_left(); ++q) {
    bool capped = false;
    sets[q] = core::CappedQueryItems(window.LeftNeighbors(q), cap, &capped);
    std::sort(sets[q].begin(), sets[q].end());
  }
  return sets;
}

// A head-query cap of 4 over 6 busy queries: counts shift which
// entities make a query's top 4 while those entities keep the same
// query set, so candidacy moves with no Eq. 1 input changing. The
// maintained graph must still equal a from-scratch build at every step.
TEST(IncrementalGraphTest, CappedSetBoundaryMovesMatchFromScratch) {
  auto w = MakeWorkload(/*num_queries=*/6, /*num_entities=*/40,
                        /*vocab=*/13, /*num_days=*/9, /*seed=*/23);
  const size_t window = 3;
  core::EntityGraphOptions options = TestOptions();
  options.max_items_per_query = 4;
  // No entity has more than 6 * 3 candidate partners, so nothing is
  // degree-capped away and Materialize() shows the whole store.
  options.max_degree = 64;
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, options);
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();

  size_t boundary_only = 0;  // cap moves of entities with a fixed query set
  graph::BipartiteGraph previous(w.num_queries, w.num_entities);
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    ASSERT_TRUE(
        graph.ApplyDelta(MakeDelta(&w.days[d], retiring), nullptr).ok());

    const size_t begin = d + 1 >= window ? d + 1 - window : 0;
    const graph::BipartiteGraph current = AggregateWindow(w, begin, d + 1);
    core::EntityGraphStats stats;
    auto reference = core::BuildEntityGraph(current, w.titles, w.vectors,
                                            options, &stats);
    ASSERT_TRUE(reference.ok());
    EXPECT_GT(stats.capped_queries, 0u) << "step " << d;
    auto materialized = graph.Materialize();
    ASSERT_TRUE(materialized.ok());
    testutil::ExpectSameWeightedGraph(*reference, *materialized,
                                      "step " + std::to_string(d));

    const auto before = CappedSets(previous, 4);
    const auto after = CappedSets(current, 4);
    for (uint32_t q = 0; q < w.num_queries; ++q) {
      std::vector<uint32_t> moved;
      std::set_symmetric_difference(before[q].begin(), before[q].end(),
                                    after[q].begin(), after[q].end(),
                                    std::back_inserter(moved));
      for (uint32_t e : moved) {
        boundary_only += previous.QueriesOfItem(e) == current.QueriesOfItem(e);
      }
    }
    previous = current;
  }
  // The case must exercise what it is named for.
  EXPECT_GT(boundary_only, 0u);
  EXPECT_GT(graph.store_size(), 0u);
}

// Materialize() against ApplyDegreeCap over the standing store and
// against a from-scratch build of `window`: rows in order, weighted
// degrees, edge count and total weight.
void ExpectCappedGraphMatches(const IncrementalEntityGraph& graph,
                              const graph::BipartiteGraph& window,
                              const Workload& w,
                              const core::EntityGraphOptions& options,
                              const std::string& context) {
  auto materialized = graph.Materialize();
  ASSERT_TRUE(materialized.ok()) << context;
  auto recapped = core::ApplyDegreeCap(graph.StoreEdges(),
                                       graph.num_entities(),
                                       options.max_degree);
  ASSERT_TRUE(recapped.ok()) << context;
  testutil::ExpectSameWeightedGraph(*recapped, *materialized,
                                    context + " vs ApplyDegreeCap");
  auto reference =
      core::BuildEntityGraph(window, w.titles, w.vectors, options);
  ASSERT_TRUE(reference.ok()) << context;
  testutil::ExpectSameWeightedGraph(*reference, *materialized,
                                    context + " vs BuildEntityGraph");
}

std::vector<CappedEdgeChange> SortedChanges(
    std::vector<CappedEdgeChange> changes) {
  std::sort(changes.begin(), changes.end(),
            [](const CappedEdgeChange& a, const CappedEdgeChange& b) {
              return std::tie(a.u, a.v) < std::tie(b.u, b.v);
            });
  return changes;
}

// Replays `w` through a sliding window of `window` days, calling
// check(step, graph, stats, changes, window graph) after every step.
template <typename Check>
void ReplayWindow(const Workload& w, size_t window,
                  const core::EntityGraphOptions& options, Check check) {
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, options);
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  for (size_t d = 0; d < w.days.size(); ++d) {
    const DayCounts* retiring = d >= window ? &w.days[d - window] : nullptr;
    DeltaStats stats;
    std::vector<CappedEdgeChange> changes;
    ASSERT_TRUE(
        graph.ApplyDelta(MakeDelta(&w.days[d], retiring), &stats, &changes)
            .ok());
    const size_t begin = d + 1 >= window ? d + 1 - window : 0;
    check(d, graph, stats, changes, AggregateWindow(w, begin, d + 1));
  }
}

// Degree caps of 1-4 with the flip on the untouched side. Entity a comes
// and goes on alternate days (window 1), and only x shares a query with
// it, so a step touches the rows of a and x and never y's. y's top
// max_degree are its partners z_i (Sq 1/2), so the (x, y) edge (Sq
// 1/(k+2)) is kept only while it is in x's top k — which it is exactly
// when a (Sq 1/(k+1), tied with x's partners w_j) is away. So (x, y)
// enters and leaves y's capped row without y's row being re-capped.
TEST(IncrementalGraphTest, CapFlipsAtAnUntouchedRowMatchFromScratch) {
  for (size_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE(testing::Message() << "max_degree " << k);
    const uint32_t y = 0, x = 1, a = 2;
    const uint32_t first_z = 3, first_w = 3 + static_cast<uint32_t>(k);
    const uint32_t q1 = 0, q2 = 1, q3 = 2, first_q4 = 3;
    Workload w;
    w.num_entities = 2 * k + 2;
    w.num_queries = k + 2;
    w.vectors = text::EmbeddingTable(3, 4);
    for (size_t v = 0; v < 3; ++v) w.vectors.Row(v)[v] = 1.0f;
    for (size_t e = 0; e < w.num_entities; ++e) {
      w.titles.push_back({static_cast<uint32_t>(e % 3)});
    }
    w.days.resize(4);
    for (size_t d = 0; d < w.days.size(); ++d) {
      DayCounts& day = w.days[d];
      day[{q1, y}] = 1;
      day[{q2, y}] = 1;
      day[{q2, x}] = 1;
      day[{q3, x}] = 1;
      for (uint32_t i = 0; i < k; ++i) day[{q1, first_z + i}] = 1;
      for (uint32_t j = 0; j + 1 < k; ++j) {
        day[{first_q4 + j, x}] = 1;
        day[{first_q4 + j, first_w + j}] = 1;
      }
      if (d % 2 == 0) day[{q3, a}] = 1;
    }
    core::EntityGraphOptions options;
    options.alpha = 1.0;  // Sq alone, so the ranks above hold exactly
    options.similarity_threshold = 0.1;
    options.max_degree = k;

    ReplayWindow(w, /*window=*/1, options,
                 [&](size_t step, const IncrementalEntityGraph& graph,
                     const DeltaStats& stats,
                     const std::vector<CappedEdgeChange>& changes,
                     const graph::BipartiteGraph& window) {
                   const std::string context = "step " + std::to_string(step);
                   ExpectCappedGraphMatches(graph, window, w, options,
                                            context);
                   const bool a_away = step % 2 == 1;
                   EXPECT_EQ(graph.CappedGraph().HasEdge(x, y), a_away)
                       << context;
                   if (step == 0) return;
                   EXPECT_EQ(stats.rows_recapped, 2u) << context;  // a, x
                   EXPECT_EQ(stats.capped_edges_changed, 2u) << context;
                   const std::vector<CappedEdgeChange> expected = {
                       {y, x, /*removed=*/!a_away},
                       {x, a, /*removed=*/a_away}};
                   EXPECT_EQ(SortedChanges(changes), expected) << context;
                 });
  }
}

// Seeded sweep over degree caps 1-8 and 64, windows 1-4, with and
// without a head-query cap, over windows that churn (MakeWorkload) and
// windows that barely move (MakeStationaryWorkload): after every step
// the standing capped graph equals ApplyDegreeCap over the store and a
// from-scratch build.
TEST(IncrementalGraphTest, RecapMatchesFromScratchAcrossCapsAndWindows) {
  size_t steps = 0;
  size_t changed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Workload w =
        seed % 2 == 1
            ? MakeWorkload(/*num_queries=*/29, /*num_entities=*/47,
                           /*vocab=*/13, /*num_days=*/7, /*seed=*/100 + seed)
            : MakeStationaryWorkload(/*num_queries=*/29, /*num_entities=*/47,
                                     /*vocab=*/13, /*num_days=*/7,
                                     /*drift_pairs=*/3, /*seed=*/100 + seed);
    for (size_t cap : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 64u}) {
      for (size_t window = 1; window <= 4; ++window) {
        core::EntityGraphOptions options = TestOptions();
        options.max_degree = cap;
        options.max_items_per_query = seed % 4 < 2 ? 4 : 256;
        const std::string config = "seed " + std::to_string(seed) +
                                   " cap " + std::to_string(cap) +
                                   " window " + std::to_string(window);
        ReplayWindow(w, window, options,
                     [&](size_t step, const IncrementalEntityGraph& graph,
                         const DeltaStats& stats,
                         const std::vector<CappedEdgeChange>&,
                         const graph::BipartiteGraph& window_graph) {
                       ExpectCappedGraphMatches(
                           graph, window_graph, w, options,
                           config + " step " + std::to_string(step));
                       ++steps;
                       changed += stats.capped_edges_changed;
                     });
      }
    }
  }
  EXPECT_EQ(steps, 20u * 9u * 4u * 7u);
  EXPECT_GT(changed, 0u);
}

// The re-cap's change list over a sliding window equals a brute-force
// diff of consecutive from-scratch capped graphs (the first step against
// the empty graph), for degree caps that bind and one that does not.
TEST(IncrementalGraphTest, ChangeListMatchesDiffOfFromScratchGraphs) {
  const Workload w =
      MakeWorkload(/*num_queries=*/41, /*num_entities=*/67, /*vocab=*/19,
                   /*num_days=*/9, /*seed=*/31);
  for (size_t cap : {2u, 3u, 64u}) {
    core::EntityGraphOptions options = TestOptions();
    options.max_degree = cap;
    graph::WeightedGraph previous(w.num_entities);
    size_t removed = 0;
    ReplayWindow(w, /*window=*/3, options,
                 [&](size_t step, const IncrementalEntityGraph&,
                     const DeltaStats& stats,
                     const std::vector<CappedEdgeChange>& changes,
                     const graph::BipartiteGraph& window) {
                   const std::string context = "cap " + std::to_string(cap) +
                                               " step " + std::to_string(step);
                   auto current = core::BuildEntityGraph(window, w.titles,
                                                         w.vectors, options);
                   ASSERT_TRUE(current.ok()) << context;
                   const std::vector<CappedEdgeChange> expected =
                       testutil::DiffEdges(previous, *current);
                   EXPECT_EQ(SortedChanges(changes), expected) << context;
                   EXPECT_EQ(stats.capped_edges_changed, expected.size())
                       << context;
                   for (const CappedEdgeChange& c : expected) {
                     removed += c.removed;
                   }
                   previous = std::move(current).value();
                 });
    EXPECT_GT(removed, 0u) << "cap " << cap;
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
  std::vector<core::EntityGraphOptions> bad;
  for (double alpha : {1.5, -0.1, nan, inf, -inf}) {
    bad.push_back(TestOptions());
    bad.back().alpha = alpha;
  }
  for (double threshold : {nan, inf, -inf}) {
    bad.push_back(TestOptions());
    bad.back().similarity_threshold = threshold;
  }
  bad.push_back(TestOptions());
  bad.back().max_items_per_query = 0;
  for (size_t i = 0; i < bad.size(); ++i) {
    auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                  w.vectors, bad[i]);
    ASSERT_FALSE(created.ok()) << "case " << i;
    EXPECT_EQ(created.status().code(), util::StatusCode::kInvalidArgument)
        << "case " << i;
    auto built = core::BuildEntityGraph(window, w.titles, w.vectors,
                                        bad[i]);
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
  // AggregateWindow adds the links queries ascending, entities ascending
  // within each query: both sides' rows must come out in that order.
  testutil::ExpectSameBipartiteGraph(
      AggregateWindow(w, w.days.size() - window, w.days.size()),
      graph.WindowGraph(), "final window");
}

TEST(IncrementalGraphTest, EmptyDeltaIsANoOp) {
  auto w = MakeWorkload(/*num_queries=*/11, /*num_entities=*/13,
                        /*vocab=*/5, /*num_days=*/1, /*seed=*/3);
  auto created = IncrementalEntityGraph::Create(w.num_queries, w.titles,
                                                w.vectors, TestOptions());
  ASSERT_TRUE(created.ok());
  IncrementalEntityGraph graph = std::move(created).value();
  ASSERT_TRUE(graph.ApplyDelta(MakeDelta(&w.days[0], nullptr), nullptr).ok());
  const std::vector<core::ScoredEdge> before = graph.StoreEdges();

  const auto capped_before = graph.Materialize();
  ASSERT_TRUE(capped_before.ok());

  DeltaStats stats;
  std::vector<CappedEdgeChange> changes;
  ASSERT_TRUE(graph.ApplyDelta(ClickDelta{}, &stats, &changes).ok());
  EXPECT_EQ(stats.delta_entries, 0u);
  EXPECT_EQ(stats.rows_recapped, 0u);
  EXPECT_EQ(stats.capped_edges_changed, 0u);
  EXPECT_TRUE(changes.empty());
  ExpectSameStore(before, graph.StoreEdges(), "after an empty delta");
  testutil::ExpectSameWeightedGraph(*capped_before, graph.CappedGraph(),
                                    "after an empty delta");
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
