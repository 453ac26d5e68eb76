// Serial-vs-parallel equivalence for BuildEntityGraph: the sharded
// builder must produce the exact edge set, weights, and stats (timings
// aside) of the num_threads == 1 reference path, at every thread count
// and across shard boundaries that do not divide the input evenly. The
// exact candidate set is also checked against a brute-force oracle, so
// a pair lost at every thread count cannot pass.

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/entity_graph.h"
#include "core/similarity.h"
#include "util/thread_pool.h"

namespace shoal::core {
namespace {

struct RandomWorkload {
  graph::BipartiteGraph qi{0, 0};
  std::vector<std::vector<uint32_t>> titles;
  text::EmbeddingTable vectors{0, 0};
};

// Deterministic pseudo-random bipartite graph + titles + embeddings.
// Deliberately odd sizes so thread-count sweeps hit uneven chunks.
RandomWorkload MakeWorkload(size_t num_queries, size_t num_entities,
                            size_t vocab, uint64_t seed) {
  RandomWorkload w;
  w.qi = graph::BipartiteGraph(num_queries, num_entities);
  w.vectors = text::EmbeddingTable(vocab, 8);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> coord(-1.0f, 1.0f);
  for (size_t v = 0; v < vocab; ++v) {
    for (size_t d = 0; d < 8; ++d) w.vectors.Row(v)[d] = coord(rng);
  }
  std::uniform_int_distribution<uint32_t> word(0, vocab - 1);
  std::uniform_int_distribution<size_t> title_len(0, 5);
  w.titles.resize(num_entities);
  for (auto& title : w.titles) {
    size_t len = title_len(rng);
    for (size_t i = 0; i < len; ++i) title.push_back(word(rng));
  }
  std::uniform_int_distribution<uint32_t> entity(
      0, static_cast<uint32_t>(num_entities - 1));
  std::uniform_int_distribution<uint32_t> clicks(1, 9);
  for (uint32_t q = 0; q < num_queries; ++q) {
    std::uniform_int_distribution<size_t> fanout(0, 12);
    size_t links = fanout(rng);
    for (size_t i = 0; i < links; ++i) {
      EXPECT_TRUE(w.qi.AddInteraction(q, entity(rng), clicks(rng)).ok());
    }
  }
  return w;
}

void ExpectSameGraph(const graph::WeightedGraph& expected,
                     const graph::WeightedGraph& actual, size_t threads) {
  ASSERT_EQ(expected.num_vertices(), actual.num_vertices());
  ASSERT_EQ(expected.num_edges(), actual.num_edges())
      << "edge count diverged at " << threads << " threads";
  auto expected_edges = expected.AllEdges();
  auto actual_edges = actual.AllEdges();
  ASSERT_EQ(expected_edges.size(), actual_edges.size());
  for (size_t i = 0; i < expected_edges.size(); ++i) {
    EXPECT_EQ(expected_edges[i].u, actual_edges[i].u)
        << "edge " << i << " at " << threads << " threads";
    EXPECT_EQ(expected_edges[i].v, actual_edges[i].v)
        << "edge " << i << " at " << threads << " threads";
    // Bitwise equality: the parallel path runs the same arithmetic per
    // pair in the same order, so not even the last ulp may move.
    EXPECT_EQ(expected_edges[i].weight, actual_edges[i].weight)
        << "edge " << i << " at " << threads << " threads";
  }
}

void ExpectSameCounters(const EntityGraphStats& expected,
                        const EntityGraphStats& actual, size_t threads) {
  EXPECT_EQ(expected.candidate_pairs, actual.candidate_pairs)
      << threads << " threads";
  EXPECT_EQ(expected.scored_pairs, actual.scored_pairs)
      << threads << " threads";
  EXPECT_EQ(expected.kept_edges, actual.kept_edges) << threads << " threads";
  EXPECT_EQ(expected.capped_queries, actual.capped_queries)
      << threads << " threads";
}

TEST(EntityGraphParallelTest, MatchesSerialAcrossThreadCounts) {
  auto w = MakeWorkload(/*num_queries=*/61, /*num_entities=*/97,
                        /*vocab=*/23, /*seed=*/2019);
  EntityGraphOptions options;
  options.similarity_threshold = 0.2;
  options.max_degree = 7;
  EntityGraphStats serial_stats;
  auto serial = BuildEntityGraph(w.qi, w.titles, w.vectors, options,
                                 &serial_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->num_edges(), 0u) << "workload too sparse to be a test";

  for (size_t threads : {2u, 3u, 8u}) {
    options.num_threads = threads;
    EntityGraphStats stats;
    auto parallel =
        BuildEntityGraph(w.qi, w.titles, w.vectors, options, &stats);
    ASSERT_TRUE(parallel.ok());
    ExpectSameGraph(*serial, *parallel, threads);
    ExpectSameCounters(serial_stats, stats, threads);
  }
}

TEST(EntityGraphParallelTest, MatchesSerialWithFanoutCapEngaged) {
  auto w = MakeWorkload(/*num_queries=*/37, /*num_entities=*/53,
                        /*vocab=*/11, /*seed=*/7);
  EntityGraphOptions options;
  options.similarity_threshold = 0.0;
  options.max_items_per_query = 3;  // well under the max fanout of 12
  EntityGraphStats serial_stats;
  auto serial = BuildEntityGraph(w.qi, w.titles, w.vectors, options,
                                 &serial_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial_stats.capped_queries, 0u);

  for (size_t threads : {2u, 5u, 8u}) {
    options.num_threads = threads;
    EntityGraphStats stats;
    auto parallel =
        BuildEntityGraph(w.qi, w.titles, w.vectors, options, &stats);
    ASSERT_TRUE(parallel.ok());
    ExpectSameGraph(*serial, *parallel, threads);
    ExpectSameCounters(serial_stats, stats, threads);
  }
}

TEST(EntityGraphParallelTest, MoreThreadsThanQueriesOrEntities) {
  // Shards collapse to fewer chunks than workers; results still match.
  auto w = MakeWorkload(/*num_queries=*/5, /*num_entities=*/9,
                        /*vocab=*/7, /*seed=*/13);
  EntityGraphOptions options;
  options.similarity_threshold = 0.0;
  auto serial = BuildEntityGraph(w.qi, w.titles, w.vectors, options);
  ASSERT_TRUE(serial.ok());

  options.num_threads = 16;
  auto parallel = BuildEntityGraph(w.qi, w.titles, w.vectors, options);
  ASSERT_TRUE(parallel.ok());
  ExpectSameGraph(*serial, *parallel, 16);
}

TEST(EntityGraphParallelTest, HardwareConcurrencyAliasMatchesSerial) {
  auto w = MakeWorkload(/*num_queries=*/29, /*num_entities=*/41,
                        /*vocab=*/13, /*seed=*/3);
  EntityGraphOptions options;
  options.similarity_threshold = 0.1;
  auto serial = BuildEntityGraph(w.qi, w.titles, w.vectors, options);
  ASSERT_TRUE(serial.ok());

  options.num_threads = 0;  // hardware concurrency
  auto parallel = BuildEntityGraph(w.qi, w.titles, w.vectors, options);
  ASSERT_TRUE(parallel.ok());
  ExpectSameGraph(*serial, *parallel, 0);
}

TEST(EntityGraphParallelTest, EmptyInputsAtAnyThreadCount) {
  graph::BipartiteGraph qi(3, 4);
  std::vector<std::vector<uint32_t>> titles(4);
  text::EmbeddingTable vectors(1, 2);
  for (size_t threads : {1u, 2u, 8u}) {
    EntityGraphOptions options;
    options.num_threads = threads;
    EntityGraphStats stats;
    auto g = BuildEntityGraph(qi, titles, vectors, options, &stats);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->num_edges(), 0u);
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_EQ(stats.scored_pairs, 0u);
  }
}

// A seeded graph for the brute-force candidate oracle, with the shapes
// the exact projection has to get right built in: queries with no
// links, an entity no query links to (the second-to-last), cap-engaged
// queries whose clicks tie at one or two, and query 0, which links the
// last entity and nothing else does. Query 0 has cap + 3 links of one
// click each, so ties drop the largest ids, that entity among them.
struct CapWorkload {
  RandomWorkload w;
  size_t cap = 0;
};

CapWorkload MakeCapWorkload(uint64_t seed) {
  CapWorkload c;
  std::mt19937_64 rng(seed);
  const size_t num_entities = 30 + rng() % 40;
  const size_t num_queries = 20 + rng() % 30;
  c.cap = 2 + rng() % 4;
  // Titles and vectors from MakeWorkload; the clicks are built here.
  c.w = MakeWorkload(/*num_queries=*/0, num_entities, /*vocab=*/9, seed);
  c.w.qi = graph::BipartiteGraph(num_queries, num_entities);
  const uint32_t tail_only = static_cast<uint32_t>(num_entities - 1);
  std::uniform_int_distribution<uint32_t> entity(
      0, static_cast<uint32_t>(num_entities - 3));

  std::vector<uint32_t> head;
  while (head.size() < c.cap + 2) {
    const uint32_t e = entity(rng);
    if (std::find(head.begin(), head.end(), e) == head.end()) {
      head.push_back(e);
    }
  }
  head.push_back(tail_only);
  std::shuffle(head.begin(), head.end(), rng);
  for (uint32_t e : head) EXPECT_TRUE(c.w.qi.AddInteraction(0, e, 1).ok());

  std::uniform_int_distribution<size_t> fanout(0, 2 * c.cap + 2);
  std::uniform_int_distribution<uint32_t> clicks(1, 2);
  for (uint32_t q = 1; q < num_queries; ++q) {
    if (q % 6 == 0) continue;  // an empty query
    const size_t links = fanout(rng);
    for (size_t i = 0; i < links; ++i) {
      EXPECT_TRUE(c.w.qi.AddInteraction(q, entity(rng), clicks(rng)).ok());
    }
  }
  return c;
}

TEST(EntityGraphParallelTest, ExactCandidatesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const CapWorkload c = MakeCapWorkload(seed);
    const graph::BipartiteGraph& qi = c.w.qi;
    const size_t num_entities = qi.num_right();
    const uint32_t tail_only = static_cast<uint32_t>(num_entities - 1);
    ASSERT_TRUE(qi.RightNeighbors(tail_only - 1).empty());
    ASSERT_TRUE(qi.LeftNeighbors(6).empty());

    // Oracle: every pair inside some query's capped item set.
    std::set<std::pair<uint32_t, uint32_t>> expected;
    size_t expected_capped = 0;
    for (uint32_t q = 0; q < qi.num_left(); ++q) {
      bool capped = false;
      std::vector<uint32_t> items =
          CappedQueryItems(qi.LeftNeighbors(q), c.cap, &capped);
      if (capped) ++expected_capped;
      if (q == 0) {
        ASSERT_TRUE(capped);
        ASSERT_EQ(std::count(items.begin(), items.end(), tail_only), 0);
      }
      for (size_t i = 0; i < items.size(); ++i) {
        for (size_t j = i + 1; j < items.size(); ++j) {
          expected.insert(std::minmax(items[i], items[j]));
        }
      }
    }
    ASSERT_GT(expected_capped, 1u) << "cap engaged only on query 0";

    // With no threshold and no effective degree cap, the graph's edge
    // set is the candidate set.
    EntityGraphOptions options;
    options.similarity_threshold = -1.0;
    options.max_degree = num_entities;
    options.max_items_per_query = c.cap;
    for (size_t threads : {1u, 2u, 3u, 5u, 8u, 16u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      EntityGraphStats stats;
      auto g = BuildEntityGraph(qi, c.w.titles, c.w.vectors, options,
                                &stats);
      ASSERT_TRUE(g.ok());
      std::set<std::pair<uint32_t, uint32_t>> actual;
      for (const auto& e : g->AllEdges()) actual.insert({e.u, e.v});
      EXPECT_EQ(actual, expected);
      EXPECT_EQ(stats.candidate_pairs, expected.size());
      EXPECT_EQ(stats.kept_edges, expected.size());
      EXPECT_EQ(stats.capped_queries, expected_capped);
      EXPECT_EQ(g->Degree(tail_only), 0u);
    }
  }
}

TEST(EntityGraphParallelTest, BatchProfilesMatchSingleProfiles) {
  auto w = MakeWorkload(/*num_queries=*/11, /*num_entities=*/31,
                        /*vocab=*/17, /*seed=*/5);
  util::ThreadPool pool(4);
  auto batched = BuildContentProfiles(w.vectors, w.titles, &pool);
  ASSERT_EQ(batched.size(), w.titles.size());
  for (size_t e = 0; e < w.titles.size(); ++e) {
    ContentProfile single = BuildContentProfile(w.vectors, w.titles[e]);
    EXPECT_EQ(single.mean_unit_vector, batched[e].mean_unit_vector)
        << "entity " << e;
  }
}

}  // namespace
}  // namespace shoal::core
