#include "core/entity_graph.h"

#include <cmath>

#include <gtest/gtest.h>

namespace shoal::core {
namespace {

// Hand-built fixture: 4 entities, 3 queries.
//   query 0 -> entities {0, 1}
//   query 1 -> entities {0, 1, 2}
//   query 2 -> entities {3}
// Entities 0 and 1 share both queries; 2 shares one with them; 3 is
// isolated (never co-clicked).
struct Fixture {
  graph::BipartiteGraph qi{3, 4};
  std::vector<std::vector<uint32_t>> titles;
  text::EmbeddingTable vectors{4, 2};

  Fixture() {
    EXPECT_TRUE(qi.AddInteraction(0, 0).ok());
    EXPECT_TRUE(qi.AddInteraction(0, 1).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 0).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 1).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 2).ok());
    EXPECT_TRUE(qi.AddInteraction(2, 3).ok());
    // Words 0,1 point +x; word 2 +y; word 3 -x.
    vectors.Row(0)[0] = 1.0f;
    vectors.Row(1)[0] = 1.0f;
    vectors.Row(2)[1] = 1.0f;
    vectors.Row(3)[0] = -1.0f;
    titles = {{0}, {1}, {2}, {3}};
  }
};

TEST(EntityGraphTest, ValidatesInputs) {
  Fixture f;
  EntityGraphOptions options;
  std::vector<std::vector<uint32_t>> wrong_titles = {{0}};
  EXPECT_FALSE(
      BuildEntityGraph(f.qi, wrong_titles, f.vectors, options).ok());
  options.alpha = 1.5;
  EXPECT_FALSE(BuildEntityGraph(f.qi, f.titles, f.vectors, options).ok());
}

TEST(EntityGraphTest, RejectsZeroItemsPerQuery) {
  // A zero cap would drop every link; the daemon's incremental graph
  // rejects it, and so must the batch builder, for either strategy.
  Fixture f;
  EntityGraphOptions options;
  options.max_items_per_query = 0;
  for (CandidateStrategy strategy :
       {CandidateStrategy::kExact, CandidateStrategy::kMinHashLsh}) {
    options.candidate_strategy = strategy;
    auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(EntityGraphTest, CoClickedEntitiesGetEdges) {
  Fixture f;
  EntityGraphOptions options;
  options.similarity_threshold = 0.1;
  EntityGraphStats stats;
  auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  // Candidates: (0,1), (0,2), (1,2) — never (x,3).
  EXPECT_EQ(stats.candidate_pairs, 3u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(0, 3));
  EXPECT_FALSE(g->HasEdge(1, 3));
  EXPECT_FALSE(g->HasEdge(2, 3));
}

TEST(EntityGraphTest, EdgeWeightMatchesEq3) {
  Fixture f;
  EntityGraphOptions options;
  options.alpha = 0.7;
  options.similarity_threshold = 0.0;
  auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options);
  ASSERT_TRUE(g.ok());
  // Entities 0,1: Jaccard = 2/2 = 1.0; content = shifted cos(+x,+x) = 1.0.
  EXPECT_NEAR(g->EdgeWeight(0, 1), 0.7 * 1.0 + 0.3 * 1.0, 1e-6);
  // Entities 0,2: Jaccard = 1/2; content = shifted cos(+x,+y) = 0.5.
  EXPECT_NEAR(g->EdgeWeight(0, 2), 0.7 * 0.5 + 0.3 * 0.5, 1e-6);
}

TEST(EntityGraphTest, ThresholdSparsifies) {
  Fixture f;
  EntityGraphOptions options;
  options.similarity_threshold = 0.9;
  EntityGraphStats stats;
  auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  // Only the (0,1) pair reaches 1.0.
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_EQ(stats.scored_pairs, 3u);
  EXPECT_EQ(stats.kept_edges, 1u);
}

TEST(EntityGraphTest, AlphaZeroUsesContentOnly) {
  Fixture f;
  EntityGraphOptions options;
  options.alpha = 0.0;
  options.similarity_threshold = 0.0;
  auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options);
  ASSERT_TRUE(g.ok());
  // (0,1): content 1.0; (0,2): content 0.5.
  EXPECT_NEAR(g->EdgeWeight(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(g->EdgeWeight(0, 2), 0.5, 1e-6);
}

TEST(EntityGraphTest, HeadQueryCapLimitsCandidates) {
  // One query clicked on 10 entities: uncapped -> 45 candidate pairs;
  // capped at 4 items -> C(4,2) = 6.
  graph::BipartiteGraph qi(1, 10);
  std::vector<std::vector<uint32_t>> titles(10, std::vector<uint32_t>{0});
  text::EmbeddingTable vectors(1, 2);
  vectors.Row(0)[0] = 1.0f;
  for (uint32_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(qi.AddInteraction(0, e).ok());
  }
  EntityGraphOptions options;
  options.max_items_per_query = 4;
  options.similarity_threshold = 0.0;
  EntityGraphStats stats;
  auto g = BuildEntityGraph(qi, titles, vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(stats.candidate_pairs, 6u);
  EXPECT_EQ(stats.capped_queries, 1u);
}

TEST(EntityGraphTest, HeadQueryCapKeepsStrongestLinksByClickWeight) {
  // Regression: the fanout cap used to keep the *first* N links in
  // storage order, silently dropping strong co-click edges added late.
  // One query clicks 6 entities; the two heaviest links (entities 4 and
  // 5, 10 clicks each) arrive last. With the cap at 2, the only
  // candidate pair must be (4,5), not the storage-order pair (0,1).
  graph::BipartiteGraph qi(1, 6);
  std::vector<std::vector<uint32_t>> titles(6, std::vector<uint32_t>{0});
  text::EmbeddingTable vectors(1, 2);
  vectors.Row(0)[0] = 1.0f;
  for (uint32_t e = 0; e < 4; ++e) {
    ASSERT_TRUE(qi.AddInteraction(0, e, 1).ok());
  }
  ASSERT_TRUE(qi.AddInteraction(0, 4, 10).ok());
  ASSERT_TRUE(qi.AddInteraction(0, 5, 10).ok());

  EntityGraphOptions options;
  options.max_items_per_query = 2;
  options.similarity_threshold = 0.0;
  EntityGraphStats stats;
  auto g = BuildEntityGraph(qi, titles, vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(stats.candidate_pairs, 1u);
  EXPECT_EQ(stats.capped_queries, 1u);
  EXPECT_TRUE(g->HasEdge(4, 5));
  EXPECT_FALSE(g->HasEdge(0, 1));
}

TEST(EntityGraphTest, HeadQueryCapBreaksClickTiesTowardSmallerItemId) {
  // Equal click counts: the cap keeps the smaller item ids, making the
  // selection independent of link storage order.
  graph::BipartiteGraph qi(1, 4);
  std::vector<std::vector<uint32_t>> titles(4, std::vector<uint32_t>{0});
  text::EmbeddingTable vectors(1, 2);
  vectors.Row(0)[0] = 1.0f;
  // Insert in descending id order; all counts equal.
  for (uint32_t e = 4; e-- > 0;) {
    ASSERT_TRUE(qi.AddInteraction(0, e, 3).ok());
  }
  EntityGraphOptions options;
  options.max_items_per_query = 2;
  options.similarity_threshold = 0.0;
  EntityGraphStats stats;
  auto g = BuildEntityGraph(qi, titles, vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(stats.candidate_pairs, 1u);
  EXPECT_TRUE(g->HasEdge(0, 1));
}

TEST(EntityGraphTest, StageTimingsArePopulated) {
  Fixture f;
  EntityGraphOptions options;
  options.similarity_threshold = 0.1;
  EntityGraphStats stats;
  stats.candidate_seconds = -1.0;
  stats.profile_seconds = -1.0;
  stats.scoring_seconds = -1.0;
  stats.degree_cap_seconds = -1.0;
  auto g = BuildEntityGraph(f.qi, f.titles, f.vectors, options, &stats);
  ASSERT_TRUE(g.ok());
  EXPECT_GE(stats.candidate_seconds, 0.0);
  EXPECT_GE(stats.profile_seconds, 0.0);
  EXPECT_GE(stats.scoring_seconds, 0.0);
  EXPECT_GE(stats.degree_cap_seconds, 0.0);
}

TEST(EntityGraphTest, DegreeCapKeepsStrongestEdges) {
  // Star-ish co-click pattern via one query over 6 entities with varying
  // content similarity; degree cap must retain the strongest edges.
  graph::BipartiteGraph qi(1, 6);
  text::EmbeddingTable vectors(6, 2);
  for (uint32_t w = 0; w < 6; ++w) {
    float angle = 0.3f * static_cast<float>(w);
    vectors.Row(w)[0] = std::cos(angle);
    vectors.Row(w)[1] = std::sin(angle);
  }
  std::vector<std::vector<uint32_t>> titles;
  for (uint32_t e = 0; e < 6; ++e) {
    titles.push_back({e});
    ASSERT_TRUE(qi.AddInteraction(0, e).ok());
  }
  EntityGraphOptions options;
  options.similarity_threshold = 0.0;
  options.max_degree = 2;
  auto g = BuildEntityGraph(qi, titles, vectors, options);
  ASSERT_TRUE(g.ok());
  // Every vertex should have a bounded degree (cap is soft: an edge
  // survives if either endpoint has room, so max observed degree can
  // exceed the cap slightly but not explode).
  for (uint32_t v = 0; v < 6; ++v) {
    EXPECT_LE(g->Degree(v), 5u);
  }
  EXPECT_LT(g->num_edges(), 15u);  // strictly fewer than all pairs
}

TEST(EntityGraphTest, EmptyBipartiteGraphGivesEmptyEntityGraph) {
  graph::BipartiteGraph qi(2, 3);
  std::vector<std::vector<uint32_t>> titles(3);
  text::EmbeddingTable vectors(1, 2);
  auto g = BuildEntityGraph(qi, titles, vectors, EntityGraphOptions{});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_EQ(g->num_vertices(), 3u);
}

}  // namespace
}  // namespace shoal::core
