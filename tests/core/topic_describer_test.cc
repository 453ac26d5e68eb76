#include "core/topic_describer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace shoal::core {
namespace {

// Two topics with distinct vocabularies and an ambiguous query:
//   topic 0 = entities {0,1}, titles about words {100,101}
//   topic 1 = entities {2,3}, titles about words {200,201}
// Queries:
//   q0 ("100")   -> clicks on entities 0,1 (concentrated on topic 0)
//   q1 ("200")   -> clicks on entities 2,3 (concentrated on topic 1)
//   q2 ("300")   -> one click on each topic (diffuse)
struct DescriberFixture {
  Dendrogram dendrogram{4};
  std::vector<uint32_t> categories{1, 1, 2, 2};
  Taxonomy taxonomy;
  graph::BipartiteGraph qi{3, 4};
  std::vector<std::vector<uint32_t>> query_words{{100}, {200}, {300}};
  std::vector<std::string> query_texts{"beach", "router", "misc"};
  std::vector<std::vector<uint32_t>> titles{
      {100, 101}, {100, 101}, {200, 201}, {200, 201}};

  DescriberFixture() {
    (void)dendrogram.Merge(0, 1, 0.9);
    (void)dendrogram.Merge(2, 3, 0.9);
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = Taxonomy::Build(dendrogram, categories, options);
    EXPECT_EQ(taxonomy.roots().size(), 2u);
    // q0: topic 0 clicks, heavier on entity 0.
    EXPECT_TRUE(qi.AddInteraction(0, 0, 5).ok());
    EXPECT_TRUE(qi.AddInteraction(0, 1, 3).ok());
    // q1: topic 1 clicks.
    EXPECT_TRUE(qi.AddInteraction(1, 2, 4).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 3, 4).ok());
    // q2: one click on each side.
    EXPECT_TRUE(qi.AddInteraction(2, 1, 1).ok());
    EXPECT_TRUE(qi.AddInteraction(2, 2, 1).ok());
  }

  DescriberInput Input() {
    DescriberInput input;
    input.taxonomy = &taxonomy;
    input.query_item_graph = &qi;
    input.query_words = &query_words;
    input.query_texts = &query_texts;
    input.entity_title_words = &titles;
    return input;
  }

  uint32_t TopicOf(uint32_t entity) {
    return taxonomy.RootTopicOfEntity(entity);
  }
};

TEST(TopicDescriberTest, ValidatesInput) {
  DescriberFixture f;
  DescriberInput input;  // all null
  EXPECT_FALSE(
      TopicDescriber::Describe(f.taxonomy, input, DescriberOptions{}).ok());
}

TEST(TopicDescriberTest, ValidatesMetadataSizes) {
  DescriberFixture f;
  auto input = f.Input();
  std::vector<std::vector<uint32_t>> short_words{{1}};
  input.query_words = &short_words;
  EXPECT_FALSE(
      TopicDescriber::Describe(f.taxonomy, input, DescriberOptions{}).ok());
}

TEST(TopicDescriberTest, ConcentratedQueryDescribesItsTopic) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  uint32_t topic1 = f.TopicOf(2);
  // The top query of each topic is the one concentrated on it.
  ASSERT_FALSE((*rankings)[topic0].empty());
  EXPECT_EQ((*rankings)[topic0][0].query, 0u);
  ASSERT_FALSE((*rankings)[topic1].empty());
  EXPECT_EQ((*rankings)[topic1][0].query, 1u);
}

TEST(TopicDescriberTest, DescriptionsWrittenToTopics) {
  DescriberFixture f;
  DescriberOptions options;
  options.queries_per_topic = 2;
  auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  const auto& description = f.taxonomy.topic(topic0).description;
  ASSERT_FALSE(description.empty());
  EXPECT_EQ(description[0], "beach");
}

TEST(TopicDescriberTest, DiffuseQueryRanksBelowConcentrated) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  double r_concentrated = 0.0;
  double r_diffuse = 0.0;
  for (const auto& scored : (*rankings)[topic0]) {
    if (scored.query == 0) r_concentrated = scored.representativeness;
    if (scored.query == 2) r_diffuse = scored.representativeness;
  }
  EXPECT_GT(r_concentrated, r_diffuse);
}

TEST(TopicDescriberTest, ScoresWithinExpectedRanges) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  for (const auto& topic_ranking : *rankings) {
    for (const auto& scored : topic_ranking) {
      EXPECT_GE(scored.popularity, 0.0);
      EXPECT_LE(scored.popularity, 1.0);
      EXPECT_GE(scored.concentration, 0.0);
      EXPECT_LE(scored.concentration, 1.0);
      EXPECT_GE(scored.representativeness, 0.0);
      EXPECT_LE(scored.representativeness, 1.0);
    }
  }
}

TEST(TopicDescriberTest, RepresentativenessIsGeometricMean) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  for (const auto& topic_ranking : *rankings) {
    for (const auto& scored : topic_ranking) {
      EXPECT_NEAR(scored.representativeness,
                  std::sqrt(scored.popularity * scored.concentration),
                  1e-9);
    }
  }
}

TEST(TopicDescriberTest, QueriesPerTopicCapRespected) {
  DescriberFixture f;
  DescriberOptions options;
  options.queries_per_topic = 1;
  auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
  ASSERT_TRUE(rankings.ok());
  for (uint32_t r : f.taxonomy.roots()) {
    EXPECT_LE(f.taxonomy.topic(r).description.size(), 1u);
  }
}

}  // namespace
}  // namespace shoal::core
