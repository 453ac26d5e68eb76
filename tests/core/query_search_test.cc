#include "core/query_search.h"

#include <gtest/gtest.h>

namespace shoal::core {
namespace {

// Two root topics with disjoint title vocabularies.
struct SearchFixture {
  text::Vocabulary vocab;
  Dendrogram dendrogram{4};
  Taxonomy taxonomy;
  std::vector<std::vector<uint32_t>> titles;

  SearchFixture() {
    uint32_t beach = vocab.AddWord("beach");
    uint32_t swim = vocab.AddWord("swim");
    uint32_t router = vocab.AddWord("router");
    uint32_t wifi = vocab.AddWord("wifi");
    titles = {{beach, swim}, {beach}, {router, wifi}, {router}};
    (void)dendrogram.Merge(0, 1, 0.9);
    (void)dendrogram.Merge(2, 3, 0.9);
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = Taxonomy::Build(dendrogram, {1, 1, 2, 2}, options);
  }
};

TEST(QueryTopicIndexTest, RequiresVocab) {
  SearchFixture f;
  EXPECT_FALSE(QueryTopicIndex::Build(f.taxonomy, f.titles, nullptr,
                                      QueryTopicIndex::Options{})
                   .ok());
}

TEST(QueryTopicIndexTest, FindsMatchingTopic) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, f.taxonomy.RootTopicOfEntity(0));
  for (const auto& hit : hits) {
    EXPECT_NE(hit.topic, f.taxonomy.RootTopicOfEntity(2));
  }
}

TEST(QueryTopicIndexTest, UnknownWordsIgnored) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach zzzunknown", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, f.taxonomy.RootTopicOfEntity(0));
}

TEST(QueryTopicIndexTest, AllUnknownWordsGiveNoHits) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Search("zzz qqq", 5).empty());
  EXPECT_TRUE(index->Search("", 5).empty());
}

TEST(QueryTopicIndexTest, KLimitsResults) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  // "beach router" matches both root topics (and their subtopics if any).
  auto hits = index->Search("beach router", 1);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(QueryTopicIndexTest, ScoresDescending) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach swim router", 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].score, hits[i - 1].score);
  }
}

TEST(QueryTopicIndexTest, DescriptionsBoostRetrieval) {
  SearchFixture f;
  // Attach a description mentioning "camping" to topic of entity 0.
  uint32_t camping = f.vocab.AddWord("camping");
  (void)camping;
  uint32_t root = f.taxonomy.RootTopicOfEntity(0);
  f.taxonomy.topic(root).description.push_back("camping holiday");
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("camping", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, root);
}

}  // namespace
}  // namespace shoal::core
