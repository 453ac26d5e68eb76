#include "core/taxonomy_io.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "testutil/tsv_reference.h"
#include "util/tsv.h"

namespace shoal::core {
namespace {

class TaxonomyIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: parallel ctest processes must not share a
    // directory that TearDown deletes.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("shoal_taxonomy_io_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Two-root taxonomy with sub-topics, categories and descriptions.
  static Taxonomy MakeTaxonomy() {
    Dendrogram d(8);
    uint32_t m01 = d.Merge(0, 1, 0.9).value();
    uint32_t m23 = d.Merge(2, 3, 0.85).value();
    (void)d.Merge(m01, m23, 0.7).value();
    uint32_t m45 = d.Merge(4, 5, 0.8).value();
    uint32_t m67 = d.Merge(6, 7, 0.75).value();
    (void)d.Merge(m45, m67, 0.6).value();
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    Taxonomy taxonomy =
        Taxonomy::Build(d, {10, 10, 11, 11, 12, 12, 13, 13}, options);
    taxonomy.topic(taxonomy.roots()[0]).description = {"beach trip",
                                                       "swimwear sale"};
    return taxonomy;
  }

  static CategoryCorrelation MakeCorrelations() {
    std::vector<CategoryCorrelation::Pair> pairs = {
        {10, 11, 5}, {12, 13, 3}, {10, 13, 2}};
    auto result = CorrelationFromPairs(pairs);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }

  std::string dir_;
};

TEST_F(TaxonomyIoTest, RoundTripPreservesStructure) {
  Taxonomy original = MakeTaxonomy();
  CategoryCorrelation correlations = MakeCorrelations();
  ASSERT_TRUE(SaveTaxonomy(original, correlations, dir_).ok());
  auto loaded = LoadTaxonomy(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Taxonomy& restored = loaded->taxonomy;

  ASSERT_EQ(restored.num_topics(), original.num_topics());
  EXPECT_EQ(restored.num_entities(), original.num_entities());
  EXPECT_EQ(restored.roots(), original.roots());
  for (uint32_t t = 0; t < original.num_topics(); ++t) {
    const Topic& a = original.topic(t);
    const Topic& b = restored.topic(t);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.entities, b.entities);
    EXPECT_EQ(a.categories, b.categories);
    EXPECT_EQ(a.description, b.description);
    EXPECT_EQ(a.children, b.children);
  }
  // Entity->topic mapping rebuilt identically.
  for (uint32_t e = 0; e < original.num_entities(); ++e) {
    EXPECT_EQ(restored.TopicOfEntity(e), original.TopicOfEntity(e));
    EXPECT_EQ(restored.RootTopicOfEntity(e), original.RootTopicOfEntity(e));
  }
}

TEST_F(TaxonomyIoTest, RoundTripPreservesCorrelations) {
  ASSERT_TRUE(SaveTaxonomy(MakeTaxonomy(), MakeCorrelations(), dir_).ok());
  auto loaded = LoadTaxonomy(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->correlations.Strength(10, 11), 5u);
  EXPECT_EQ(loaded->correlations.Strength(13, 12), 3u);
  EXPECT_EQ(loaded->correlations.Strength(10, 12), 0u);
  EXPECT_EQ(loaded->correlations.pairs().size(), 3u);
  auto related = loaded->correlations.Related(10);
  ASSERT_EQ(related.size(), 2u);
  EXPECT_EQ(related[0].first, 11u);
}

TEST_F(TaxonomyIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(LoadTaxonomy(dir_ + "/nope").ok());
}

TEST_F(TaxonomyIoTest, CorruptParentRejected) {
  ASSERT_TRUE(SaveTaxonomy(MakeTaxonomy(), MakeCorrelations(), dir_).ok());
  // Rewrite topics.tsv with a parent pointing at a nonexistent topic.
  auto rows = testutil::ReferenceReadTsv(dir_ + "/topics.tsv").value();
  rows[1][1] = "999";
  ASSERT_TRUE(util::WriteTsv(dir_ + "/topics.tsv", rows).ok());
  EXPECT_FALSE(LoadTaxonomy(dir_).ok());
}

TEST_F(TaxonomyIoTest, MalformedFieldsRejected) {
  struct Case {
    const char* file;
    size_t row;
    size_t field;
    const char* text;
  };
  const Case cases[] = {
      {"topics.tsv", 0, 0, "0x"},          {"topics.tsv", 1, 1, "-1"},
      {"topics.tsv", 1, 2, "4294967296"},  {"members.tsv", 0, 0, ""},
      {"members.tsv", 2, 1, "4294967298"}, {"categories.tsv", 0, 1, "1 0"},
      {"categories.tsv", 0, 2, "-2"},      {"descriptions.tsv", 0, 1, "one"},
      {"descriptions.tsv", 1, 1, "18446744073709551615"},
      {"descriptions.tsv", 1, 1, "2"},     {"correlations.tsv", 0, 2, "5x"}};
  for (const Case& c : cases) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveTaxonomy(MakeTaxonomy(), MakeCorrelations(), dir_).ok());
    const std::string path = dir_ + "/" + c.file;
    auto rows = testutil::ReferenceReadTsv(path).value();
    rows[c.row][c.field] = c.text;
    ASSERT_TRUE(util::WriteTsv(path, rows).ok());
    auto loaded = LoadTaxonomy(dir_);
    ASSERT_FALSE(loaded.ok()) << c.file << " row " << c.row << " field "
                              << c.field << " '" << c.text
                              << "' was accepted";
    EXPECT_NE(loaded.status().message().find(c.file), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(TaxonomyIoTest, MalformedEntityCountHeaderRejected) {
  for (const char* header : {"num_entities=", "num_entities=8x",
                             "num_entities=-8",
                             "num_entities=18446744073709551616"}) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveTaxonomy(MakeTaxonomy(), MakeCorrelations(), dir_).ok());
    const std::string path = dir_ + "/members.tsv";
    std::string text = util::ReadTextFile(path).value();
    const size_t begin = text.find("num_entities=");
    const size_t end = text.find('\n', begin);
    text.replace(begin, end - begin, header);
    ASSERT_TRUE(util::WriteTextFile(path, text).ok());
    EXPECT_FALSE(LoadTaxonomy(dir_).ok()) << header;
  }
}

TEST_F(TaxonomyIoTest, ParentCycleRejected) {
  std::vector<Topic> topics(2);
  topics[0].id = 0;
  topics[0].parent = 1;
  topics[1].id = 1;
  topics[1].parent = 0;
  EXPECT_FALSE(TaxonomyFromTopics(std::move(topics), 0).ok());
}

TEST_F(TaxonomyIoTest, SelfParentRejected) {
  std::vector<Topic> topics(1);
  topics[0].id = 0;
  topics[0].parent = 0;
  EXPECT_FALSE(TaxonomyFromTopics(std::move(topics), 0).ok());
}

TEST_F(TaxonomyIoTest, EntityOutOfRangeRejected) {
  std::vector<Topic> topics(1);
  topics[0].id = 0;
  topics[0].entities = {5};
  EXPECT_FALSE(TaxonomyFromTopics(std::move(topics), 3).ok());
}

TEST_F(TaxonomyIoTest, MisnumberedTopicRejected) {
  std::vector<Topic> topics(1);
  topics[0].id = 7;
  EXPECT_FALSE(TaxonomyFromTopics(std::move(topics), 0).ok());
}

TEST_F(TaxonomyIoTest, CorrelationValidation) {
  EXPECT_FALSE(CorrelationFromPairs({{1, 1, 3}}).ok());  // self pair
  EXPECT_FALSE(CorrelationFromPairs({{1, 2, 0}}).ok());  // zero strength
  EXPECT_FALSE(
      CorrelationFromPairs({{1, 2, 3}, {2, 1, 4}}).ok());  // duplicate
}

TEST_F(TaxonomyIoTest, EmptyTaxonomyRoundTrips) {
  Dendrogram d(2);
  Taxonomy empty = Taxonomy::Build(d, {0, 1}, TaxonomyOptions{});
  ASSERT_TRUE(
      SaveTaxonomy(empty, CorrelationFromPairs({}).value(), dir_).ok());
  auto loaded = LoadTaxonomy(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->taxonomy.num_topics(), 0u);
  EXPECT_TRUE(loaded->correlations.pairs().empty());
}

}  // namespace
}  // namespace shoal::core
