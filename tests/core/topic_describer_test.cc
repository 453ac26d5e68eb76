#include "core/topic_describer.h"

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/string_util.h"

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
  ASSERT_FALSE((*rankings)->by_topic[topic0].empty());
  EXPECT_EQ((*rankings)->by_topic[topic0][0].query, 0u);
  ASSERT_FALSE((*rankings)->by_topic[topic1].empty());
  EXPECT_EQ((*rankings)->by_topic[topic1][0].query, 1u);
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
  for (const auto& scored : (*rankings)->by_topic[topic0]) {
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
  for (const auto& topic_ranking : (*rankings)->by_topic) {
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
  for (const auto& topic_ranking : (*rankings)->by_topic) {
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

TEST(TopicDescriberTest, OutOfRangeTopicLeavesDescriptionsUntouched) {
  DescriberFixture f;
  for (uint32_t t = 0; t < f.taxonomy.num_topics(); ++t) {
    f.taxonomy.topic(t).description = {"kept"};
  }
  auto rankings = TopicDescriber::DescribeTopics(
      f.taxonomy, f.Input(), DescriberOptions{}, {0, 999},
      std::vector<std::vector<ScoredQuery>>(f.taxonomy.num_topics()));
  ASSERT_FALSE(rankings.ok());
  EXPECT_EQ(rankings.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(f.taxonomy.rankings(), nullptr);
  for (uint32_t t = 0; t < f.taxonomy.num_topics(); ++t) {
    EXPECT_EQ(f.taxonomy.topic(t).description,
              std::vector<std::string>{"kept"})
        << "topic " << t;
  }
}

// A seeded random describer input over a small vocabulary, so words
// repeat within titles, within queries and across topics. Entities 2 and
// 3 get no clicks and merge first, so one topic has none; on odd seeds
// entities 0 and 1 have empty titles and merge first (a topic with an
// empty pseudo-document); on even seeds every title carries kEverywhere
// (a word in every pseudo-document). Some query words are in no title.
struct RandomDescriberFixture {
  static constexpr uint32_t kEntities = 48;
  static constexpr uint32_t kQueries = 40;
  static constexpr uint32_t kVocab = 30;
  static constexpr uint32_t kEverywhere = kVocab;
  static constexpr uint32_t kNowhere = kVocab + 1;

  Taxonomy taxonomy;
  graph::BipartiteGraph qi{kQueries, kEntities};
  std::vector<std::vector<uint32_t>> query_words;
  std::vector<std::string> query_texts;
  std::vector<std::vector<uint32_t>> titles;

  explicit RandomDescriberFixture(uint64_t seed) {
    util::Rng rng(seed);
    const bool empty_titles = seed % 2 == 1;
    titles.resize(kEntities);
    for (uint32_t e = 0; e < kEntities; ++e) {
      if (empty_titles && e < 2) continue;
      size_t len = 1 + rng.Uniform(6);
      for (size_t i = 0; i < len; ++i) {
        titles[e].push_back(static_cast<uint32_t>(rng.Uniform(kVocab)));
      }
      if (!empty_titles) titles[e].push_back(kEverywhere);
    }
    for (uint32_t q = 0; q < kQueries; ++q) {
      std::vector<uint32_t> words(1 + rng.Uniform(4));
      for (auto& w : words) {
        w = static_cast<uint32_t>(rng.Uniform(kVocab + 2));
      }
      if (rng.Bernoulli(0.25)) words.push_back(words[0]);
      if (rng.Bernoulli(0.15)) words.push_back(kNowhere);
      query_words.push_back(words);
      query_texts.push_back(util::StringPrintf("q%u", q));
    }
    for (int click = 0; click < 240; ++click) {
      uint32_t q = static_cast<uint32_t>(rng.Uniform(kQueries));
      uint32_t e = static_cast<uint32_t>(4 + rng.Uniform(kEntities - 4));
      EXPECT_TRUE(
          qi.AddInteraction(q, e, static_cast<uint32_t>(1 + rng.Uniform(5)))
              .ok());
    }
    Dendrogram dendrogram(kEntities);
    EXPECT_TRUE(dendrogram.Merge(0, 1, 0.9).ok());
    EXPECT_TRUE(dendrogram.Merge(2, 3, 0.9).ok());
    while (dendrogram.Roots().size() > 5) {
      std::vector<uint32_t> roots = dendrogram.Roots();
      rng.Shuffle(roots);
      EXPECT_TRUE(
          dendrogram.Merge(roots[0], roots[1], rng.UniformDouble()).ok());
    }
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = Taxonomy::Build(
        dendrogram, std::vector<uint32_t>(kEntities, 0), options);
  }

  DescriberInput Input() const {
    DescriberInput input;
    input.query_item_graph = &qi;
    input.query_words = &query_words;
    input.query_texts = &query_texts;
    input.entity_title_words = &titles;
    return input;
  }
};

DescriberOptions RandomOptions(uint64_t seed) {
  DescriberOptions options;
  options.queries_per_topic = 1 + seed % 4;
  if (seed % 3 == 0) {
    options.bm25.k1 = 2.0;
    options.bm25.b = 0.3;
  }
  return options;
}

// The describer as it scored before the sparse pass: each query's BM25
// relevance to every topic from one Score() call per topic, then the
// stable softmax over that dense vector.
std::vector<std::vector<ScoredQuery>> DenseReferenceRankings(
    const Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options) {
  const auto& qi = *input.query_item_graph;
  text::Bm25Index bm25(options.bm25);
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    std::vector<uint32_t> doc;
    for (uint32_t e : taxonomy.topic(t).entities) {
      const auto& title = (*input.entity_title_words)[e];
      doc.insert(doc.end(), title.begin(), title.end());
    }
    bm25.AddDocument(doc);
  }
  std::vector<std::vector<ScoredQuery>> rankings(taxonomy.num_topics());
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    std::map<uint32_t, uint64_t> tf_q;
    uint64_t tf_total = 0;
    for (uint32_t e : taxonomy.topic(t).entities) {
      for (const auto& link : qi.RightNeighbors(e)) {
        tf_q[link.id] += link.count;
        tf_total += link.count;
      }
    }
    if (tf_total == 0) continue;
    const double log_tf_total =
        std::log(static_cast<double>(tf_total) + 1.0);
    for (const auto& [q, tf] : tf_q) {
      double pop = (std::log(static_cast<double>(tf)) + 1.0) / log_tf_total;
      pop = std::clamp(pop, 0.0, 1.0);
      const auto& words = (*input.query_words)[q];
      std::vector<double> rel(bm25.num_documents());
      for (uint32_t d = 0; d < rel.size(); ++d) rel[d] = bm25.Score(words, d);
      double max_rel = 0.0;
      for (double r : rel) max_rel = std::max(max_rel, r);
      double sum_exp = std::exp(0.0 - max_rel);
      for (double r : rel) sum_exp += std::exp(r - max_rel);
      ScoredQuery scored;
      scored.query = q;
      scored.popularity = pop;
      scored.concentration = std::exp(rel[t] - max_rel) / sum_exp;
      scored.representativeness = std::sqrt(pop * scored.concentration);
      rankings[t].push_back(scored);
    }
    std::sort(rankings[t].begin(), rankings[t].end(),
              [](const ScoredQuery& a, const ScoredQuery& b) {
                if (a.representativeness != b.representativeness) {
                  return a.representativeness > b.representativeness;
                }
                return a.query < b.query;
              });
  }
  return rankings;
}

void ExpectSameRanking(const std::vector<ScoredQuery>& actual,
                       const std::vector<ScoredQuery>& expected,
                       uint32_t topic) {
  ASSERT_EQ(actual.size(), expected.size()) << "topic " << topic;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].query, expected[i].query) << "topic " << topic;
    EXPECT_EQ(actual[i].popularity, expected[i].popularity)
        << "topic " << topic;
    EXPECT_EQ(actual[i].concentration, expected[i].concentration)
        << "topic " << topic;
    EXPECT_EQ(actual[i].representativeness, expected[i].representativeness)
        << "topic " << topic;
  }
}

TEST(TopicDescriberTest, MatchesDenseReferenceOnRandomInputs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RandomDescriberFixture f(seed);
    const DescriberOptions options = RandomOptions(seed);
    const auto expected =
        DenseReferenceRankings(f.taxonomy, f.Input(), options);
    auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
    ASSERT_TRUE(rankings.ok());
    ASSERT_EQ((*rankings)->by_topic.size(), expected.size());
    bool saw_unclicked_topic = false;
    bool saw_empty_document = false;
    for (uint32_t t = 0; t < expected.size(); ++t) {
      ExpectSameRanking((*rankings)->by_topic[t], expected[t], t);
      saw_unclicked_topic |= expected[t].empty();
      const auto& members = f.taxonomy.topic(t).entities;
      saw_empty_document |=
          std::all_of(members.begin(), members.end(),
                      [&](uint32_t e) { return f.titles[e].empty(); });
      std::vector<std::string> description;
      for (size_t i = 0;
           i < std::min(options.queries_per_topic, expected[t].size()); ++i) {
        description.push_back(f.query_texts[expected[t][i].query]);
      }
      EXPECT_EQ(f.taxonomy.topic(t).description, description)
          << "topic " << t;
    }
    EXPECT_TRUE(saw_unclicked_topic);
    EXPECT_EQ(saw_empty_document, seed % 2 == 1);
  }
}

// Scored topics rank as a full describe ranks them; every other topic
// takes the caller's ranking, and each description is written from the
// ranking it ends up with.
TEST(TopicDescriberTest, DescribeTopicsMatchesDescribeOnTheSubset) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    RandomDescriberFixture f(seed);
    const DescriberOptions options = RandomOptions(seed);
    Taxonomy full = f.taxonomy;
    auto all = TopicDescriber::Describe(full, f.Input(), options);
    ASSERT_TRUE(all.ok());

    util::Rng rng(seed + 1000);
    std::vector<uint32_t> subset;
    std::vector<char> in_subset(f.taxonomy.num_topics(), 0);
    for (uint32_t t = 0; t < f.taxonomy.num_topics(); ++t) {
      if (rng.Bernoulli(0.4)) {
        subset.push_back(t);
        in_subset[t] = 1;
      }
    }
    rng.Shuffle(subset);
    // Carried rankings unlike the full pass's: each one reversed, so a
    // description written from it differs from the full describe's.
    std::vector<std::vector<ScoredQuery>> carried = (*all)->by_topic;
    for (auto& ranking : carried) std::reverse(ranking.begin(), ranking.end());
    auto some = TopicDescriber::DescribeTopics(f.taxonomy, f.Input(), options,
                                               subset, carried);
    ASSERT_TRUE(some.ok());
    ASSERT_EQ(*some, f.taxonomy.rankings());
    EXPECT_TRUE((*some)->options == options);
    ASSERT_EQ((*some)->by_topic.size(), (*all)->by_topic.size());
    for (uint32_t t = 0; t < f.taxonomy.num_topics(); ++t) {
      const auto& ranking = (*some)->by_topic[t];
      if (in_subset[t]) {
        ExpectSameRanking(ranking, (*all)->by_topic[t], t);
        EXPECT_EQ(f.taxonomy.topic(t).description,
                  full.topic(t).description)
            << "topic " << t;
      } else {
        ExpectSameRanking(ranking, carried[t], t);
      }
      std::vector<std::string> description;
      for (size_t i = 0;
           i < std::min(options.queries_per_topic, ranking.size()); ++i) {
        description.push_back(f.query_texts[ranking[i].query]);
      }
      EXPECT_EQ(f.taxonomy.topic(t).description, description)
          << "topic " << t;
    }
  }
}

// Describe keeps its rankings on the taxonomy, stamped with the options
// it ran with, and returns that block rather than a copy.
TEST(TopicDescriberTest, DescribeStoresItsRankingsOnTheTaxonomy) {
  DescriberFixture f;
  EXPECT_EQ(f.taxonomy.rankings(), nullptr);
  DescriberOptions options;
  options.queries_per_topic = 2;
  options.bm25.k1 = 1.5;
  auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
  ASSERT_TRUE(rankings.ok());
  const TopicRankings* stored = f.taxonomy.rankings();
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->options == options);
  EXPECT_FALSE(stored->options == DescriberOptions{});
  EXPECT_EQ(*rankings, stored) << "Describe returns the stored block";
}

TEST(TopicDescriberTest, CopiesShareTheStoredRankings) {
  DescriberFixture f;
  ASSERT_TRUE(
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{})
          .ok());
  const Taxonomy copy = f.taxonomy;
  ASSERT_NE(copy.rankings(), nullptr);
  EXPECT_EQ(copy.rankings(), f.taxonomy.rankings());
}

// DescribeTopics stores the full set, scored and carried, as a new
// block; a call with a ranking count other than the topic count changes
// nothing.
TEST(TopicDescriberTest, DescribeTopicsStoresCarriedRankings) {
  DescriberFixture f;
  ASSERT_TRUE(
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{})
          .ok());
  const Taxonomy described = f.taxonomy;
  const TopicRankings* before = described.rankings();
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(TopicDescriber::DescribeTopics(
                   f.taxonomy, f.Input(), DescriberOptions{}, {0},
                   std::vector<std::vector<ScoredQuery>>(1))
                   .ok())
      << "one ranking for two topics";
  EXPECT_EQ(f.taxonomy.rankings(), before);

  auto stored = TopicDescriber::DescribeTopics(
      f.taxonomy, f.Input(), DescriberOptions{}, {0}, before->by_topic);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_EQ(*stored, f.taxonomy.rankings());
  EXPECT_NE(*stored, before) << "a new block";
  ASSERT_EQ((*stored)->by_topic.size(), before->by_topic.size());
  for (uint32_t t = 0; t < before->by_topic.size(); ++t) {
    ExpectSameRanking((*stored)->by_topic[t], before->by_topic[t], t);
    EXPECT_EQ(f.taxonomy.topic(t).description, described.topic(t).description);
  }
  EXPECT_EQ(described.rankings(), before) << "a copy keeps its block";
}

// ApplyRankings writes every description from its ranking and refuses a
// ranking that names a query outside the dictionary, changing nothing.
TEST(TopicDescriberTest, ApplyRankingsRejectsQueryOutsideDictionary) {
  DescriberFixture f;
  DescriberOptions options;
  options.queries_per_topic = 1;
  std::vector<std::vector<ScoredQuery>> rankings(f.taxonomy.num_topics());
  rankings[0] = {{2, 0.9, 0.9, 0.9}, {0, 0.5, 0.5, 0.5}};
  auto applied =
      TopicDescriber::ApplyRankings(f.taxonomy, f.query_texts, options,
                                    rankings);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(f.taxonomy.topic(0).description,
            std::vector<std::string>{"misc"});
  EXPECT_TRUE(f.taxonomy.topic(1).description.empty());

  rankings[1] = {{static_cast<uint32_t>(f.query_texts.size()), 1, 1, 1}};
  auto rejected =
      TopicDescriber::ApplyRankings(f.taxonomy, f.query_texts, options,
                                    rankings);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(f.taxonomy.rankings(), *applied);
  EXPECT_EQ(f.taxonomy.topic(0).description,
            std::vector<std::string>{"misc"});
}

}  // namespace
}  // namespace shoal::core
