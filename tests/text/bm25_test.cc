#include "text/bm25.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"

namespace shoal::text {
namespace {

// Dense oracle: the query scored against every document, one Score()
// call each.
std::vector<double> ScoreAll(const Bm25Index& index,
                             const std::vector<uint32_t>& query) {
  std::vector<double> scores(index.num_documents(), 0.0);
  for (uint32_t d = 0; d < index.num_documents(); ++d) {
    scores[d] = index.Score(query, d);
  }
  return scores;
}

// The sparse pass expanded to one score per document.
std::vector<double> ScoreMatchingDense(const Bm25Index& index,
                                       const std::vector<uint32_t>& query) {
  std::vector<double> scores(index.num_documents(), 0.0);
  for (const auto& match : index.ScoreMatching(query)) {
    scores[match.doc] = match.score;
  }
  return scores;
}

// BM25 straight from the document bags, with the index's expression
// order: word terms are added in query order, each computed as
// idf * tf * (k1+1) / (tf + k1*(1 - b + b*|D|/avgdl)).
double ReferenceScore(const std::vector<std::vector<uint32_t>>& docs,
                      const Bm25Index::Options& options,
                      const std::vector<uint32_t>& query, uint32_t doc) {
  uint64_t total = 0;
  for (const auto& d : docs) total += d.size();
  const double avgdl =
      static_cast<double>(total) / static_cast<double>(docs.size());
  if (avgdl == 0.0) return 0.0;
  const double n = static_cast<double>(docs.size());
  const auto& words = docs[doc];
  double score = 0.0;
  for (uint32_t w : query) {
    const double tf =
        static_cast<double>(std::count(words.begin(), words.end(), w));
    if (tf == 0.0) continue;
    double df = 0.0;
    for (const auto& d : docs) {
      if (std::find(d.begin(), d.end(), w) != d.end()) df += 1.0;
    }
    const double idf =
        std::max(0.0, std::log((n - df + 0.5) / (df + 0.5) + 1.0));
    const double norm =
        options.k1 * (1.0 - options.b +
                      options.b * static_cast<double>(words.size()) / avgdl);
    score += idf * tf * (options.k1 + 1.0) / (tf + norm);
  }
  return score;
}

TEST(Bm25Test, EmptyIndexScoresZero) {
  Bm25Index index;
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.Score({1, 2}, 0), 0.0);
  EXPECT_TRUE(index.ScoreMatching({1}).empty());
}

TEST(Bm25Test, AddDocumentAssignsSequentialIds) {
  Bm25Index index;
  EXPECT_EQ(index.AddDocument({1, 2}), 0u);
  EXPECT_EQ(index.AddDocument({3}), 1u);
  EXPECT_EQ(index.num_documents(), 2u);
}

TEST(Bm25Test, MatchingDocumentOutscoresNonMatching) {
  Bm25Index index;
  index.AddDocument({1, 2, 3});   // doc 0: contains query terms
  index.AddDocument({7, 8, 9});   // doc 1: unrelated
  double s0 = index.Score({1, 2}, 0);
  double s1 = index.Score({1, 2}, 1);
  EXPECT_GT(s0, 0.0);
  EXPECT_EQ(s1, 0.0);
}

TEST(Bm25Test, RareTermWeighsMoreThanCommon) {
  Bm25Index index;
  // term 5 appears in every doc; term 6 only in doc 0.
  index.AddDocument({5, 6});
  index.AddDocument({5, 7});
  index.AddDocument({5, 8});
  double rare = index.Score({6}, 0);
  double common = index.Score({5}, 0);
  EXPECT_GT(rare, common);
}

TEST(Bm25Test, TermFrequencySaturates) {
  Bm25Index index;
  index.AddDocument({1});
  index.AddDocument({1, 1, 1, 1, 1});
  index.AddDocument({2, 3, 4, 5, 6});  // padding for idf
  double once = index.Score({1}, 0);
  double many = index.Score({1}, 1);
  EXPECT_GT(many, 0.0);
  // Five occurrences should score more, but far less than 5x (k1 saturation).
  EXPECT_GT(many, once * 0.9);
  EXPECT_LT(many, once * 5.0);
}

TEST(Bm25Test, LongDocumentsPenalized) {
  Bm25Index index;
  index.AddDocument({1, 2});                          // short doc with term
  index.AddDocument({1, 3, 4, 5, 6, 7, 8, 9, 10, 11});  // long doc with term
  double short_score = index.Score({1}, 0);
  double long_score = index.Score({1}, 1);
  EXPECT_GT(short_score, long_score);
}

TEST(Bm25Test, ScoreAllMatchesIndividualScores) {
  Bm25Index index;
  index.AddDocument({1, 2});
  index.AddDocument({2, 3});
  index.AddDocument({4});
  index.AddDocument({5});
  auto all = ScoreAll(index, {2, 4});
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(ScoreMatchingDense(index, {2, 4}), all);
  for (uint32_t d = 0; d < 3; ++d) EXPECT_GT(all[d], 0.0);
  EXPECT_EQ(all[3], 0.0);
}

// Seeded random corpora with duplicate words in documents and queries,
// empty documents, query words no document holds, and a word in every
// document (the smallest idf the formula gives): the sparse pass and
// ScoreDocument() must equal the dense oracle, and Score() the
// from-scratch formula, bit for bit.
TEST(Bm25Test, ScoreMatchingEqualsDenseOracleOnRandomCorpora) {
  constexpr uint32_t kVocab = 40;
  constexpr uint32_t kEverywhere = kVocab;   // planted in every doc
  constexpr uint32_t kNowhere = kVocab + 1;  // in no doc
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    Bm25Index::Options options;
    if (seed % 3 == 0) {
      options.k1 = 2.0;
      options.b = 0.3;
    }
    const bool plant_everywhere = seed % 2 == 0;
    Bm25Index index(options);
    std::vector<std::vector<uint32_t>> docs(1 + rng.Uniform(30));
    for (auto& doc : docs) {
      size_t len = plant_everywhere || !rng.Bernoulli(0.2)
                       ? rng.Uniform(12)
                       : 0;
      for (size_t i = 0; i < len; ++i) {
        // Small vocabulary: words repeat within and across documents.
        doc.push_back(static_cast<uint32_t>(rng.Uniform(kVocab)));
      }
      if (plant_everywhere) doc.push_back(kEverywhere);
      index.AddDocument(doc);
    }
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<uint32_t> query(rng.Uniform(6));
      for (auto& w : query) {
        w = static_cast<uint32_t>(rng.Uniform(kVocab + 2));
      }
      if (!query.empty() && rng.Bernoulli(0.3)) query.push_back(query[0]);
      if (rng.Bernoulli(0.2)) query.push_back(kNowhere);
      const std::vector<double> dense = ScoreAll(index, query);
      EXPECT_EQ(ScoreMatchingDense(index, query), dense)
          << "seed " << seed << " trial " << trial;
      for (uint32_t d = 0; d < docs.size(); ++d) {
        EXPECT_EQ(dense[d], ReferenceScore(docs, options, query, d))
            << "seed " << seed << " trial " << trial << " doc " << d;
        // Dense counts up to kEverywhere; kNowhere lies beyond them.
        std::vector<uint32_t> doc_tf(kVocab + 1, 0);
        for (uint32_t w : docs[d]) ++doc_tf[w];
        EXPECT_EQ(index.ScoreDocument(query, d, doc_tf), dense[d])
            << "seed " << seed << " trial " << trial << " doc " << d;
      }
      // Exactly the documents sharing a word with the query, in doc order.
      std::vector<uint32_t> sharing;
      for (uint32_t d = 0; d < docs.size(); ++d) {
        for (uint32_t w : query) {
          if (std::find(docs[d].begin(), docs[d].end(), w) != docs[d].end()) {
            sharing.push_back(d);
            break;
          }
        }
      }
      std::vector<uint32_t> matched;
      for (const auto& match : index.ScoreMatching(query)) {
        matched.push_back(match.doc);
      }
      EXPECT_EQ(matched, sharing) << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(Bm25Test, UnknownQueryTermsIgnored) {
  Bm25Index index;
  index.AddDocument({1});
  EXPECT_EQ(index.Score({999}, 0), 0.0);
  EXPECT_GT(index.Score({1, 999}, 0), 0.0);
}

TEST(Bm25Test, OutOfRangeDocScoresZero) {
  Bm25Index index;
  index.AddDocument({1});
  EXPECT_EQ(index.Score({1}, 5), 0.0);
}

TEST(Bm25Test, RepeatedQueryTermsAddUp) {
  Bm25Index index;
  index.AddDocument({1, 2});
  index.AddDocument({3});
  double single = index.Score({1}, 0);
  double doubled = index.Score({1, 1}, 0);
  EXPECT_NEAR(doubled, 2.0 * single, 1e-12);
}

TEST(Bm25Test, IdfNonNegativeEvenForUbiquitousTerms) {
  Bm25Index index;
  index.AddDocument({1});
  index.AddDocument({1});
  index.AddDocument({1});
  EXPECT_GE(index.Score({1}, 0), 0.0);
}

TEST(Bm25Test, CustomParameters) {
  Bm25Index::Options options;
  options.k1 = 2.0;
  options.b = 0.0;  // no length normalization
  Bm25Index index(options);
  index.AddDocument({1, 2});
  index.AddDocument({1, 3, 4, 5, 6, 7, 8, 9});
  // With b = 0, doc length must not matter: equal tf -> equal score.
  EXPECT_NEAR(index.Score({1}, 0), index.Score({1}, 1), 1e-12);
}

}  // namespace
}  // namespace shoal::text
