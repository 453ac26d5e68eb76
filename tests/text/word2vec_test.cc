#include "text/word2vec.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/random.h"

namespace shoal::text {
namespace {

// Builds a corpus with two disjoint topical word groups: words within a
// group always co-occur, across groups never. SGNS must place same-group
// words closer than cross-group words.
struct TwoTopicCorpus {
  Vocabulary vocab;
  std::vector<std::vector<uint32_t>> sentences;
  std::vector<uint32_t> group_a;
  std::vector<uint32_t> group_b;
};

TwoTopicCorpus MakeTwoTopicCorpus(size_t sentences_per_group = 300) {
  TwoTopicCorpus corpus;
  for (const char* w : {"beach", "swim", "sand", "sun"}) {
    corpus.group_a.push_back(corpus.vocab.AddWord(w, 0));
  }
  for (const char* w : {"router", "lan", "wifi", "cable"}) {
    corpus.group_b.push_back(corpus.vocab.AddWord(w, 0));
  }
  util::Rng rng(99);
  for (size_t s = 0; s < sentences_per_group; ++s) {
    for (const auto* group : {&corpus.group_a, &corpus.group_b}) {
      std::vector<uint32_t> sentence;
      for (size_t t = 0; t < 6; ++t) {
        uint32_t w = (*group)[rng.Uniform(group->size())];
        sentence.push_back(w);
        corpus.vocab.AddWord(corpus.vocab.WordOf(w));  // bump count
      }
      corpus.sentences.push_back(std::move(sentence));
    }
  }
  return corpus;
}

Word2VecOptions FastOptions() {
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 4;
  options.window = 3;
  options.seed = 12345;
  return options;
}

// The sigmoid lookup and negative-sampling tables of the reference
// trainer below, built as Train builds its own.
class ReferenceSigmoid {
 public:
  ReferenceSigmoid() {
    for (size_t i = 0; i < kSize; ++i) {
      double x = (static_cast<double>(i) / kSize * 2.0 - 1.0) * kMaxExp;
      table_[i] = static_cast<float>(1.0 / (1.0 + std::exp(-x)));
    }
  }

  float operator()(float x) const {
    if (x >= kMaxExp) return 1.0f;
    if (x <= -kMaxExp) return 0.0f;
    size_t idx = static_cast<size_t>((x + kMaxExp) / (2.0f * kMaxExp) *
                                     (kSize - 1));
    return table_[idx];
  }

 private:
  static constexpr size_t kSize = 1024;
  static constexpr float kMaxExp = 6.0f;
  float table_[kSize];
};

std::vector<uint32_t> ReferenceNegativeTable(const Vocabulary& vocab) {
  const size_t table_size = 1 << 20;
  std::vector<uint32_t> table;
  double total = 0.0;
  for (uint32_t id = 0; id < vocab.size(); ++id) {
    total += std::pow(static_cast<double>(vocab.CountOf(id)), 0.75);
  }
  double acc = 0.0;
  uint32_t id = 0;
  double share =
      std::pow(static_cast<double>(vocab.CountOf(0)), 0.75) / total;
  for (size_t i = 0; i < table_size; ++i) {
    table.push_back(id);
    double progress = static_cast<double>(i + 1) / table_size;
    if (progress > acc + share && id + 1 < vocab.size()) {
      acc += share;
      ++id;
      share = std::pow(static_cast<double>(vocab.CountOf(id)), 0.75) / total;
    }
  }
  return table;
}

// The reference SGNS trainer: the plain serial loop, which computes each
// sample's dot product only after the previous sample's update. Train
// must reproduce its input vectors bit for bit. Counts in
// `repeated_steps` the (target, context) steps whose samples name one
// output row twice, where a later dot sees an earlier update.
EmbeddingTable ReferenceTrain(
    const Vocabulary& vocab,
    const std::vector<std::vector<uint32_t>>& sentences,
    const std::vector<uint32_t>& negative_table,
    const Word2VecOptions& options, size_t* repeated_steps) {
  const size_t dim = options.dim;
  EmbeddingTable input(vocab.size(), dim);
  EmbeddingTable output(vocab.size(), dim, 0.0f);
  util::Rng init_rng(options.seed);
  for (size_t r = 0; r < vocab.size(); ++r) {
    for (size_t d = 0; d < dim; ++d) {
      input.Row(r)[d] =
          static_cast<float>((init_rng.UniformDouble() - 0.5) / dim);
    }
  }
  std::vector<float> keep_prob(vocab.size(), 1.0f);
  if (options.subsample_threshold > 0.0) {
    for (uint32_t id = 0; id < vocab.size(); ++id) {
      double freq = static_cast<double>(vocab.CountOf(id)) /
                    static_cast<double>(vocab.total_count());
      if (freq > options.subsample_threshold) {
        double keep = std::sqrt(options.subsample_threshold / freq) +
                      options.subsample_threshold / freq;
        keep_prob[id] = static_cast<float>(std::min(1.0, keep));
      }
    }
  }
  const ReferenceSigmoid sigmoid;
  const uint64_t total_updates =
      std::max<uint64_t>(1, options.epochs * sentences.size());
  uint64_t done = 0;
  *repeated_steps = 0;
  std::vector<float> grad(dim);
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    util::Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL ^
                  (epoch * 0x2545f4914f6cdd1dULL));
    for (const auto& sentence : sentences) {
      float lr = static_cast<float>(std::max(
          options.min_learning_rate,
          options.learning_rate *
              (1.0 - static_cast<double>(done++) / total_updates)));
      std::vector<uint32_t> kept;
      for (uint32_t id : sentence) {
        if (vocab.CountOf(id) < options.min_count) continue;
        if (keep_prob[id] >= 1.0f || rng.UniformDouble() < keep_prob[id]) {
          kept.push_back(id);
        }
      }
      if (kept.size() < 2) continue;
      for (size_t pos = 0; pos < kept.size(); ++pos) {
        size_t window = 1 + rng.Uniform(options.window);
        size_t lo = pos >= window ? pos - window : 0;
        size_t hi = std::min(kept.size(), pos + window + 1);
        uint32_t target = kept[pos];
        for (size_t c = lo; c < hi; ++c) {
          if (c == pos) continue;
          float* in = input.Row(kept[c]);
          std::fill(grad.begin(), grad.end(), 0.0f);
          std::vector<uint32_t> used;
          bool repeated = false;
          for (size_t n = 0; n <= options.negative_samples; ++n) {
            uint32_t sample;
            float label;
            if (n == 0) {
              sample = target;
              label = 1.0f;
            } else {
              sample = negative_table[rng.Uniform(negative_table.size())];
              if (sample == target) continue;
              label = 0.0f;
            }
            repeated = repeated || std::find(used.begin(), used.end(),
                                             sample) != used.end();
            used.push_back(sample);
            float* out = output.Row(sample);
            float score = sigmoid(Dot(in, out, dim));
            float g = (label - score) * lr;
            for (size_t d = 0; d < dim; ++d) {
              grad[d] += g * out[d];
              out[d] += g * in[d];
            }
          }
          for (size_t d = 0; d < dim; ++d) in[d] += grad[d];
          if (repeated) ++*repeated_steps;
        }
      }
    }
  }
  return input;
}

// `num_words` words with skewed counts (word w drawn with weight
// 1/(w+1)), in sentences of 2-11 draws.
struct SkewedCorpus {
  Vocabulary vocab;
  std::vector<std::vector<uint32_t>> sentences;
};

SkewedCorpus MakeSkewedCorpus(size_t num_words, size_t num_sentences,
                              uint64_t seed) {
  SkewedCorpus corpus;
  for (size_t w = 0; w < num_words; ++w) {
    corpus.vocab.AddWord(std::to_string(w), 0);
  }
  std::vector<double> weights;
  for (size_t w = 0; w < num_words; ++w) weights.push_back(1.0 / (w + 1));
  util::Rng rng(seed);
  for (size_t s = 0; s < num_sentences; ++s) {
    std::vector<uint32_t> sentence(2 + rng.Uniform(10));
    for (uint32_t& id : sentence) {
      id = static_cast<uint32_t>(rng.Categorical(weights));
      corpus.vocab.AddWord(corpus.vocab.WordOf(id));
    }
    corpus.sentences.push_back(std::move(sentence));
  }
  return corpus;
}

// Trains `corpus` with Train and with ReferenceTrain and counts the
// input-vector floats that differ; adds the reference's repeated-row
// steps to `repeated_steps`.
size_t CountMismatches(const SkewedCorpus& corpus,
                       const std::vector<uint32_t>& negative_table,
                       const Word2VecOptions& options,
                       size_t* repeated_steps) {
  size_t repeated = 0;
  const EmbeddingTable expected = ReferenceTrain(
      corpus.vocab, corpus.sentences, negative_table, options, &repeated);
  *repeated_steps += repeated;
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, options);
  EXPECT_TRUE(model.ok());
  if (!model.ok()) return 1;
  size_t mismatches = 0;
  for (uint32_t r = 0; r < corpus.vocab.size(); ++r) {
    for (size_t d = 0; d < options.dim; ++d) {
      if (model->vectors().Row(r)[d] != expected.Row(r)[d]) ++mismatches;
    }
  }
  return mismatches;
}

TEST(Word2VecTest, TrainMatchesReferenceBitForBit) {
  struct Sampling {
    double subsample_threshold;
    uint64_t min_count;
  };
  const Sampling samplings[] = {{0.0, 1}, {0.02, 1}, {0.02, 4}};
  // A 60-word corpus, and a 3-word one where negatives often repeat a
  // row or hit the target.
  const SkewedCorpus corpora[] = {MakeSkewedCorpus(60, 120, 5),
                                  MakeSkewedCorpus(3, 40, 6)};
  for (size_t corpus_index = 0; corpus_index < 2; ++corpus_index) {
    const SkewedCorpus& corpus = corpora[corpus_index];
    const std::vector<uint32_t> negative_table =
        ReferenceNegativeTable(corpus.vocab);
    size_t repeated_steps = 0;
    for (size_t dim : {1, 3, 16, 32, 33}) {
      for (size_t negatives : {0, 1, 5, 12}) {
        for (const Sampling& sampling : samplings) {
          Word2VecOptions options;
          options.dim = dim;
          options.negative_samples = negatives;
          options.subsample_threshold = sampling.subsample_threshold;
          options.min_count = sampling.min_count;
          options.epochs = 2;
          options.window = 3;
          options.seed = 41 + dim + negatives;
          EXPECT_EQ(CountMismatches(corpus, negative_table, options,
                                    &repeated_steps),
                    0u)
              << "corpus " << corpus_index << " dim " << dim << " negatives "
              << negatives << " subsample " << sampling.subsample_threshold
              << " min_count " << sampling.min_count;
        }
      }
    }
    // The fallback for repeated rows must have run.
    if (corpus_index == 1) {
      EXPECT_GT(repeated_steps, 0u);
    }
  }
  // Two short epochs keep every dot near 0, where the sigmoid table's
  // bins absorb a change in one dot's rounding. Long training at a high
  // rate pushes the dots to O(1), where such a change moves a bin and
  // shows in the vectors.
  const std::vector<uint32_t> negative_table =
      ReferenceNegativeTable(corpora[0].vocab);
  for (size_t dim : {16, 33}) {
    Word2VecOptions options;
    options.dim = dim;
    options.epochs = 30;
    options.learning_rate = 0.2;
    options.subsample_threshold = 0.0;
    size_t repeated_steps = 0;
    EXPECT_EQ(
        CountMismatches(corpora[0], negative_table, options, &repeated_steps),
        0u)
        << "long training, dim " << dim;
  }
}

TEST(Word2VecTest, RejectsEmptyVocabulary) {
  Vocabulary vocab;
  auto model = Word2Vec::Train(vocab, {}, FastOptions());
  EXPECT_FALSE(model.ok());
}

TEST(Word2VecTest, RejectsZeroDimension) {
  Vocabulary vocab;
  vocab.AddWord("x");
  Word2VecOptions options = FastOptions();
  options.dim = 0;
  EXPECT_FALSE(Word2Vec::Train(vocab, {{0}}, options).ok());
}

TEST(Word2VecTest, RejectsZeroWindow) {
  Vocabulary vocab;
  vocab.AddWord("x", 3);
  vocab.AddWord("y", 3);
  Word2VecOptions options = FastOptions();
  options.window = 0;
  options.subsample_threshold = 0.0;
  EXPECT_FALSE(Word2Vec::Train(vocab, {{0, 1, 0, 1}}, options).ok());
}

TEST(Word2VecTest, RejectsOutOfVocabIds) {
  Vocabulary vocab;
  vocab.AddWord("x");
  EXPECT_FALSE(Word2Vec::Train(vocab, {{5}}, FastOptions()).ok());
}

TEST(Word2VecTest, ProducesRequestedShape) {
  auto corpus = MakeTwoTopicCorpus(20);
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->vectors().rows(), corpus.vocab.size());
  EXPECT_EQ(model->dim(), 16u);
}

TEST(Word2VecTest, SeparatesTopicalGroups) {
  auto corpus = MakeTwoTopicCorpus();
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, FastOptions());
  ASSERT_TRUE(model.ok());
  // Mean within-group similarity must exceed mean cross-group similarity.
  double within = 0.0;
  int within_n = 0;
  double cross = 0.0;
  int cross_n = 0;
  for (uint32_t a : corpus.group_a) {
    for (uint32_t a2 : corpus.group_a) {
      if (a < a2) {
        within += model->Similarity(a, a2);
        ++within_n;
      }
    }
    for (uint32_t b : corpus.group_b) {
      cross += model->Similarity(a, b);
      ++cross_n;
    }
  }
  within /= within_n;
  cross /= cross_n;
  EXPECT_GT(within, cross + 0.2)
      << "within=" << within << " cross=" << cross;
}

TEST(Word2VecTest, DeterministicSingleThread) {
  auto corpus = MakeTwoTopicCorpus(50);
  Word2VecOptions options = FastOptions();
  auto m1 = Word2Vec::Train(corpus.vocab, corpus.sentences, options);
  auto m2 = Word2Vec::Train(corpus.vocab, corpus.sentences, options);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  for (uint32_t r = 0; r < m1->vectors().rows(); ++r) {
    for (size_t d = 0; d < m1->dim(); ++d) {
      EXPECT_EQ(m1->vectors().Row(r)[d], m2->vectors().Row(r)[d]);
    }
  }
}

TEST(Word2VecTest, MostSimilarPrefersSameGroup) {
  auto corpus = MakeTwoTopicCorpus();
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, FastOptions());
  ASSERT_TRUE(model.ok());
  auto nearest = model->MostSimilar(corpus.group_a[0], 3);
  ASSERT_EQ(nearest.size(), 3u);
  // All 3 nearest neighbours of a group-A word are the other group-A words.
  for (const auto& [id, sim] : nearest) {
    (void)sim;
    bool in_a = false;
    for (uint32_t a : corpus.group_a) in_a = in_a || id == a;
    EXPECT_TRUE(in_a) << "unexpected neighbour " << corpus.vocab.WordOf(id);
  }
}

TEST(Word2VecTest, MostSimilarBoundsK) {
  auto corpus = MakeTwoTopicCorpus(10);
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->MostSimilar(0, 100).size(), corpus.vocab.size() - 1);
  EXPECT_TRUE(model->MostSimilar(9999, 5).empty());
}

TEST(Word2VecTest, SimilarityOutOfRangeIsZero) {
  auto corpus = MakeTwoTopicCorpus(10);
  auto model = Word2Vec::Train(corpus.vocab, corpus.sentences, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Similarity(0, 10000), 0.0f);
}

}  // namespace
}  // namespace shoal::text
