#ifndef SHOAL_TEXT_WORD2VEC_H_
#define SHOAL_TEXT_WORD2VEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/embedding.h"
#include "text/vocabulary.h"
#include "util/result.h"

namespace shoal::text {

// Skip-gram with negative sampling (SGNS) word2vec, trained with serial
// SGD, so the vectors are a deterministic function of the corpus, the
// vocabulary and the options. The paper uses word2vec vectors of title
// tokens as input to the content-driven similarity (Eq. 2); this is a
// from-scratch substitute for the production embeddings.
struct Word2VecOptions {
  size_t dim = 32;
  size_t window = 4;            // max context window (sampled per target)
  size_t negative_samples = 5;
  size_t epochs = 3;
  double learning_rate = 0.025;
  double min_learning_rate = 1e-4;
  double subsample_threshold = 1e-3;  // frequent-word subsampling `t`
  uint64_t min_count = 1;             // drop words rarer than this
  uint64_t seed = 7;
};

// Slots of the negative-sampling table. A power of two, so drawing a
// slot (`rng.Uniform(kNegativeTableSize)`) is `Next()` under a mask.
inline constexpr size_t kNegativeTableSize = size_t{1} << 20;

// Negative sampling over the unigram distribution raised to 3/4.
// word2vec's reference implementation materialises a
// kNegativeTableSize-slot table (4 MB) in one pass that advances at most
// one word per slot; WordAt(s) returns the word that table holds at slot
// s without building it. The pass runs unchanged, but records only where
// each word starts and which word owns the first slot of every 256-slot
// bucket: (V + 1) * 4 bytes plus 16 KB, small enough to stay in cache
// while Train draws from it.
class NegativeSampler {
 public:
  // At least one word of `vocab` must have a positive count.
  explicit NegativeSampler(const Vocabulary& vocab);

  // `slot` < kNegativeTableSize. Walks forward from the bucket's first
  // word past every word that starts at or before `slot`.
  uint32_t WordAt(uint64_t slot) const {
    uint32_t word = bucket_word_[slot >> kBucketBits];
    while (first_slot_[word + 1] <= slot) ++word;
    return word;
  }

 private:
  static constexpr int kBucketBits = 8;

  // first_slot_[w] is the first slot holding word w, or
  // kNegativeTableSize when the pass never reaches w; the entry after
  // the last word is kNegativeTableSize, so every walk stops.
  std::vector<uint32_t> first_slot_;
  // bucket_word_[b] is the word at slot b << kBucketBits.
  std::vector<uint32_t> bucket_word_;
};

class Word2Vec {
 public:
  // `sentences` hold word ids from `vocab`. The vocabulary must outlive
  // this call only (frequencies are copied).
  static util::Result<Word2Vec> Train(
      const Vocabulary& vocab,
      const std::vector<std::vector<uint32_t>>& sentences,
      const Word2VecOptions& options);

  const EmbeddingTable& vectors() const { return input_vectors_; }
  size_t dim() const { return input_vectors_.dim(); }

  // Cosine similarity between two word ids (input vectors).
  float Similarity(uint32_t a, uint32_t b) const;

  // Top-k most similar words to `word_id`, excluding itself.
  std::vector<std::pair<uint32_t, float>> MostSimilar(uint32_t word_id,
                                                      size_t k) const;

 private:
  Word2Vec() = default;

  EmbeddingTable input_vectors_;
};

}  // namespace shoal::text

#endif  // SHOAL_TEXT_WORD2VEC_H_
