#ifndef SHOAL_TEXT_WORD2VEC_H_
#define SHOAL_TEXT_WORD2VEC_H_

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
