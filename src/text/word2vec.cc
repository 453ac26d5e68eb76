#include "text/word2vec.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace shoal::text {

namespace {

// Precomputed sigmoid table, as in the reference word2vec implementation.
class SigmoidTable {
 public:
  SigmoidTable() {
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

const SigmoidTable& Sigmoid() {
  static const SigmoidTable* table = new SigmoidTable();
  return *table;
}

// dots[k] = Dot(in, rows[k], dim) for each of N rows, bit for bit: every
// sum runs over d ascending in its own accumulator, and the N independent
// chains share one pass over `in`.
template <size_t N>
void DotBlock(const float* in, float* const* rows, size_t dim, float* dots) {
  float acc[N] = {};
  for (size_t d = 0; d < dim; ++d) {
    for (size_t k = 0; k < N; ++k) acc[k] += in[d] * rows[k][d];
  }
  for (size_t k = 0; k < N; ++k) dots[k] = acc[k];
}

void BatchDot(const float* in, float* const* rows, size_t n, size_t dim,
              float* dots) {
  size_t k = 0;
  for (; k + 4 <= n; k += 4) DotBlock<4>(in, rows + k, dim, dots + k);
  switch (n - k) {
    case 3: DotBlock<3>(in, rows + k, dim, dots + k); break;
    case 2: DotBlock<2>(in, rows + k, dim, dots + k); break;
    case 1: DotBlock<1>(in, rows + k, dim, dots + k); break;
    default: break;
  }
}

// One sample's SGD step: grad += g * out, then out += g * in, elementwise,
// so the gradient takes the output row from before its update.
void ApplySample(float g, const float* __restrict in, float* __restrict out,
                 float* __restrict grad, size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    grad[d] += g * out[d];
    out[d] += g * in[d];
  }
}

}  // namespace

NegativeSampler::NegativeSampler(const Vocabulary& vocab)
    : first_slot_(vocab.size() + 1,
                  static_cast<uint32_t>(kNegativeTableSize)),
      bucket_word_(kNegativeTableSize >> kBucketBits) {
  double total = 0.0;
  for (uint32_t id = 0; id < vocab.size(); ++id) {
    total += std::pow(static_cast<double>(vocab.CountOf(id)), 0.75);
  }
  // The table's fill loop, in the same double arithmetic: slot i holds
  // `id`, and the word after it starts at slot i + 1 (at the end of the
  // table when i is its last slot).
  constexpr size_t kBucketMask = (size_t{1} << kBucketBits) - 1;
  double acc = 0.0;
  uint32_t id = 0;
  double share =
      std::pow(static_cast<double>(vocab.CountOf(0)), 0.75) / total;
  first_slot_[0] = 0;
  for (size_t i = 0; i < kNegativeTableSize; ++i) {
    if ((i & kBucketMask) == 0) bucket_word_[i >> kBucketBits] = id;
    double progress = static_cast<double>(i + 1) / kNegativeTableSize;
    if (progress > acc + share && id + 1 < vocab.size()) {
      acc += share;
      ++id;
      share = std::pow(static_cast<double>(vocab.CountOf(id)), 0.75) / total;
      first_slot_[id] = static_cast<uint32_t>(i + 1);
    }
  }
}

util::Result<Word2Vec> Word2Vec::Train(
    const Vocabulary& vocab,
    const std::vector<std::vector<uint32_t>>& sentences,
    const Word2VecOptions& options) {
  if (vocab.size() == 0) {
    return util::Status::InvalidArgument("empty vocabulary");
  }
  if (vocab.total_count() == 0) {
    return util::Status::InvalidArgument(
        "no vocabulary word has a positive count to draw negatives from");
  }
  if (options.dim == 0) {
    return util::Status::InvalidArgument("embedding dim must be > 0");
  }
  if (options.window == 0) {
    return util::Status::InvalidArgument("context window must be > 0");
  }
  for (const auto& sentence : sentences) {
    for (uint32_t id : sentence) {
      if (id >= vocab.size()) {
        return util::Status::OutOfRange("sentence word id outside vocab");
      }
    }
  }

  Word2Vec model;
  const size_t vocab_size = vocab.size();
  const size_t dim = options.dim;
  model.input_vectors_ = EmbeddingTable(vocab_size, dim);
  EmbeddingTable output_vectors(vocab_size, dim, 0.0f);

  // Standard word2vec init: inputs uniform in [-0.5/dim, 0.5/dim].
  {
    util::Rng rng(options.seed);
    for (size_t r = 0; r < vocab_size; ++r) {
      float* row = model.input_vectors_.Row(r);
      for (size_t d = 0; d < dim; ++d) {
        row[d] = static_cast<float>((rng.UniformDouble() - 0.5) / dim);
      }
    }
  }

  const NegativeSampler sampler(vocab);

  // Frequent-word subsampling keep-probability (Mikolov et al. 2013).
  std::vector<float> keep_prob(vocab_size, 1.0f);
  if (options.subsample_threshold > 0.0 && vocab.total_count() > 0) {
    for (uint32_t id = 0; id < vocab_size; ++id) {
      double freq = static_cast<double>(vocab.CountOf(id)) /
                    static_cast<double>(vocab.total_count());
      if (freq > options.subsample_threshold) {
        double keep = std::sqrt(options.subsample_threshold / freq) +
                      options.subsample_threshold / freq;
        keep_prob[id] = static_cast<float>(std::min(1.0, keep));
      }
    }
  }

  const SigmoidTable& sigmoid = Sigmoid();
  const uint64_t total_updates =
      std::max<uint64_t>(1, options.epochs * sentences.size());
  uint64_t done = 0;
  std::vector<uint32_t> kept;
  std::vector<float> grad(dim);
  // The output rows of one (target, context) step: the target first,
  // then the negatives it keeps, with their dot products.
  std::vector<float*> rows(options.negative_samples + 1);
  std::vector<float> dots(options.negative_samples + 1);
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    util::Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL ^
                  (epoch * 0x2545f4914f6cdd1dULL));
    for (const auto& sentence : sentences) {
      float lr = static_cast<float>(std::max(
          options.min_learning_rate,
          options.learning_rate *
              (1.0 - static_cast<double>(done++) / total_updates)));

      // Subsampled view of the sentence.
      kept.clear();
      for (uint32_t id : sentence) {
        if (vocab.CountOf(id) < options.min_count) continue;
        if (keep_prob[id] >= 1.0f ||
            rng.UniformDouble() < keep_prob[id]) {
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
          // Every draw of the step comes first; none depends on a score.
          size_t num_samples = 0;
          bool distinct = true;
          rows[num_samples++] = output_vectors.Row(target);
          for (size_t n = 0; n < options.negative_samples; ++n) {
            uint32_t sample = sampler.WordAt(rng.Uniform(kNegativeTableSize));
            if (sample == target) continue;
            float* row = output_vectors.Row(sample);
            for (size_t k = 1; k < num_samples; ++k) {
              distinct = distinct && rows[k] != row;
            }
            rows[num_samples++] = row;
          }
          // A row drawn twice must show its first update to its second
          // dot product, so only distinct rows take their dots up front.
          float* in = model.input_vectors_.Row(kept[c]);
          if (distinct) {
            BatchDot(in, rows.data(), num_samples, dim, dots.data());
          }
          std::fill(grad.begin(), grad.end(), 0.0f);
          for (size_t k = 0; k < num_samples; ++k) {
            const float dot = distinct ? dots[k] : Dot(in, rows[k], dim);
            const float label = k == 0 ? 1.0f : 0.0f;
            const float g = (label - sigmoid(dot)) * lr;
            ApplySample(g, in, rows[k], grad.data(), dim);
          }
          for (size_t d = 0; d < dim; ++d) in[d] += grad[d];
        }
      }
    }
  }
  return model;
}

float Word2Vec::Similarity(uint32_t a, uint32_t b) const {
  if (a >= input_vectors_.rows() || b >= input_vectors_.rows()) return 0.0f;
  return Cosine(input_vectors_.Row(a), input_vectors_.Row(b),
                input_vectors_.dim());
}

std::vector<std::pair<uint32_t, float>> Word2Vec::MostSimilar(
    uint32_t word_id, size_t k) const {
  std::vector<std::pair<uint32_t, float>> scored;
  if (word_id >= input_vectors_.rows()) return scored;
  scored.reserve(input_vectors_.rows());
  for (uint32_t other = 0; other < input_vectors_.rows(); ++other) {
    if (other == word_id) continue;
    scored.emplace_back(other, Similarity(word_id, other));
  }
  size_t top = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + top, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  scored.resize(top);
  return scored;
}

}  // namespace shoal::text
