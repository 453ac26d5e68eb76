#include "text/bm25.h"

#include <algorithm>
#include <cmath>

namespace shoal::text {

Bm25Index::Bm25Index(Options options) : options_(options) {}

uint32_t Bm25Index::AddDocument(const std::vector<uint32_t>& word_ids) {
  uint32_t doc_id = static_cast<uint32_t>(doc_lengths_.size());
  doc_lengths_.push_back(static_cast<uint32_t>(word_ids.size()));
  total_length_ += word_ids.size();
  for (uint32_t w : word_ids) {
    std::vector<Posting>& list = postings_[w];
    if (!list.empty() && list.back().doc == doc_id) {
      ++list.back().tf;
    } else {
      list.push_back(Posting{doc_id, 1});
    }
  }
  return doc_id;
}

double Bm25Index::Idf(size_t df) const {
  double n = static_cast<double>(num_documents());
  double d = static_cast<double>(df);
  // BM25+-style floor at 0 avoids negative idf for very common words.
  return std::max(0.0, std::log((n - d + 0.5) / (d + 0.5) + 1.0));
}

double Bm25Index::AvgDocLength() const {
  if (doc_lengths_.empty()) return 0.0;
  return static_cast<double>(total_length_) /
         static_cast<double>(doc_lengths_.size());
}

double Bm25Index::LengthNorm(uint32_t doc_id, double avgdl) const {
  return options_.k1 *
         (1.0 - options_.b + options_.b * doc_lengths_[doc_id] / avgdl);
}

double Bm25Index::TermScore(double idf, double tf, double norm) const {
  return idf * tf * (options_.k1 + 1.0) / (tf + norm);
}

double Bm25Index::Score(const std::vector<uint32_t>& query_word_ids,
                        uint32_t doc_id) const {
  if (doc_id >= num_documents()) return 0.0;
  const double avgdl = AvgDocLength();
  if (avgdl == 0.0) return 0.0;
  const double norm = LengthNorm(doc_id, avgdl);
  double score = 0.0;
  for (uint32_t w : query_word_ids) {
    auto it = postings_.find(w);
    if (it == postings_.end()) continue;
    const std::vector<Posting>& list = it->second;
    auto pit = std::lower_bound(
        list.begin(), list.end(), doc_id,
        [](const Posting& p, uint32_t doc) { return p.doc < doc; });
    if (pit == list.end() || pit->doc != doc_id) continue;
    score += TermScore(Idf(list.size()), static_cast<double>(pit->tf), norm);
  }
  return score;
}

double Bm25Index::ScoreDocument(const std::vector<uint32_t>& query_word_ids,
                                uint32_t doc_id,
                                const std::vector<uint32_t>& doc_tf) const {
  if (doc_id >= num_documents()) return 0.0;
  const double avgdl = AvgDocLength();
  if (avgdl == 0.0) return 0.0;
  const double norm = LengthNorm(doc_id, avgdl);
  double score = 0.0;
  for (uint32_t w : query_word_ids) {
    if (w >= doc_tf.size() || doc_tf[w] == 0) continue;
    auto it = postings_.find(w);
    if (it == postings_.end()) continue;
    score += TermScore(Idf(it->second.size()),
                       static_cast<double>(doc_tf[w]), norm);
  }
  return score;
}

std::vector<Bm25Index::DocScore> Bm25Index::ScoreMatching(
    const std::vector<uint32_t>& query_word_ids) const {
  std::vector<DocScore> scores;
  const double avgdl = AvgDocLength();
  if (avgdl == 0.0) return scores;
  // One cursor per query word occurrence, kept in query order, so every
  // document's terms are added in the order Score() adds them.
  struct Cursor {
    const Posting* next;
    const Posting* end;
    double idf;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(query_word_ids.size());
  for (uint32_t w : query_word_ids) {
    auto it = postings_.find(w);
    if (it == postings_.end()) continue;
    const std::vector<Posting>& list = it->second;
    cursors.push_back(
        Cursor{list.data(), list.data() + list.size(), Idf(list.size())});
  }
  // Document-at-a-time merge of the posting lists.
  const uint32_t no_doc = static_cast<uint32_t>(num_documents());
  while (true) {
    uint32_t doc = no_doc;
    for (const Cursor& c : cursors) {
      if (c.next != c.end) doc = std::min(doc, c.next->doc);
    }
    if (doc == no_doc) break;
    const double norm = LengthNorm(doc, avgdl);
    double score = 0.0;
    for (Cursor& c : cursors) {
      if (c.next == c.end || c.next->doc != doc) continue;
      score += TermScore(c.idf, static_cast<double>(c.next->tf), norm);
      ++c.next;
    }
    scores.push_back(DocScore{doc, score});
  }
  return scores;
}

}  // namespace shoal::text
