#ifndef SHOAL_TEXT_BM25_H_
#define SHOAL_TEXT_BM25_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace shoal::text {

// Okapi BM25 index over a small set of documents (the per-topic pseudo
// documents of Sec 2.3). Documents are bags of word ids.
//
//   score(q, D) = sum_{w in q} idf(w) * tf(w,D)*(k1+1) /
//                 (tf(w,D) + k1*(1 - b + b*|D|/avgdl))
class Bm25Index {
 public:
  struct Options {
    double k1 = 1.2;
    double b = 0.75;

    bool operator==(const Options&) const = default;
  };

  // One document's relevance to a query.
  struct DocScore {
    uint32_t doc = 0;
    double score = 0.0;
  };

  Bm25Index() : Bm25Index(Options{}) {}
  explicit Bm25Index(Options options);

  // Adds a document and returns its id.
  uint32_t AddDocument(const std::vector<uint32_t>& word_ids);

  size_t num_documents() const { return doc_lengths_.size(); }

  // BM25 relevance of the query (bag of word ids) to one document. The
  // reference the other scorers are checked against.
  double Score(const std::vector<uint32_t>& query_word_ids,
               uint32_t doc_id) const;

  // Score(query_word_ids, doc_id), given that document's term counts:
  // doc_tf[w] is tf(w, D) for w < doc_tf.size() and 0 beyond. Adds the
  // same per-word terms in query order, so the result is bit-identical,
  // without a posting-list search per query word.
  double ScoreDocument(const std::vector<uint32_t>& query_word_ids,
                       uint32_t doc_id,
                       const std::vector<uint32_t>& doc_tf) const;

  // Scores the query against the documents that share at least one word
  // with it, ascending by doc id; every other document scores exactly 0.
  // Each score is bit-identical to Score(query_word_ids, doc): both add
  // the per-word terms in query order.
  std::vector<DocScore> ScoreMatching(
      const std::vector<uint32_t>& query_word_ids) const;

 private:
  struct Posting {
    uint32_t doc;
    uint32_t tf;
  };

  double Idf(size_t df) const;
  double AvgDocLength() const;
  // k1 * (1 - b + b*|D|/avgdl).
  double LengthNorm(uint32_t doc_id, double avgdl) const;
  double TermScore(double idf, double tf, double norm) const;

  Options options_;
  // word id -> postings ascending by doc id (documents are appended in id
  // order); df(w) is the list length.
  std::unordered_map<uint32_t, std::vector<Posting>> postings_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_length_ = 0;
};

}  // namespace shoal::text

#endif  // SHOAL_TEXT_BM25_H_
