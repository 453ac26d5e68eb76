#ifndef SHOAL_CORE_QUERY_SEARCH_H_
#define SHOAL_CORE_QUERY_SEARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "text/bm25.h"
#include "text/vocabulary.h"
#include "util/result.h"

namespace shoal::core {

// Query -> topic retrieval backing the demo's scenario (A): free-text
// queries are matched against per-topic pseudo-documents (concatenated
// member titles plus the topic's representative queries) with BM25.
class QueryTopicIndex {
 public:
  // Every topic is indexed, so sub-topics are searchable too (scenario
  // (B)).
  struct Options {
    text::Bm25Index::Options bm25;
  };

  // `vocab` must be the vocabulary the title/query word ids refer to;
  // it is retained by pointer and must outlive the index.
  static util::Result<QueryTopicIndex> Build(
      const Taxonomy& taxonomy,
      const std::vector<std::vector<uint32_t>>& entity_title_words,
      const text::Vocabulary* vocab, const Options& options);

  struct Hit {
    uint32_t topic = kNoTopic;
    double score = 0.0;
  };

  // Top-k topics for a free-text query. Unknown words are ignored; a
  // query with no known words returns an empty list.
  std::vector<Hit> Search(const std::string& query_text, size_t k) const;

 private:
  QueryTopicIndex() = default;

  text::Bm25Index bm25_;  // doc id == topic id
  const text::Vocabulary* vocab_ = nullptr;
};

}  // namespace shoal::core

#endif  // SHOAL_CORE_QUERY_SEARCH_H_
