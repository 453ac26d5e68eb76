#include "core/query_search.h"

#include <algorithm>

#include "text/normalize.h"
#include "text/tokenizer.h"

namespace shoal::core {

util::Result<QueryTopicIndex> QueryTopicIndex::Build(
    const Taxonomy& taxonomy,
    const std::vector<std::vector<uint32_t>>& entity_title_words,
    const text::Vocabulary* vocab, const Options& options) {
  if (vocab == nullptr) {
    return util::Status::InvalidArgument("vocab must not be null");
  }
  QueryTopicIndex index;
  index.vocab_ = vocab;
  index.bm25_ = text::Bm25Index(options.bm25);

  // One BM25 document per topic, in topic order: doc id == topic id.
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    const Topic& topic = taxonomy.topic(t);
    std::vector<uint32_t> doc;
    for (uint32_t e : topic.entities) {
      if (e >= entity_title_words.size()) {
        return util::Status::OutOfRange("entity without title words");
      }
      doc.insert(doc.end(), entity_title_words[e].begin(),
                 entity_title_words[e].end());
    }
    // Fold the topic's representative queries in as well; they are the
    // most intent-bearing text attached to the topic.
    for (const std::string& desc : topic.description) {
      for (const std::string& token : text::Tokenize(desc)) {
        uint32_t id = vocab->Lookup(token);
        if (id != text::kUnknownWord) doc.push_back(id);
      }
    }
    index.bm25_.AddDocument(doc);
  }
  return index;
}

std::vector<QueryTopicIndex::Hit> QueryTopicIndex::Search(
    const std::string& query_text, size_t k) const {
  // Serve-time queries go through the same NormalizeQuery entry point as
  // offline index compilation (see text/normalize.h) so both sides agree
  // on token boundaries and casing.
  std::vector<uint32_t> words;
  for (const std::string& token : text::NormalizeQueryTokens(query_text)) {
    uint32_t id = vocab_->Lookup(token);
    if (id != text::kUnknownWord) words.push_back(id);
  }
  std::vector<Hit> hits;
  if (words.empty()) return hits;
  for (const auto& match : bm25_.ScoreMatching(words)) {
    if (match.score > 0.0) hits.push_back(Hit{match.doc, match.score});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.topic < b.topic;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

}  // namespace shoal::core
