#include "core/topic_describer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/trace.h"
#include "util/string_util.h"

namespace shoal::core {

namespace {

// Stable-softmax denominator pieces of one query over every topic.
struct Softmax {
  double max_rel = 0.0;
  double sum_exp = 0.0;  // exp(0 - max_rel) + sum_t exp(rel_t - max_rel)
};

Softmax QuerySoftmax(const text::Bm25Index& bm25,
                     const std::vector<uint32_t>& query_words) {
  const std::vector<text::Bm25Index::DocScore> matches =
      bm25.ScoreMatching(query_words);
  Softmax softmax;
  for (const auto& m : matches) {
    softmax.max_rel = std::max(softmax.max_rel, m.score);
  }
  // A topic sharing no word with the query scores 0 and adds exactly
  // exp(0 - max), the same value as the "1 +" term. The terms are added
  // one per topic in doc order, as a dense loop over every topic would,
  // so the sum is bit-identical to that loop's.
  const double zero_term = std::exp(0.0 - softmax.max_rel);
  softmax.sum_exp = zero_term;
  uint32_t doc = 0;
  for (const auto& m : matches) {
    for (; doc < m.doc; ++doc) softmax.sum_exp += zero_term;
    softmax.sum_exp += std::exp(m.score - softmax.max_rel);
    ++doc;
  }
  for (; doc < bm25.num_documents(); ++doc) softmax.sum_exp += zero_term;
  return softmax;
}

// Shared body of Describe / DescribeTopics. Every topic's pseudo-document
// enters the BM25 corpus (doc id == topic id); only `score_topics` are
// scored and rewritten.
util::Result<std::vector<std::vector<ScoredQuery>>> DescribeImpl(
    Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options,
    const std::vector<uint32_t>& score_topics) {
  if (input.taxonomy != nullptr && input.taxonomy != &taxonomy) {
    return util::Status::InvalidArgument(
        "DescriberInput.taxonomy must match the taxonomy argument");
  }
  if (input.query_item_graph == nullptr || input.query_words == nullptr ||
      input.query_texts == nullptr || input.entity_title_words == nullptr) {
    return util::Status::InvalidArgument("DescriberInput has null fields");
  }
  const auto& qi = *input.query_item_graph;
  const auto& query_words = *input.query_words;
  const auto& query_texts = *input.query_texts;
  const auto& titles = *input.entity_title_words;
  if (query_words.size() != qi.num_left() ||
      query_texts.size() != qi.num_left()) {
    return util::Status::InvalidArgument(
        "query metadata does not match bipartite graph");
  }
  if (titles.size() != qi.num_right()) {
    return util::Status::InvalidArgument(
        "entity titles do not match bipartite graph");
  }

  // Reject a bad id before any description is rewritten.
  for (uint32_t t : score_topics) {
    if (t >= taxonomy.num_topics()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "topic %u is out of range (taxonomy has %zu topics)", t,
          taxonomy.num_topics()));
    }
  }

  // Pseudo-document D_t per topic, and the BM25 index.
  text::Bm25Index bm25(options.bm25);
  size_t word_span = 0;  // 1 + the largest word id of any D_t
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    std::vector<uint32_t> doc;
    for (uint32_t e : taxonomy.topic(t).entities) {
      doc.insert(doc.end(), titles[e].begin(), titles[e].end());
    }
    for (uint32_t w : doc) word_span = std::max(word_span, size_t{w} + 1);
    bm25.AddDocument(doc);
  }

  // Softmax normaliser of every query linked to a scored topic's items,
  // one sparse BM25 pass each.
  std::vector<char> linked(qi.num_left(), 0);
  for (uint32_t t : score_topics) {
    for (uint32_t e : taxonomy.topic(t).entities) {
      for (const auto& link : qi.RightNeighbors(e)) linked[link.id] = 1;
    }
  }
  std::vector<Softmax> softmax(qi.num_left());
  for (uint32_t q = 0; q < qi.num_left(); ++q) {
    if (linked[q]) softmax[q] = QuerySoftmax(bm25, query_words[q]);
  }

  // Per-topic interaction counts, tf(q, I_t) and tf(I_t), and D_t's word
  // counts, in dense arrays cleared after each topic. Candidates are the
  // queries actually linked to the topic's items; the ranking's sort is a
  // total order, so the order they are visited in moves no byte.
  std::vector<uint64_t> tf_q(qi.num_left(), 0);  // query -> interactions
  std::vector<uint32_t> topic_queries;            // queries with tf_q > 0
  std::vector<uint32_t> doc_tf(word_span, 0);     // word -> tf(w, D_t)
  std::vector<uint32_t> doc_words;                // words with doc_tf > 0
  std::vector<std::vector<ScoredQuery>> rankings(taxonomy.num_topics());
  for (uint32_t t : score_topics) {
    Topic& topic = taxonomy.topic(t);
    // A scored topic without clicks ends with an empty description.
    topic.description.clear();
    uint64_t tf_total = 0;
    for (uint32_t e : topic.entities) {
      // Every link count is > 0 (BipartiteGraph rejects 0), so a zero
      // counter marks a query not yet seen in this topic.
      for (const auto& link : qi.RightNeighbors(e)) {
        if (tf_q[link.id] == 0) topic_queries.push_back(link.id);
        tf_q[link.id] += link.count;
        tf_total += link.count;
      }
    }
    if (tf_total == 0) continue;
    const double log_tf_total =
        std::log(static_cast<double>(tf_total) + 1.0);
    for (uint32_t e : topic.entities) {
      for (uint32_t w : titles[e]) {
        if (doc_tf[w]++ == 0) doc_words.push_back(w);
      }
    }

    auto& ranking = rankings[t];
    ranking.reserve(topic_queries.size());
    for (uint32_t q : topic_queries) {
      const uint64_t tf = tf_q[q];
      tf_q[q] = 0;
      // Popularity: log-normalised frequency of q within the topic.
      double pop = (std::log(static_cast<double>(tf)) + 1.0) / log_tf_total;
      pop = std::clamp(pop, 0.0, 1.0);

      // Concentration: stable softmax of BM25 relevance over all topics,
      // with the paper's +1 term carried as exp(0 - max).
      const Softmax& query_softmax = softmax[q];
      double rel_t = bm25.ScoreDocument(query_words[q], t, doc_tf);
      double con =
          std::exp(rel_t - query_softmax.max_rel) / query_softmax.sum_exp;

      ScoredQuery scored;
      scored.query = q;
      scored.popularity = pop;
      scored.concentration = con;
      scored.representativeness = std::sqrt(pop * con);
      ranking.push_back(scored);
    }
    topic_queries.clear();
    for (uint32_t w : doc_words) doc_tf[w] = 0;
    doc_words.clear();
    std::sort(ranking.begin(), ranking.end(),
              [](const ScoredQuery& a, const ScoredQuery& b) {
                if (a.representativeness != b.representativeness) {
                  return a.representativeness > b.representativeness;
                }
                return a.query < b.query;
              });

    for (size_t i = 0;
         i < std::min(options.queries_per_topic, ranking.size()); ++i) {
      topic.description.push_back(query_texts[ranking[i].query]);
    }
  }
  return rankings;
}

std::vector<uint32_t> AllTopicIds(const Taxonomy& taxonomy) {
  std::vector<uint32_t> topic_ids(taxonomy.num_topics());
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) topic_ids[t] = t;
  return topic_ids;
}

}  // namespace

util::Result<const TopicRankings*> TopicDescriber::Describe(
    Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options) {
  obs::ScopedSpan span("shoal.describe");
  auto stored = std::make_shared<TopicRankings>();
  stored->options = options;
  SHOAL_ASSIGN_OR_RETURN(
      stored->by_topic,
      DescribeImpl(taxonomy, input, options, AllTopicIds(taxonomy)));
  taxonomy.rankings_ = stored;
  return stored.get();
}

util::Result<std::vector<std::vector<ScoredQuery>>>
TopicDescriber::DescribeTopics(Taxonomy& taxonomy,
                               const DescriberInput& input,
                               const DescriberOptions& options,
                               const std::vector<uint32_t>& topics_to_score) {
  auto rankings = DescribeImpl(taxonomy, input, options, topics_to_score);
  if (rankings.ok()) taxonomy.rankings_.reset();
  return rankings;
}

}  // namespace shoal::core
