#include "core/topic_describer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/string_util.h"

namespace shoal::core {

namespace {

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

  // Pseudo-document D_t per topic, and the BM25 index.
  text::Bm25Index bm25(options.bm25);
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    std::vector<uint32_t> doc;
    for (uint32_t e : taxonomy.topic(t).entities) {
      doc.insert(doc.end(), titles[e].begin(), titles[e].end());
    }
    bm25.AddDocument(doc);
  }

  // Per-topic interaction counts: tf(q, I_t) and tf(I_t); candidates are
  // the queries actually linked to the topic's items.
  std::vector<std::vector<ScoredQuery>> rankings(taxonomy.num_topics());
  // Cache of the stable-softmax denominator pieces per query.
  struct SoftmaxCache {
    double max_rel = 0.0;
    double sum_exp = 0.0;  // sum over docs of exp(rel - max_rel)
    std::vector<double> rel;
  };
  std::unordered_map<uint32_t, SoftmaxCache> softmax_cache;

  for (uint32_t t : score_topics) {
    if (t >= taxonomy.num_topics()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "topic %u is out of range (taxonomy has %zu topics)", t,
          taxonomy.num_topics()));
    }
    Topic& topic = taxonomy.topic(t);
    std::unordered_map<uint32_t, uint64_t> tf_q;  // query -> interactions
    uint64_t tf_total = 0;
    for (uint32_t e : topic.entities) {
      for (const auto& link : qi.RightNeighbors(e)) {
        tf_q[link.id] += link.count;
        tf_total += link.count;
      }
    }
    if (tf_total == 0) continue;
    const double log_tf_total =
        std::log(static_cast<double>(tf_total) + 1.0);

    auto& ranking = rankings[t];
    ranking.reserve(tf_q.size());
    for (const auto& [q, tf] : tf_q) {
      // Popularity: log-normalised frequency of q within the topic.
      double pop = (std::log(static_cast<double>(tf)) + 1.0) / log_tf_total;
      pop = std::clamp(pop, 0.0, 1.0);

      // Concentration: stable softmax of BM25 relevance over all topics,
      // with the paper's +1 term carried as exp(0 - max).
      auto cache_it = softmax_cache.find(q);
      if (cache_it == softmax_cache.end()) {
        SoftmaxCache cache;
        cache.rel = bm25.ScoreAll(query_words[q]);
        cache.max_rel = 0.0;
        for (double r : cache.rel) cache.max_rel = std::max(cache.max_rel, r);
        cache.sum_exp = std::exp(0.0 - cache.max_rel);  // the "1 +" term
        for (double r : cache.rel) {
          cache.sum_exp += std::exp(r - cache.max_rel);
        }
        cache_it = softmax_cache.emplace(q, std::move(cache)).first;
      }
      const SoftmaxCache& cache = cache_it->second;
      double rel_t = cache.rel[t];
      double con = std::exp(rel_t - cache.max_rel) / cache.sum_exp;

      ScoredQuery scored;
      scored.query = q;
      scored.popularity = pop;
      scored.concentration = con;
      scored.representativeness = std::sqrt(pop * con);
      ranking.push_back(scored);
    }
    std::sort(ranking.begin(), ranking.end(),
              [](const ScoredQuery& a, const ScoredQuery& b) {
                if (a.representativeness != b.representativeness) {
                  return a.representativeness > b.representativeness;
                }
                return a.query < b.query;
              });

    topic.description.clear();
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

util::Result<std::vector<std::vector<ScoredQuery>>> TopicDescriber::Describe(
    Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options) {
  return DescribeImpl(taxonomy, input, options, AllTopicIds(taxonomy));
}

util::Result<std::vector<std::vector<ScoredQuery>>>
TopicDescriber::DescribeTopics(Taxonomy& taxonomy,
                               const DescriberInput& input,
                               const DescriberOptions& options,
                               const std::vector<uint32_t>& topics_to_score) {
  return DescribeImpl(taxonomy, input, options, topics_to_score);
}

}  // namespace shoal::core
