#ifndef SHOAL_CORE_TOPIC_DESCRIBER_H_
#define SHOAL_CORE_TOPIC_DESCRIBER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/taxonomy.h"
#include "graph/bipartite_graph.h"
#include "text/bm25.h"
#include "util/result.h"

namespace shoal::core {

// Topic description matching (Sec 2.3): tags every topic with its most
// representative queries. For query q and topic t,
//
//   r(q, t)   = sqrt(pop(q, t) * con(q, t))
//   pop(q, t) = (log tf(q, I_t) + 1) / log tf(I_t)
//   con(q, t) = exp(rel(q, D_t)) / (1 + sum_j exp(rel(q, D_j)))
//
// where I_t are the topic's items, tf counts query-item interactions in
// the bipartite graph, D_t is the pseudo-document concatenating the
// titles of I_t, and rel is BM25. The softmax is evaluated in a
// numerically stable form (equivalent up to the paper's "+1" term, which
// is kept by carrying exp(-max) explicitly).
struct DescriberOptions {
  size_t queries_per_topic = 5;
  text::Bm25Index::Options bm25;

  bool operator==(const DescriberOptions&) const = default;
};

struct DescriberInput {
  const Taxonomy* taxonomy = nullptr;
  const graph::BipartiteGraph* query_item_graph = nullptr;
  // Word-id form of each query / entity title (vocab-aligned).
  const std::vector<std::vector<uint32_t>>* query_words = nullptr;
  const std::vector<std::string>* query_texts = nullptr;
  const std::vector<std::vector<uint32_t>>* entity_title_words = nullptr;
};

struct ScoredQuery {
  uint32_t query = 0;
  double representativeness = 0.0;
  double popularity = 0.0;
  double concentration = 0.0;
};

// What one full Describe pass computed, kept on the taxonomy it
// described (Taxonomy::rankings()).
struct TopicRankings {
  DescriberOptions options;
  // One entry per topic id: every query linked to the topic's items,
  // best first.
  std::vector<std::vector<ScoredQuery>> by_topic;
};

class TopicDescriber {
 public:
  // Scores queries for every topic and writes the top
  // `queries_per_topic` query texts into taxonomy.topic(t).description.
  // The full per-topic rankings, with `options`, are stored on the
  // taxonomy (Taxonomy::rankings(), which CompileServingIndex reads).
  // The returned pointer is that same block; it lives as long as the
  // taxonomy, or a copy of it, holds the block.
  static util::Result<const TopicRankings*> Describe(
      Taxonomy& taxonomy, const DescriberInput& input,
      const DescriberOptions& options);

  // Incremental form: every topic's pseudo-document still enters the
  // BM25 corpus (the Sec 2.3 concentration softmax is global — con of a
  // scored topic is exact under the full corpus), but only
  // `topics_to_score` are scored and have their descriptions rewritten.
  // Rankings of unscored topics come back empty; their descriptions are
  // left untouched (the daemon carries them over from the previous
  // cycle). A partial pass is not a full ranking set, so it clears the
  // taxonomy's stored rankings. Out-of-range ids are InvalidArgument.
  static util::Result<std::vector<std::vector<ScoredQuery>>> DescribeTopics(
      Taxonomy& taxonomy, const DescriberInput& input,
      const DescriberOptions& options,
      const std::vector<uint32_t>& topics_to_score);
};

}  // namespace shoal::core

#endif  // SHOAL_CORE_TOPIC_DESCRIBER_H_
