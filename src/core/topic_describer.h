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

// The full per-topic rankings a taxonomy's descriptions were written
// from, kept on that taxonomy (Taxonomy::rankings()).
struct TopicRankings {
  DescriberOptions options;
  // One entry per topic id: every query linked to the topic's items,
  // best first.
  std::vector<std::vector<ScoredQuery>> by_topic;
};

class TopicDescriber {
 public:
  // Scores queries for every topic, then ends in ApplyRankings: the full
  // per-topic rankings, with `options`, become the taxonomy's
  // TopicRankings block (Taxonomy::rankings(), which
  // CompileServingIndex reads) and every description is written from
  // its ranking. The returned pointer is that block; it lives as long
  // as the taxonomy, or a copy of it, holds the block.
  static util::Result<const TopicRankings*> Describe(
      Taxonomy& taxonomy, const DescriberInput& input,
      const DescriberOptions& options);

  // Incremental form: every topic's pseudo-document still enters the
  // BM25 corpus (the Sec 2.3 concentration softmax is global — con of a
  // scored topic is exact under the full corpus), but only
  // `topics_to_score` are scored. `rankings` holds one entry per topic:
  // the caller's rankings for the topics it does not score (the daemon
  // carries them over from the previous cycle); the entries of scored
  // topics are replaced. Ends in ApplyRankings with the full set.
  // Out-of-range ids or a ranking count other than the topic count are
  // InvalidArgument, and nothing changes.
  static util::Result<const TopicRankings*> DescribeTopics(
      Taxonomy& taxonomy, const DescriberInput& input,
      const DescriberOptions& options,
      const std::vector<uint32_t>& topics_to_score,
      std::vector<std::vector<ScoredQuery>> rankings);

  // Stores `rankings` (one entry per topic, best first) with `options`
  // as the taxonomy's TopicRankings block and writes every topic's
  // description: the texts of its top `queries_per_topic` queries in
  // `query_texts`. A ranking count other than the topic count, or a
  // ranked query outside `query_texts`, is InvalidArgument, and nothing
  // changes. The daemon's snapshot restore calls it directly: it has
  // nothing to score.
  static util::Result<const TopicRankings*> ApplyRankings(
      Taxonomy& taxonomy, const std::vector<std::string>& query_texts,
      const DescriberOptions& options,
      std::vector<std::vector<ScoredQuery>> rankings);
};

}  // namespace shoal::core

#endif  // SHOAL_CORE_TOPIC_DESCRIBER_H_
