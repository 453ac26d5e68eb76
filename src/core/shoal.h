#ifndef SHOAL_CORE_SHOAL_H_
#define SHOAL_CORE_SHOAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/category_correlation.h"
#include "core/entity_graph.h"
#include "core/parallel_hac.h"
#include "core/query_search.h"
#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "graph/bipartite_graph.h"
#include "text/vocabulary.h"
#include "text/word2vec.h"
#include "util/json.h"
#include "util/result.h"

namespace shoal::core {

// Everything the SHOAL pipeline consumes, expressed in neutral terms so
// the core library does not depend on the synthetic data generator:
// a query-item bipartite graph plus vocab-aligned text for both sides
// and the ontology category of each entity.
struct ShoalInput {
  const graph::BipartiteGraph* query_item_graph = nullptr;
  const std::vector<std::vector<uint32_t>>* entity_title_words = nullptr;
  const std::vector<uint32_t>* entity_categories = nullptr;
  const std::vector<std::vector<uint32_t>>* query_words = nullptr;
  const std::vector<std::string>* query_texts = nullptr;
  const text::Vocabulary* vocab = nullptr;
};

struct ShoalOptions {
  text::Word2VecOptions word2vec;
  EntityGraphOptions entity_graph;
  ParallelHacOptions hac;
  TaxonomyOptions taxonomy;
  DescriberOptions describer;
  CategoryCorrelationOptions correlation;
  QueryTopicIndex::Options search;
  // One knob for the pipeline's deterministic parallel stages: when
  // > 0, overrides the entity-graph and parallel-HAC thread counts
  // (both produce identical results at any thread count). 0 leaves the
  // per-stage settings untouched. Word2vec always trains serially.
  size_t num_threads = 0;
  // Called once with the freshly built entity graph, before HAC starts.
  // The checkpoint subsystem (src/ckpt) installs a snapshot writer here;
  // a failing hook aborts the build. HAC-round checkpointing is
  // configured separately through hac.checkpoint_hook /
  // hac.checkpoint_every.
  std::function<util::Status(const graph::WeightedGraph&)>
      entity_graph_checkpoint_hook;
};

// Restored pipeline state handed to BuildShoal to skip already-completed
// stages. `entity_graph` (when present) replaces the word2vec +
// entity-graph stages; `hac` (when present) continues or skips HAC.
// Assembled from on-disk snapshots by ckpt::ResumeShoal.
struct ShoalResumeState {
  bool has_entity_graph = false;
  graph::WeightedGraph entity_graph;
  std::optional<HacResumeState> hac;
};

// Pipeline timings and sizes, one entry per stage.
struct ShoalBuildStats {
  double word2vec_seconds = 0.0;
  double entity_graph_seconds = 0.0;
  double hac_seconds = 0.0;
  double taxonomy_seconds = 0.0;
  double describe_seconds = 0.0;
  double correlation_seconds = 0.0;
  EntityGraphStats entity_graph;
  ParallelHacStats hac;
  size_t num_topics = 0;
  size_t num_root_topics = 0;

  // Machine-readable snapshot (nested objects for entity_graph / hac,
  // including the per-round merge trace) so perf trajectories can be
  // diffed across PRs; see bench_scalability and `shoal_cli build
  // --metrics-out`.
  util::JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const;
};

// The built SHOAL artefact: the hierarchical topic taxonomy with
// descriptions, the mined category correlations, and a query->topic
// search index (demo scenario A/B).
class ShoalModel {
 public:
  const Taxonomy& taxonomy() const { return taxonomy_; }
  const CategoryCorrelation& correlations() const { return correlations_; }
  const QueryTopicIndex& search_index() const { return *search_index_; }
  const Dendrogram& dendrogram() const { return *dendrogram_; }
  const graph::WeightedGraph& entity_graph() const { return entity_graph_; }
  const ShoalBuildStats& stats() const { return stats_; }

  // Top-k topics for a free-text query (scenario A).
  std::vector<QueryTopicIndex::Hit> SearchTopics(
      const std::string& query_text, size_t k) const {
    return search_index_->Search(query_text, k);
  }

 private:
  friend util::Result<ShoalModel> BuildShoal(const ShoalInput&,
                                             const ShoalOptions&,
                                             ShoalResumeState*);
  Taxonomy taxonomy_;
  CategoryCorrelation correlations_;
  std::shared_ptr<QueryTopicIndex> search_index_;
  std::shared_ptr<Dendrogram> dendrogram_;
  graph::WeightedGraph entity_graph_;
  ShoalBuildStats stats_;
};

// Runs the full pipeline of Sec 2: word2vec training -> item entity
// graph -> Parallel HAC -> taxonomy extraction -> topic description ->
// category correlation -> search index.
//
// When `resume` is non-null, completed stages recorded in it are skipped
// and HAC continues from the restored round; the restored state is
// consumed (moved from). The downstream stages are deterministic
// functions of the dendrogram, so a resumed build's taxonomy is
// byte-identical to an uninterrupted one's.
util::Result<ShoalModel> BuildShoal(const ShoalInput& input,
                                    const ShoalOptions& options,
                                    ShoalResumeState* resume = nullptr);

}  // namespace shoal::core

#endif  // SHOAL_CORE_SHOAL_H_
