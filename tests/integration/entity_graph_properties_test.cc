// Property sweep over the entity-graph builder (Sec 2.1): for a grid of
// alpha / sparsification-threshold / click-density settings, the
// invariants of the similarity graph must hold, and the graph must
// separate planted intents (intra-intent edges heavier than
// cross-intent ones).

#include <gtest/gtest.h>

#include "core/entity_graph.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "text/word2vec.h"

namespace shoal::core {
namespace {

struct GraphCase {
  double alpha;
  double threshold;
  size_t clicks_per_entity;
};

std::string CaseName(const ::testing::TestParamInfo<GraphCase>& info) {
  return "a" + std::to_string(static_cast<int>(info.param.alpha * 100)) +
         "_t" + std::to_string(static_cast<int>(info.param.threshold * 100)) +
         "_c" + std::to_string(info.param.clicks_per_entity);
}

class EntityGraphPropertyTest : public ::testing::TestWithParam<GraphCase> {
 protected:
  static constexpr size_t kEntities = 400;

  // One dataset + word2vec shared across the suite (they do not depend
  // on the swept parameters except click volume, keyed by density).
  struct Shared {
    data::Dataset dataset;
    data::ShoalInputBundle bundle;
    text::EmbeddingTable vectors;
  };

  static const Shared& SharedFor(size_t clicks_per_entity) {
    static std::map<size_t, Shared>* cache = new std::map<size_t, Shared>();
    auto it = cache->find(clicks_per_entity);
    if (it != cache->end()) return it->second;
    Shared shared;
    data::DatasetOptions options;
    options.num_entities = kEntities;
    options.num_queries = 300;
    options.num_clicks = kEntities * clicks_per_entity;
    options.seed = 7;
    auto dataset = data::GenerateDataset(options);
    EXPECT_TRUE(dataset.ok());
    shared.dataset = std::move(dataset).value();
    shared.bundle = data::MakeShoalInput(shared.dataset);
    auto corpus = data::BuildTrainingCorpus(shared.dataset);
    auto w2v = text::Word2Vec::Train(shared.dataset.lexicon.vocab(), corpus,
                                     text::Word2VecOptions{});
    EXPECT_TRUE(w2v.ok());
    shared.vectors = w2v->vectors();
    return cache->emplace(clicks_per_entity, std::move(shared))
        .first->second;
  }
};

TEST_P(EntityGraphPropertyTest, Invariants) {
  const GraphCase& c = GetParam();
  const Shared& shared = SharedFor(c.clicks_per_entity);

  EntityGraphOptions options;
  options.alpha = c.alpha;
  options.similarity_threshold = c.threshold;
  EntityGraphStats stats;
  auto graph =
      BuildEntityGraph(shared.bundle.query_item_graph,
                       shared.bundle.entity_title_words, shared.vectors,
                       options, &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  // Invariant 1: every kept edge respects the sparsification threshold
  // and lies in [0, 1] (Eq. 3 of convex-combined similarities).
  for (const auto& e : graph->AllEdges()) {
    EXPECT_GE(e.weight, c.threshold);
    EXPECT_LE(e.weight, 1.0 + 1e-9);
  }

  // Invariant 2: stats account for the pipeline stages consistently.
  EXPECT_GE(stats.candidate_pairs, stats.kept_edges);
  EXPECT_EQ(stats.scored_pairs, stats.candidate_pairs);
  EXPECT_EQ(stats.kept_edges, graph->num_edges());

  // Invariant 3: edges only connect co-clicked entities.
  for (const auto& e : graph->AllEdges()) {
    auto qu = shared.bundle.query_item_graph.QueriesOfItem(e.u);
    auto qv = shared.bundle.query_item_graph.QueriesOfItem(e.v);
    std::vector<uint32_t> intersection;
    std::set_intersection(qu.begin(), qu.end(), qv.begin(), qv.end(),
                          std::back_inserter(intersection));
    EXPECT_FALSE(intersection.empty())
        << "edge (" << e.u << "," << e.v << ") without shared query";
  }
}

TEST_P(EntityGraphPropertyTest, IntraIntentEdgesHeavier) {
  const GraphCase& c = GetParam();
  const Shared& shared = SharedFor(c.clicks_per_entity);
  EntityGraphOptions options;
  options.alpha = c.alpha;
  options.similarity_threshold = 0.0;  // unsparsified view
  auto graph =
      BuildEntityGraph(shared.bundle.query_item_graph,
                       shared.bundle.entity_title_words, shared.vectors,
                       options);
  ASSERT_TRUE(graph.ok());
  double intra_sum = 0.0, cross_sum = 0.0;
  size_t intra_count = 0, cross_count = 0;
  for (const auto& e : graph->AllEdges()) {
    if (shared.dataset.entities[e.u].intent ==
        shared.dataset.entities[e.v].intent) {
      intra_sum += e.weight;
      ++intra_count;
    } else {
      cross_sum += e.weight;
      ++cross_count;
    }
  }
  ASSERT_GT(intra_count, 0u);
  if (cross_count > 10) {
    EXPECT_GT(intra_sum / static_cast<double>(intra_count),
              cross_sum / static_cast<double>(cross_count))
        << "alpha=" << c.alpha << " fails to separate intents";
  }
}

TEST_P(EntityGraphPropertyTest, HigherThresholdNeverAddsEdges) {
  const GraphCase& c = GetParam();
  const Shared& shared = SharedFor(c.clicks_per_entity);
  EntityGraphOptions low;
  low.alpha = c.alpha;
  low.similarity_threshold = c.threshold;
  EntityGraphOptions high = low;
  high.similarity_threshold = c.threshold + 0.1;
  auto g_low = BuildEntityGraph(shared.bundle.query_item_graph,
                                shared.bundle.entity_title_words,
                                shared.vectors, low);
  auto g_high = BuildEntityGraph(shared.bundle.query_item_graph,
                                 shared.bundle.entity_title_words,
                                 shared.vectors, high);
  ASSERT_TRUE(g_low.ok());
  ASSERT_TRUE(g_high.ok());
  EXPECT_LE(g_high->num_edges(), g_low->num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EntityGraphPropertyTest,
    ::testing::Values(GraphCase{0.7, 0.35, 50}, GraphCase{0.7, 0.5, 50},
                      GraphCase{0.0, 0.35, 50}, GraphCase{1.0, 0.2, 50},
                      GraphCase{0.5, 0.35, 50}, GraphCase{0.7, 0.35, 20},
                      GraphCase{0.3, 0.25, 20}),
    CaseName);

}  // namespace
}  // namespace shoal::core
