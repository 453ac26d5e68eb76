#ifndef SHOAL_DATA_DATASET_H_
#define SHOAL_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/intent_model.h"
#include "data/lexicon.h"
#include "data/ontology.h"
#include "graph/bipartite_graph.h"
#include "util/result.h"

namespace shoal::data {

// One item entity: a group of items with near-equivalent attributes and
// price (Sec 2.1). Generated entities carry their planted leaf intent and
// their ontology leaf category.
struct ItemEntity {
  uint32_t id = 0;
  uint32_t category = kNoCategory;     // ontology leaf
  uint32_t intent = kNoIntent;         // planted leaf intent (ground truth)
  uint32_t group_size = 1;             // items represented by this entity
  double price = 0.0;
  std::string title;
  std::vector<uint32_t> title_words;   // ids in dataset.lexicon.vocab()
};

// One distinct search query string with its planted intent.
struct SearchQuery {
  uint32_t id = 0;
  uint32_t intent = kNoIntent;         // planted leaf intent (ground truth)
  std::string text;
  std::vector<uint32_t> words;
};

// One click event: a user searched `query` and clicked an item of
// `entity` at `timestamp_sec` (epoch seconds in simulated time).
struct ClickEvent {
  uint32_t query = 0;
  uint32_t entity = 0;
  uint64_t timestamp_sec = 0;
};

// Knobs for the synthetic workload. The defaults produce a dataset small
// enough for unit tests; benches scale them up.
struct DatasetOptions {
  // Intent hierarchy: `num_root_intents` scenarios, each with
  // `children_per_root` leaf intents (the fine-grained topics).
  size_t num_root_intents = 8;
  size_t children_per_root = 3;
  // Ontology: departments x leaves each.
  size_t num_departments = 6;
  size_t leaves_per_department = 8;
  // Each leaf intent shops across this many leaf categories.
  size_t categories_per_intent = 4;
  // Topical pseudo-words minted per root intent / leaf intent / category.
  size_t words_per_root_intent = 6;
  size_t words_per_leaf_intent = 8;
  size_t words_per_category = 6;

  // Click volume matters: the query-coalition signal (Eq. 1) needs dense
  // co-click overlap, as production logs have. ~50 clicks per entity
  // makes same-intent Jaccard strong enough for Eq. 3 at alpha = 0.7.
  size_t num_entities = 2000;
  size_t num_queries = 1500;
  size_t num_clicks = 100000;

  // Probability that a click lands on an item outside the query's intent
  // (exploration / accidental clicks).
  double click_noise = 0.05;
  // Zipf exponent for query popularity.
  double query_zipf_exponent = 0.9;
  // Log spans this many simulated days ending at `log_end_time_sec`.
  double log_days = 10.0;
  uint64_t log_end_time_sec = 1'500'000'000;

  uint64_t seed = 2019;
};

// The full generated bundle, including every piece of hidden ground truth
// the evaluation harness scores against.
struct Dataset {
  DatasetOptions options;
  Lexicon lexicon{0};
  Ontology ontology;
  IntentModel intents;
  std::vector<ItemEntity> entities;
  std::vector<SearchQuery> queries;
  std::vector<ClickEvent> clicks;  // sorted by timestamp

  // entities per leaf intent (ground-truth clusters).
  std::vector<std::vector<uint32_t>> entities_by_intent;

  // Ground-truth leaf-intent label per entity (= entities[i].intent).
  std::vector<uint32_t> EntityIntentLabels() const;
  // Ground-truth *root*-intent label per entity.
  std::vector<uint32_t> EntityRootIntentLabels() const;

  // True category relatedness: categories co-attached to the same root
  // intent. Used to score mined correlations (Sec 2.4).
  bool CategoriesRelated(uint32_t c1, uint32_t c2) const;
};

// Generates the dataset. Deterministic in `options.seed`.
util::Result<Dataset> GenerateDataset(const DatasetOptions& options);

// Builds the query-item bipartite graph (Figure 2) from the clicks that
// fall inside [window_begin_sec, window_end_sec). The paper uses a 7-day
// sliding window over the live log.
graph::BipartiteGraph BuildQueryItemGraph(const Dataset& dataset,
                                          uint64_t window_begin_sec,
                                          uint64_t window_end_sec);

// Start of the trailing `days`-day window [begin, end_sec). A window at
// least as long as [0, end_sec) starts at 0 and takes every click; a
// NaN or non-positive one is empty (begin == end_sec).
uint64_t WindowBeginSec(uint64_t end_sec, double days);

// Convenience: the trailing `days`-day window of the dataset's log.
graph::BipartiteGraph BuildRecentQueryItemGraph(const Dataset& dataset,
                                                double days = 7.0);

// Sentence corpus for word2vec training: one sentence per entity title
// plus one per query.
std::vector<std::vector<uint32_t>> BuildTrainingCorpus(const Dataset& dataset);

}  // namespace shoal::data

#endif  // SHOAL_DATA_DATASET_H_
