#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/string_util.h"

namespace shoal::data {

namespace {

// Joins interned word ids back into a display string.
std::string Render(const text::Vocabulary& vocab,
                   const std::vector<uint32_t>& words) {
  std::string out;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += vocab.WordOf(words[i]);
  }
  return out;
}

}  // namespace

std::vector<uint32_t> Dataset::EntityIntentLabels() const {
  std::vector<uint32_t> labels(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) labels[i] = entities[i].intent;
  return labels;
}

std::vector<uint32_t> Dataset::EntityRootIntentLabels() const {
  std::vector<uint32_t> labels(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    labels[i] = intents.RootOf(entities[i].intent);
  }
  return labels;
}

bool Dataset::CategoriesRelated(uint32_t c1, uint32_t c2) const {
  if (c1 == c2) return true;
  for (uint32_t root : intents.roots()) {
    // A root intent's categories are the union over its leaf intents.
    bool has1 = false;
    bool has2 = false;
    for (uint32_t leaf : intents.intent(root).children) {
      for (uint32_t c : intents.intent(leaf).categories) {
        has1 = has1 || c == c1;
        has2 = has2 || c == c2;
      }
    }
    // Roots that are themselves leaves (flat hierarchies).
    for (uint32_t c : intents.intent(root).categories) {
      has1 = has1 || c == c1;
      has2 = has2 || c == c2;
    }
    if (has1 && has2) return true;
  }
  return false;
}

util::Result<Dataset> GenerateDataset(const DatasetOptions& options) {
  if (options.num_root_intents == 0 || options.children_per_root == 0) {
    return util::Status::InvalidArgument("intent tree must be non-empty");
  }
  if (options.num_departments == 0 || options.leaves_per_department == 0) {
    return util::Status::InvalidArgument("ontology must be non-empty");
  }
  if (options.num_entities == 0 || options.num_queries == 0) {
    return util::Status::InvalidArgument("need entities and queries");
  }
  if (options.click_noise < 0.0 || options.click_noise > 1.0) {
    return util::Status::InvalidArgument("click_noise must be in [0,1]");
  }

  Dataset ds;
  ds.options = options;
  ds.lexicon = Lexicon(options.seed ^ 0xfeedbeefULL);
  util::Rng rng(options.seed);

  // ---- Ontology -------------------------------------------------------
  std::vector<std::string> department_names;
  std::vector<std::vector<std::string>> leaf_names;
  size_t noun_serial = 0;
  for (size_t d = 0; d < options.num_departments; ++d) {
    department_names.push_back("department " + std::to_string(d + 1));
    std::vector<std::string> leaves;
    for (size_t l = 0; l < options.leaves_per_department; ++l) {
      leaves.push_back(ds.lexicon.ProductNoun(noun_serial++));
    }
    leaf_names.push_back(std::move(leaves));
  }
  ds.ontology = Ontology::BuildThreeLevel(department_names, leaf_names);
  const auto& leaf_categories = ds.ontology.leaves();

  // Topical words for each leaf category (its name token + minted words).
  std::vector<std::vector<uint32_t>> category_words(ds.ontology.size());
  for (uint32_t leaf : leaf_categories) {
    category_words[leaf] =
        ds.lexicon.InternPhrase(ds.ontology.node(leaf).name);
    auto minted = ds.lexicon.MintTopicWords(options.words_per_category);
    category_words[leaf].insert(category_words[leaf].end(), minted.begin(),
                                minted.end());
  }

  // ---- Intent hierarchy ----------------------------------------------
  size_t modifier_serial = 0;
  for (size_t r = 0; r < options.num_root_intents; ++r) {
    Intent root;
    root.name = ds.lexicon.ScenarioName(r);
    root.vocabulary = ds.lexicon.InternPhrase(root.name);
    auto minted = ds.lexicon.MintTopicWords(options.words_per_root_intent);
    root.vocabulary.insert(root.vocabulary.end(), minted.begin(),
                           minted.end());
    uint32_t root_id = ds.intents.AddRoot(std::move(root));

    // The root's category pool: sampled once so that sibling leaf intents
    // overlap in categories (they share a scenario), giving the root-topic
    // co-occurrence signal that Sec 2.4 mines.
    size_t pool_size = std::min(leaf_categories.size(),
                                options.categories_per_intent * 2);
    std::vector<uint32_t> pool(leaf_categories);
    rng.Shuffle(pool);
    pool.resize(pool_size);

    for (size_t c = 0; c < options.children_per_root; ++c) {
      Intent child;
      child.name = ds.lexicon.Modifier(modifier_serial++) + " " +
                   ds.intents.intent(root_id).name;
      child.vocabulary = ds.lexicon.InternPhrase(child.name);
      auto child_minted =
          ds.lexicon.MintTopicWords(options.words_per_leaf_intent);
      child.vocabulary.insert(child.vocabulary.end(), child_minted.begin(),
                              child_minted.end());

      // Choose categories from the root's pool with Zipf-ish weights.
      std::vector<uint32_t> shuffled(pool);
      rng.Shuffle(shuffled);
      size_t k = std::min(options.categories_per_intent, shuffled.size());
      for (size_t i = 0; i < k; ++i) {
        child.categories.push_back(shuffled[i]);
        child.category_weights.push_back(1.0 / static_cast<double>(i + 1));
      }
      ds.intents.AddChild(root_id, std::move(child));
    }
  }
  const auto& leaf_intents = ds.intents.leaves();

  // ---- Item entities --------------------------------------------------
  ds.lexicon.FillerWords();  // intern the filler pool up front
  ds.entities.reserve(options.num_entities);
  ds.entities_by_intent.assign(ds.intents.size(), {});
  for (size_t i = 0; i < options.num_entities; ++i) {
    ItemEntity entity;
    entity.id = static_cast<uint32_t>(i);
    entity.intent = leaf_intents[rng.Uniform(leaf_intents.size())];
    const Intent& intent = ds.intents.intent(entity.intent);
    entity.category =
        intent.categories[rng.Categorical(intent.category_weights)];
    entity.group_size = 1 + static_cast<uint32_t>(rng.Poisson(2.0));
    entity.price = std::exp(rng.Gaussian(3.0, 0.8));

    // Title: category words + intent words (incl. ancestors) + filler.
    auto intent_vocab = ds.intents.EffectiveVocabulary(entity.intent);
    const auto& cat_vocab = category_words[entity.category];
    std::vector<uint32_t> title;
    size_t cat_tokens = 2 + rng.Uniform(2);
    size_t intent_tokens = 3 + rng.Uniform(2);
    for (size_t t = 0; t < cat_tokens; ++t) {
      title.push_back(cat_vocab[rng.Uniform(cat_vocab.size())]);
    }
    for (size_t t = 0; t < intent_tokens; ++t) {
      title.push_back(intent_vocab[rng.Uniform(intent_vocab.size())]);
    }
    const auto& filler = ds.lexicon.FillerWords();
    size_t filler_tokens = rng.Uniform(3);
    for (size_t t = 0; t < filler_tokens; ++t) {
      title.push_back(filler[rng.Uniform(filler.size())]);
    }
    rng.Shuffle(title);
    for (uint32_t w : title) ds.lexicon.vocab().AddWord(
        ds.lexicon.vocab().WordOf(w));  // bump corpus frequency
    entity.title_words = title;
    entity.title = Render(ds.lexicon.vocab(), title);
    ds.entities_by_intent[entity.intent].push_back(entity.id);
    ds.entities.push_back(std::move(entity));
  }

  // Every leaf intent must own at least one entity so ground-truth
  // clusters are non-degenerate; reassign from the largest if needed.
  for (uint32_t leaf : leaf_intents) {
    if (!ds.entities_by_intent[leaf].empty()) continue;
    uint32_t donor = leaf;
    for (uint32_t other : leaf_intents) {
      if (ds.entities_by_intent[other].size() >
          ds.entities_by_intent[donor].size()) {
        donor = other;
      }
    }
    if (ds.entities_by_intent[donor].size() < 2) continue;
    uint32_t moved = ds.entities_by_intent[donor].back();
    ds.entities_by_intent[donor].pop_back();
    ds.entities[moved].intent = leaf;
    ds.entities_by_intent[leaf].push_back(moved);
  }

  // ---- Queries ---------------------------------------------------------
  ds.queries.reserve(options.num_queries);
  std::unordered_set<std::string> seen_queries;
  for (size_t q = 0; q < options.num_queries; ++q) {
    SearchQuery query;
    query.id = static_cast<uint32_t>(q);
    query.intent = leaf_intents[rng.Uniform(leaf_intents.size())];
    auto intent_vocab = ds.intents.EffectiveVocabulary(query.intent);
    const Intent& intent = ds.intents.intent(query.intent);

    // 1-3 intent words; sometimes a category word for navigational
    // queries ("beach dress" = intent word + category noun).
    std::vector<uint32_t> words;
    size_t n_words = 1 + rng.Uniform(3);
    for (size_t t = 0; t < n_words; ++t) {
      words.push_back(intent_vocab[rng.Uniform(intent_vocab.size())]);
    }
    if (rng.Bernoulli(0.4) && !intent.categories.empty()) {
      uint32_t cat = intent.categories[rng.Uniform(intent.categories.size())];
      const auto& cw = category_words[cat];
      words.push_back(cw[rng.Uniform(cw.size())]);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    rng.Shuffle(words);
    query.words = words;
    query.text = Render(ds.lexicon.vocab(), words);
    if (!seen_queries.insert(query.text).second) {
      // Duplicate text: still keep the query (real logs repeat strings);
      // its id disambiguates.
    }
    for (uint32_t w : words) {
      ds.lexicon.vocab().AddWord(ds.lexicon.vocab().WordOf(w));
    }
    ds.queries.push_back(std::move(query));
  }

  // ---- Click log -------------------------------------------------------
  util::ZipfDistribution query_popularity(ds.queries.size(),
                                          options.query_zipf_exponent);
  const uint64_t span_sec =
      static_cast<uint64_t>(options.log_days * 86400.0);
  const uint64_t begin_sec = options.log_end_time_sec - span_sec;
  ds.clicks.reserve(options.num_clicks);
  for (size_t c = 0; c < options.num_clicks; ++c) {
    ClickEvent event;
    event.query = static_cast<uint32_t>(query_popularity.Sample(rng));
    const SearchQuery& query = ds.queries[event.query];
    if (rng.Bernoulli(options.click_noise) ||
        ds.entities_by_intent[query.intent].empty()) {
      event.entity =
          static_cast<uint32_t>(rng.Uniform(ds.entities.size()));
    } else {
      const auto& pool = ds.entities_by_intent[query.intent];
      event.entity = pool[rng.Uniform(pool.size())];
    }
    event.timestamp_sec = begin_sec + rng.Uniform(span_sec);
    ds.clicks.push_back(event);
  }
  std::sort(ds.clicks.begin(), ds.clicks.end(),
            [](const ClickEvent& a, const ClickEvent& b) {
              return a.timestamp_sec < b.timestamp_sec;
            });
  return ds;
}

graph::BipartiteGraph BuildQueryItemGraph(const Dataset& dataset,
                                          uint64_t window_begin_sec,
                                          uint64_t window_end_sec) {
  graph::BipartiteGraph graph(dataset.queries.size(),
                              dataset.entities.size());
  for (const ClickEvent& event : dataset.clicks) {
    if (event.timestamp_sec < window_begin_sec ||
        event.timestamp_sec >= window_end_sec) {
      continue;
    }
    auto status = graph.AddInteraction(event.query, event.entity);
    SHOAL_CHECK(status.ok()) << status.ToString();
  }
  return graph;
}

uint64_t WindowBeginSec(uint64_t end_sec, double days) {
  const double span = days * 86400.0;
  if (!(span > 0.0)) return end_sec;
  // Converting a double at or above 2^64 to uint64_t is undefined.
  if (span >= 18446744073709551616.0) return 0;
  const uint64_t whole = static_cast<uint64_t>(span);
  return whole >= end_sec ? 0 : end_sec - whole;
}

graph::BipartiteGraph BuildRecentQueryItemGraph(const Dataset& dataset,
                                                double days) {
  const uint64_t end = dataset.options.log_end_time_sec;
  return BuildQueryItemGraph(dataset, WindowBeginSec(end, days), end);
}

std::vector<std::vector<uint32_t>> BuildTrainingCorpus(
    const Dataset& dataset) {
  std::vector<std::vector<uint32_t>> corpus;
  corpus.reserve(dataset.entities.size() + dataset.queries.size());
  for (const ItemEntity& entity : dataset.entities) {
    corpus.push_back(entity.title_words);
  }
  for (const SearchQuery& query : dataset.queries) {
    corpus.push_back(query.words);
  }
  return corpus;
}

}  // namespace shoal::data
