// Taxonomy explorer: a CLI rendition of the SHOAL demo GUI (Figure 5),
// implementing all four demonstration scenarios of Sec 3.1:
//
//   (A) Query -> Topic          : query <text>
//   (B) Topic -> Sub-topic      : topic <id>
//   (C) Topic -> Category -> Item: categories <id> / items <id> <category>
//   (D) Category -> Category    : related <category name>
//
// Runs an interactive prompt, or executes commands given with --cmd
// (semicolon-separated) and exits — which is how the integration test
// drives it.
//
// Scenarios A and B (and `item`) read a compiled serve::ServingIndex —
// the same artefact and lookup code path shoal_serve answers HTTP
// requests from. Two ways to get one:
//   --index taxonomy.idx   explore a file written by
//                          `shoal_cli build --serving-index-out` (the
//                          dataset-backed scenarios C/D are unavailable);
//   (default)              generate a synthetic dataset, build the
//                          taxonomy, and compile the index in-process.

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "serve/serving_index.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using shoal::core::kNoTopic;
using shoal::serve::ServingIndex;

// Formats "  — first repr query" or "" for a topic summary line.
std::string DescriptionSuffix(const ServingIndex& index, uint32_t t) {
  if (index.num_descriptions(t) == 0) return "";
  return "  — " + std::string(index.description(t, 0));
}

class Explorer {
 public:
  // `dataset` and `model` may be null (pure --index mode); scenarios C
  // and D need them, everything else reads `index`.
  Explorer(const ServingIndex& index, const shoal::data::Dataset* dataset,
           const shoal::core::ShoalModel* model)
      : index_(index), dataset_(dataset), model_(model) {}

  void Execute(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) return;
    std::string rest;
    std::getline(in, rest);
    std::string arg(shoal::util::Trim(rest));

    if (command == "query") {
      ScenarioA(arg);
    } else if (command == "topic") {
      ScenarioB(arg);
    } else if (command == "item") {
      Item(arg);
    } else if (command == "categories") {
      ScenarioCCategories(arg);
    } else if (command == "items") {
      ScenarioCItems(arg);
    } else if (command == "related") {
      ScenarioD(arg);
    } else if (command == "help") {
      PrintHelp();
    } else {
      std::printf("unknown command '%s' (try: help)\n", command.c_str());
    }
  }

  static void PrintHelp() {
    std::printf(
        "commands:\n"
        "  query <text>            (A) find topics matching a query\n"
        "  topic <id>              (B) show a topic and its sub-topics\n"
        "  item <id>               item -> topic / category mapping\n"
        "  categories <id>         (C) categories under a topic\n"
        "  items <id> <category>   (C) items of a category in a topic\n"
        "  related <category>      (D) correlated categories\n"
        "  help                    this message\n");
  }

 private:
  // (A) Query -> Topic through the serving dictionary: exact raw-text
  // match, then the normalized form — identical to GET /v1/query.
  void ScenarioA(const std::string& text) {
    const ServingIndex::Lookup lookup = index_.Find(text);
    if (lookup.query != shoal::serve::kNoQuery) {
      std::printf("topics for \"%s\" (%s match):\n", text.c_str(),
                  lookup.match == ServingIndex::Lookup::Match::kExact
                      ? "exact"
                      : "normalized");
      const auto postings = index_.postings(lookup.query);
      for (size_t i = 0; i < postings.size() && i < 6; ++i) {
        const auto posting = postings[i];
        std::printf("  #%-5u score %-7s %u items%s\n", posting.topic,
                    shoal::util::FormatDouble(posting.score, 2).c_str(),
                    index_.topic_size(posting.topic),
                    DescriptionSuffix(index_, posting.topic).c_str());
      }
      return;
    }
    // Out-of-dictionary text: fall back to the BM25 search index when a
    // live model is around (synthetic mode only).
    if (model_ != nullptr) {
      auto hits = model_->SearchTopics(text, 6);
      if (!hits.empty()) {
        std::printf("topics for \"%s\" (BM25 fallback):\n", text.c_str());
        for (const auto& hit : hits) {
          std::printf("  #%-5u score %-7s %u items%s\n", hit.topic,
                      shoal::util::FormatDouble(hit.score, 2).c_str(),
                      index_.topic_size(hit.topic),
                      DescriptionSuffix(index_, hit.topic).c_str());
        }
        return;
      }
    }
    std::printf("no topics match \"%s\"\n", text.c_str());
  }

  // (B) Topic -> Sub-topic: hierarchy walks through the index CSR.
  void ScenarioB(const std::string& arg) {
    uint32_t id;
    if (!ParseTopicId(arg, &id)) return;
    std::printf("topic #%u: %u items, level %u", id, index_.topic_size(id),
                index_.level(id));
    std::printf("  (path:");
    for (uint32_t node : index_.PathToRoot(id)) std::printf(" #%u", node);
    std::printf(")\n");
    for (size_t i = 0; i < index_.num_descriptions(id); ++i) {
      std::printf("  repr query %zu: \"%s\"\n", i + 1,
                  std::string(index_.description(id, i)).c_str());
    }
    auto [first, last] = index_.children(id);
    if (first == last) std::printf("  (no sub-topics)\n");
    for (const uint32_t* child = first; child != last; ++child) {
      std::printf("  sub-topic #%-5u %u items%s\n", *child,
                  index_.topic_size(*child),
                  DescriptionSuffix(index_, *child).c_str());
    }
  }

  // Item -> entity -> topic, mirroring GET /v1/item/<id>.
  void Item(const std::string& arg) {
    uint32_t e = 0;
    if (!shoal::util::ParseUnsigned(arg, &e) || e >= index_.num_entities()) {
      std::printf("expected an item id in [0, %zu)\n",
                  index_.num_entities());
      return;
    }
    const uint32_t topic = index_.entity_topic(e);
    if (topic == kNoTopic) {
      std::printf("item %u is not clustered into any topic\n", e);
      return;
    }
    std::printf("item %u: topic #%u, path", e, topic);
    for (uint32_t node : index_.PathToRoot(topic)) std::printf(" #%u", node);
    if (index_.entity_category(e) != shoal::serve::kNoCategoryId) {
      std::printf(", category %u", index_.entity_category(e));
    }
    std::printf("%s\n", DescriptionSuffix(index_, topic).c_str());
  }

  // (C) Topic -> Category: categories associated with a topic.
  void ScenarioCCategories(const std::string& arg) {
    if (!RequireDataset("categories")) return;
    uint32_t id;
    if (!ParseTopicId(arg, &id)) return;
    const auto& topic = model_->taxonomy().topic(id);
    std::printf("categories of topic #%u:\n", id);
    for (const auto& [category, count] : topic.categories) {
      std::printf("  %-20s %zu items\n",
                  dataset_->ontology.node(category).name.c_str(), count);
    }
  }

  // (C) Category -> Item: items of one category inside a topic.
  void ScenarioCItems(const std::string& arg) {
    if (!RequireDataset("items")) return;
    std::istringstream in(arg);
    std::string id_text, category_name;
    in >> id_text >> category_name;
    uint32_t id;
    if (!ParseTopicId(id_text, &id)) return;
    uint32_t category = FindCategory(category_name);
    if (category == shoal::data::kNoCategory) return;
    const auto& topic = model_->taxonomy().topic(id);
    std::printf("items of category '%s' in topic #%u:\n",
                category_name.c_str(), id);
    size_t shown = 0;
    for (uint32_t e : topic.entities) {
      if (dataset_->entities[e].category != category) continue;
      std::printf("  [%u] %s (price %.2f)\n", e,
                  dataset_->entities[e].title.c_str(),
                  dataset_->entities[e].price);
      if (++shown >= 10) break;
    }
    if (shown == 0) std::printf("  (none)\n");
  }

  // (D) Category -> Category: correlated categories (Sec 2.4).
  void ScenarioD(const std::string& category_name) {
    if (!RequireDataset("related")) return;
    uint32_t category = FindCategory(category_name);
    if (category == shoal::data::kNoCategory) return;
    auto related = model_->correlations().Related(category);
    if (related.empty()) {
      std::printf("no categories correlated with '%s'\n",
                  category_name.c_str());
      return;
    }
    std::printf("categories correlated with '%s':\n", category_name.c_str());
    for (const auto& [other, strength] : related) {
      std::printf("  %-20s strength %u\n",
                  dataset_->ontology.node(other).name.c_str(), strength);
    }
  }

  bool RequireDataset(const char* command) {
    if (dataset_ != nullptr && model_ != nullptr) return true;
    std::printf("'%s' needs the synthetic dataset; rerun without --index\n",
                command);
    return false;
  }

  bool ParseTopicId(const std::string& text, uint32_t* id) {
    uint32_t value = 0;
    if (!shoal::util::ParseUnsigned(text, &value) ||
        value >= index_.num_topics()) {
      std::printf("expected a topic id in [0, %zu)\n", index_.num_topics());
      return false;
    }
    *id = value;
    return true;
  }

  uint32_t FindCategory(const std::string& name) {
    for (uint32_t c = 0; c < dataset_->ontology.size(); ++c) {
      if (dataset_->ontology.node(c).name == name) return c;
    }
    std::printf("unknown category '%s'\n", name.c_str());
    return shoal::data::kNoCategory;
  }

  const ServingIndex& index_;
  const shoal::data::Dataset* dataset_;
  const shoal::core::ShoalModel* model_;
};

int Run(int argc, char** argv) {
  shoal::util::FlagParser flags;
  flags.AddString("index", "",
                  "explore a compiled serving index file instead of "
                  "building a synthetic taxonomy");
  flags.AddInt64("entities", 1200, "number of item entities");
  flags.AddInt64("seed", 2019, "random seed");
  flags.AddString("cmd", "", "semicolon-separated commands to run and exit");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;

  std::unique_ptr<ServingIndex> index;
  std::unique_ptr<shoal::data::Dataset> dataset;
  std::unique_ptr<shoal::core::ShoalModel> model;
  if (!flags.GetString("index").empty()) {
    auto loaded =
        shoal::serve::ReadServingIndexFile(flags.GetString("index"));
    SHOAL_CHECK(loaded.ok()) << loaded.status().ToString();
    index = std::make_unique<ServingIndex>(std::move(loaded).value());
  } else {
    shoal::data::DatasetOptions data_options;
    data_options.num_entities =
        static_cast<size_t>(flags.GetInt64("entities"));
    data_options.num_queries = data_options.num_entities;
    data_options.num_clicks = data_options.num_entities * 50;
    data_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
    auto generated = shoal::data::GenerateDataset(data_options);
    SHOAL_CHECK(generated.ok()) << generated.status().ToString();
    dataset =
        std::make_unique<shoal::data::Dataset>(std::move(generated).value());

    auto bundle = shoal::data::MakeShoalInput(*dataset);
    shoal::core::ShoalOptions options;
    options.correlation.min_strength = 1;
    auto built = shoal::core::BuildShoal(bundle.View(), options);
    SHOAL_CHECK(built.ok()) << built.status().ToString();
    model = std::make_unique<shoal::core::ShoalModel>(
        std::move(built).value());

    // Compile the same artefact shoal_serve loads from disk, so every
    // topic/query walk below exercises the online lookup path.
    const shoal::core::ShoalInput input = bundle.View();
    shoal::core::DescriberInput describe_input;
    describe_input.taxonomy = &model->taxonomy();
    describe_input.query_item_graph = input.query_item_graph;
    describe_input.query_words = input.query_words;
    describe_input.query_texts = input.query_texts;
    describe_input.entity_title_words = input.entity_title_words;
    auto compiled = shoal::serve::CompileServingIndex(
        model->taxonomy(), describe_input, shoal::core::DescriberOptions(),
        input.entity_categories, shoal::serve::CompileOptions());
    SHOAL_CHECK(compiled.ok()) << compiled.status().ToString();
    auto frozen = compiled->Build();
    SHOAL_CHECK(frozen.ok()) << frozen.status().ToString();
    index = std::make_unique<ServingIndex>(std::move(frozen).value());
  }
  std::printf("SHOAL explorer: %zu topics, %zu roots, %zu queries. ",
              index->num_topics(), index->roots().size(),
              index->num_queries());
  Explorer::PrintHelp();

  Explorer explorer(*index, dataset.get(), model.get());
  const std::string& script = flags.GetString("cmd");
  if (!script.empty()) {
    for (const std::string& command : shoal::util::Split(script, ';')) {
      std::printf("> %s\n", std::string(shoal::util::Trim(command)).c_str());
      explorer.Execute(std::string(shoal::util::Trim(command)));
    }
    return 0;
  }
  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    explorer.Execute(line);
    std::printf("> ");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
