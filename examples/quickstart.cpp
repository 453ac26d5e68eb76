// Quickstart: generate a synthetic e-commerce workload, build the full
// SHOAL taxonomy, and print the recovered topic hierarchy with
// descriptions — the end-to-end path of Sec 2.
//
//   ./quickstart --entities=1500 --queries=1200 --clicks=75000

#include <cstdio>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "obs/cli_flags.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using shoal::util::FormatDouble;

int Run(int argc, char** argv) {
  shoal::util::FlagParser flags;
  flags.AddInt64("entities", 1500, "number of item entities");
  flags.AddInt64("queries", 1200, "number of distinct queries");
  flags.AddInt64("clicks", 75000, "click-log events");
  flags.AddInt64("seed", 2019, "random seed");
  flags.AddDouble("alpha", 0.7, "query/content similarity mix (Eq. 3)");
  flags.AddDouble("threshold", 0.35, "HAC merge threshold");
  flags.AddInt64("threads", 0,
                 "pipeline worker threads (0 = per-stage defaults)");
  shoal::obs::AddObservabilityFlags(flags);
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!shoal::obs::EnableObservability(flags)) return 1;

  // 1. Synthetic workload with planted intents (stand-in for the
  //    proprietary Taobao query log).
  shoal::data::DatasetOptions data_options;
  data_options.num_entities = static_cast<size_t>(flags.GetInt64("entities"));
  data_options.num_queries = static_cast<size_t>(flags.GetInt64("queries"));
  data_options.num_clicks = static_cast<size_t>(flags.GetInt64("clicks"));
  data_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto dataset = shoal::data::GenerateDataset(data_options);
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  std::printf("dataset: %zu entities, %zu queries, %zu clicks\n",
              dataset->entities.size(), dataset->queries.size(),
              dataset->clicks.size());

  // 2. Seven-day sliding window -> query-item bipartite graph.
  auto bundle = shoal::data::MakeShoalInput(*dataset, /*window_days=*/7.0);
  std::printf("bipartite graph: %zu query-item edges in the 7-day window\n",
              bundle.query_item_graph.num_edges());

  // 3. Full SHOAL pipeline.
  shoal::core::ShoalOptions options;
  options.entity_graph.alpha = flags.GetDouble("alpha");
  options.hac.hac.threshold = flags.GetDouble("threshold");
  options.correlation.min_strength = 1;  // small demo; paper uses 10
  SHOAL_CHECK(flags.GetInt64("threads") >= 0) << "--threads must be >= 0";
  options.num_threads = static_cast<size_t>(flags.GetInt64("threads"));
  auto model = shoal::core::BuildShoal(bundle.View(), options);
  SHOAL_CHECK(model.ok()) << model.status().ToString();

  const auto& stats = model->stats();
  std::printf(
      "pipeline: word2vec %ss | entity graph %ss (%zu edges) | "
      "parallel HAC %ss (%zu merges in %zu rounds)\n",
      FormatDouble(stats.word2vec_seconds, 2).c_str(),
      FormatDouble(stats.entity_graph_seconds, 2).c_str(),
      stats.entity_graph.kept_edges,
      FormatDouble(stats.hac_seconds, 2).c_str(), stats.hac.total_merges,
      stats.hac.rounds);

  // 4. Print the topic hierarchy (largest roots first).
  const auto& taxonomy = model->taxonomy();
  std::printf("\ntaxonomy: %zu topics under %zu root topics\n\n",
              taxonomy.num_topics(), taxonomy.roots().size());
  std::vector<uint32_t> roots = taxonomy.roots();
  std::sort(roots.begin(), roots.end(), [&](uint32_t a, uint32_t b) {
    return taxonomy.topic(a).entities.size() >
           taxonomy.topic(b).entities.size();
  });
  size_t shown = 0;
  for (uint32_t root : roots) {
    if (shown++ >= 8) break;
    const auto& topic = taxonomy.topic(root);
    std::printf("topic #%u  (%zu items, %zu categories)\n", topic.id,
                topic.entities.size(), topic.categories.size());
    if (!topic.description.empty()) {
      std::printf("  described by: ");
      for (size_t i = 0; i < topic.description.size() && i < 3; ++i) {
        std::printf("%s\"%s\"", i > 0 ? ", " : "",
                    topic.description[i].c_str());
      }
      std::printf("\n");
    }
    for (size_t c = 0; c < topic.categories.size() && c < 4; ++c) {
      std::printf(
          "  category: %-18s (%zu items)\n",
          dataset->ontology.node(topic.categories[c].first).name.c_str(),
          topic.categories[c].second);
    }
    size_t sub_shown = 0;
    for (uint32_t child : topic.children) {
      if (sub_shown++ >= 3) break;
      const auto& sub = taxonomy.topic(child);
      std::printf("    sub-topic #%u (%zu items)%s%s\n", sub.id,
                  sub.entities.size(),
                  sub.description.empty() ? "" : " — ",
                  sub.description.empty() ? ""
                                          : sub.description.front().c_str());
    }
  }

  // 5. Query -> topic search (demo scenario A).
  const char* probe = "camping";
  auto hits = model->SearchTopics(probe, 3);
  std::printf("\nquery \"%s\" -> %zu topics:", probe, hits.size());
  for (const auto& hit : hits) {
    std::printf(" #%u(score %s)", hit.topic,
                FormatDouble(hit.score, 2).c_str());
  }
  std::printf("\n");

  // 6. Observability artefacts, when requested.
  auto written =
      shoal::obs::WriteObservability(flags, "build_stats", stats.ToJson());
  SHOAL_CHECK(written.ok()) << written.ToString();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
