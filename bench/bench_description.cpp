// E9 (Sec 2.3): topic description matching. r(q,t) = sqrt(pop * con)
// picks the most representative queries per topic. Scores the chosen
// descriptions against the planted ground truth: a description is a hit
// when its query's planted intent matches the topic's majority intent
// (same-root counted separately), and compares against a
// popularity-only ranking to show the concentration term matters.

#include <unordered_map>

#include "bench_common.h"
#include "core/topic_describer.h"
#include "util/flags.h"

namespace {

using namespace shoal;

uint32_t MajorityIntent(const core::Topic& topic,
                        const std::vector<uint32_t>& intents) {
  std::unordered_map<uint32_t, size_t> counts;
  for (uint32_t e : topic.entities) ++counts[intents[e]];
  uint32_t best = 0;
  size_t best_count = 0;
  for (const auto& [intent, count] : counts) {
    if (count > best_count) {
      best = intent;
      best_count = count;
    }
  }
  return best;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt64("entities", 3000, "entity count");
  flags.AddInt64("seed", 2019, "random seed");
  auto status = flags.Parse(argc, argv);
  SHOAL_CHECK(status.ok()) << status.ToString();
  if (flags.help_requested()) return 0;

  bench::PrintHeader(
      "E9 bench_description",
      "topics are tagged with representative queries via r(q,t) = "
      "sqrt(pop(q,t) * con(q,t)) (Sec 2.3)");

  auto workload = bench::BuildWorkload(
      bench::ScaledDataset(
          static_cast<size_t>(flags.GetInt64("entities")),
          static_cast<uint64_t>(flags.GetInt64("seed"))),
      core::ShoalOptions{});
  const core::Taxonomy& taxonomy = workload.model.taxonomy();
  auto intents = workload.dataset.EntityIntentLabels();

  // The full rankings the pipeline's describe pass kept on the taxonomy.
  SHOAL_CHECK(taxonomy.rankings() != nullptr);
  const auto& rankings = taxonomy.rankings()->by_topic;

  // Score: top-1 by r(q,t) vs top-1 by popularity alone.
  size_t evaluated = 0;
  size_t exact_r = 0;
  size_t same_root_r = 0;
  size_t exact_pop = 0;
  for (uint32_t t : taxonomy.roots()) {
    const auto& ranking = rankings[t];
    if (ranking.empty()) continue;
    ++evaluated;
    uint32_t majority = MajorityIntent(taxonomy.topic(t), intents);

    uint32_t top_r_query = ranking[0].query;
    uint32_t top_r_intent = workload.dataset.queries[top_r_query].intent;
    if (top_r_intent == majority) {
      ++exact_r;
    } else if (workload.dataset.intents.RootOf(top_r_intent) ==
               workload.dataset.intents.RootOf(majority)) {
      ++same_root_r;
    }

    auto by_pop = ranking;
    std::sort(by_pop.begin(), by_pop.end(),
              [](const core::ScoredQuery& a, const core::ScoredQuery& b) {
                return a.popularity > b.popularity;
              });
    if (workload.dataset.queries[by_pop[0].query].intent == majority) {
      ++exact_pop;
    }
  }

  std::printf("root topics evaluated: %zu\n\n", evaluated);
  std::printf("%-28s %-14s %-14s\n", "ranking", "exact_intent",
              "same_scenario");
  std::printf("%-28s %-14.4f %-14.4f\n", "r = sqrt(pop*con)  (paper)",
              static_cast<double>(exact_r) / evaluated,
              static_cast<double>(exact_r + same_root_r) / evaluated);
  std::printf("%-28s %-14.4f %-14s\n", "popularity only (ablation)",
              static_cast<double>(exact_pop) / evaluated, "-");

  // Show a few qualitative examples.
  std::printf("\nsample descriptions (largest roots):\n");
  std::vector<uint32_t> roots = taxonomy.roots();
  std::sort(roots.begin(), roots.end(), [&](uint32_t a, uint32_t b) {
    return taxonomy.topic(a).entities.size() >
           taxonomy.topic(b).entities.size();
  });
  for (size_t i = 0; i < roots.size() && i < 5; ++i) {
    const auto& topic = taxonomy.topic(roots[i]);
    uint32_t majority = MajorityIntent(topic, intents);
    std::printf("  topic #%u (%zu items, planted intent '%s'):\n",
                topic.id, topic.entities.size(),
                workload.dataset.intents.intent(majority).name.c_str());
    for (size_t d = 0; d < topic.description.size() && d < 3; ++d) {
      std::printf("    \"%s\"\n", topic.description[d].c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
