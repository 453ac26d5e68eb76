// Observability integration tests: run the full pipeline with tracing
// and metrics enabled and check (1) the taxonomy is byte-identical to an
// uninstrumented build at any thread count, (2) the trace carries at
// least one span per pipeline stage and per HAC round with sane
// nesting, and (3) the metrics registry agrees with the build stats.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace shoal {
namespace {

data::Dataset MakeDataset() {
  data::DatasetOptions options;
  options.num_entities = 600;
  options.num_queries = 500;
  options.num_clicks = 30000;
  options.num_root_intents = 5;
  options.children_per_root = 2;
  options.seed = 7;
  auto dataset = data::GenerateDataset(options);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

core::ShoalModel Build(const data::ShoalInputBundle& bundle,
                       size_t num_threads) {
  core::ShoalOptions options;
  options.correlation.min_strength = 1;
  options.num_threads = num_threads;
  auto model = core::BuildShoal(bundle.View(), options);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

// The observable structure of a build, byte-comparable across runs.
struct Fingerprint {
  std::vector<uint32_t> root_labels;
  std::vector<graph::WeightedGraph::FullEdge> edges;
  size_t num_topics = 0;

  bool operator==(const Fingerprint& other) const {
    if (root_labels != other.root_labels) return false;
    if (num_topics != other.num_topics) return false;
    if (edges.size() != other.edges.size()) return false;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].u != other.edges[i].u || edges[i].v != other.edges[i].v ||
          edges[i].weight != other.edges[i].weight) {
        return false;
      }
    }
    return true;
  }
};

Fingerprint FingerprintOf(const core::ShoalModel& model) {
  Fingerprint fp;
  fp.root_labels = model.taxonomy().RootLabels();
  fp.edges = model.entity_graph().AllEdges();
  fp.num_topics = model.taxonomy().num_topics();
  return fp;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetObs(); }
  void TearDown() override { ResetObs(); }
  static void ResetObs() {
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
    obs::MetricsRegistry::Global().Disable();
    obs::MetricsRegistry::Global().Reset();
  }
};

TEST_F(ObservabilityTest, TaxonomyByteIdenticalWithTracingOnOrOff) {
  auto dataset = MakeDataset();
  auto bundle = data::MakeShoalInput(dataset);

  Fingerprint baseline = FingerprintOf(Build(bundle, /*num_threads=*/1));

  obs::Tracer::Global().Enable();
  obs::MetricsRegistry::Global().Enable();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    Fingerprint traced = FingerprintOf(Build(bundle, threads));
    EXPECT_TRUE(traced == baseline)
        << "instrumented build diverged at " << threads << " threads";
  }
}

TEST_F(ObservabilityTest, TraceCoversEveryPipelineStageAndHacRound) {
  auto dataset = MakeDataset();
  auto bundle = data::MakeShoalInput(dataset);

  obs::Tracer::Global().Enable();
  auto model = Build(bundle, /*num_threads=*/2);
  auto events = obs::Tracer::Global().CollectEvents();

  std::map<std::string, size_t> by_name;
  for (const auto& e : events) ++by_name[e.name];
  for (const char* stage :
       {"shoal.build", "shoal.word2vec", "shoal.entity_graph", "shoal.hac",
        "shoal.taxonomy", "shoal.describe", "shoal.correlation",
        "shoal.search_index", "entity_graph.candidates",
        "entity_graph.scoring", "hac.merge", "hac.delta_update"}) {
    EXPECT_GE(by_name[stage], 1u) << "no span named " << stage;
  }
  // The default HAC mode runs no diffusion, so no engine spans appear.
  for (const auto& [name, count] : by_name) {
    EXPECT_FALSE(name == "hac.diffusion" || name.starts_with("bsp."))
        << count << " unexpected span(s) named " << name;
  }
  // One hac.round span per round (the final breaking round may add one).
  EXPECT_GE(by_name["hac.round"], model.stats().hac.rounds);
  EXPECT_LE(by_name["hac.round"], model.stats().hac.rounds + 1);

  // Nesting: the stage spans sit under shoal.build; hac.round sits under
  // shoal.hac. (All on the calling thread, so depths are comparable.)
  std::map<std::string, uint32_t> depth_of;
  for (const auto& e : events) {
    if (!depth_of.contains(e.name)) depth_of[e.name] = e.depth;
  }
  EXPECT_EQ(depth_of["shoal.build"], 0u);
  EXPECT_GT(depth_of["shoal.hac"], depth_of["shoal.build"]);
  EXPECT_GT(depth_of["hac.round"], depth_of["shoal.hac"]);
  EXPECT_GT(depth_of["hac.merge"], depth_of["hac.round"]);
}

TEST_F(ObservabilityTest, MetricsAgreeWithBuildStats) {
  auto dataset = MakeDataset();
  auto bundle = data::MakeShoalInput(dataset);

  obs::MetricsRegistry::Global().Enable();
  auto model = Build(bundle, /*num_threads=*/2);
  auto& registry = obs::MetricsRegistry::Global();

  EXPECT_EQ(registry.GetCounter("hac.rounds").value(),
            model.stats().hac.rounds);
  EXPECT_EQ(registry.GetCounter("hac.merges").value(),
            model.stats().hac.total_merges);
  EXPECT_EQ(registry.GetCounter("shoal.builds").value(), 1u);
  EXPECT_GT(registry.GetGauge("hac.pool.peak_queue_depth").max(), 0.0);
  EXPECT_EQ(
      registry.GetHistogram("hac.round.merges").Snapshot().count,
      static_cast<size_t>(model.stats().hac.rounds));

  // The snapshot is parseable JSON carrying those names.
  auto parsed = util::JsonValue::Parse(registry.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->Find("counters"), nullptr);
  EXPECT_NE(parsed->Find("counters")->Find("hac.rounds"), nullptr);
  ASSERT_NE(parsed->Find("gauges"), nullptr);
  EXPECT_NE(parsed->Find("gauges")->Find("hac.pool.peak_queue_depth"),
            nullptr);
}

TEST_F(ObservabilityTest, BuildStatsJsonRoundTrips) {
  auto dataset = MakeDataset();
  auto bundle = data::MakeShoalInput(dataset);
  auto model = Build(bundle, /*num_threads=*/1);

  auto parsed = util::JsonValue::Parse(model.stats().ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue* hac = parsed->Find("hac");
  ASSERT_NE(hac, nullptr);
  EXPECT_DOUBLE_EQ(hac->Find("rounds")->number(),
                   static_cast<double>(model.stats().hac.rounds));
  const util::JsonValue* merges = hac->Find("merges_per_round");
  ASSERT_NE(merges, nullptr);
  ASSERT_TRUE(merges->is_array());
  EXPECT_EQ(merges->items().size(), model.stats().hac.merges_per_round.size());
  EXPECT_NE(parsed->Find("stage_seconds"), nullptr);
  EXPECT_NE(parsed->Find("entity_graph"), nullptr);
}

TEST_F(ObservabilityTest, DisabledObservabilityRecordsNothing) {
  auto dataset = MakeDataset();
  auto bundle = data::MakeShoalInput(dataset);
  (void)Build(bundle, /*num_threads=*/2);
  EXPECT_TRUE(obs::Tracer::Global().CollectEvents().empty());
  // Reset zeroes values but keeps names, so metrics registered by earlier
  // tests in the same process may still be listed: what matters is that
  // none of them recorded anything.
  auto snapshot =
      util::JsonValue::Parse(obs::MetricsRegistry::Global().ToJsonString());
  ASSERT_TRUE(snapshot.ok());
  for (const auto& [name, value] : snapshot->Find("counters")->members()) {
    EXPECT_EQ(value.number(), 0.0) << "counter " << name;
  }
  for (const auto& [name, value] : snapshot->Find("gauges")->members()) {
    EXPECT_EQ(value.Find("max")->number(), 0.0) << "gauge " << name;
  }
  for (const auto& [name, value] :
       snapshot->Find("histograms")->members()) {
    EXPECT_EQ(value.Find("count")->number(), 0.0) << "histogram " << name;
  }
}

}  // namespace
}  // namespace shoal
