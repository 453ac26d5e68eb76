// End-to-end TaxonomyDaemon cycles over a planted drift workload: the
// maintained entity graph must match a from-scratch build of every
// window, published indexes must be byte-identical at any thread count,
// a daemon restored from its snapshot must continue exactly where the
// original process would have, and a traced cycle splits into one span
// per phase.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.h"
#include "core/entity_graph.h"
#include "daemon/daemon.h"
#include "data/drift_log.h"
#include "obs/trace.h"
#include "serve/serving_index.h"
#include "testutil/graph_compare.h"
#include "util/tsv.h"

namespace shoal::daemon {
namespace {

class DaemonCycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: parallel ctest processes must not share a
    // directory that TearDown deletes.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("shoal_daemon_cycle_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static data::DriftLog MakeLog(size_t num_days,
                                size_t drift_clicks_per_day = 600) {
    data::DriftOptions options;
    options.catalog.num_entities = 220;
    options.catalog.num_queries = 160;
    options.catalog.seed = 2019;
    options.num_days = num_days;
    options.background_pairs = 1500;
    options.drift_clicks_per_day = drift_clicks_per_day;
    auto generated = data::GenerateDriftLog(options);
    EXPECT_TRUE(generated.ok());
    return std::move(generated).value();
  }

  // Spool with the catalog and days [0, num_days) already arrived.
  std::string MakeSpool(const data::DriftLog& log, size_t num_days,
                        const std::string& name) {
    const std::string spool = dir_ + "/" + name;
    std::filesystem::create_directories(spool);
    EXPECT_TRUE(data::ExportDriftCatalog(log, spool).ok());
    for (size_t d = 0; d < num_days; ++d) {
      EXPECT_TRUE(data::ExportDriftDay(log, d, spool).ok());
    }
    return spool;
  }

  DaemonOptions MakeOptions(const std::string& spool,
                            const std::string& tag) {
    DaemonOptions options;
    options.spool_dir = spool;
    options.index_path = dir_ + "/" + tag + ".idx";
    options.snapshot_path = dir_ + "/" + tag + ".snap";
    options.window_days = 3;
    return options;
  }

  static std::string FileBytes(const std::string& path) {
    auto read = util::ReadTextFile(path);
    EXPECT_TRUE(read.ok()) << path;
    return read.ok() ? std::move(read).value() : std::string();
  }

  std::string dir_;
};

TEST_F(DaemonCycleTest, MaintainedGraphMatchesFromScratchEveryCycle) {
  auto log = MakeLog(/*num_days=*/5);
  const std::string spool = MakeSpool(log, 5, "spool");
  DaemonOptions options = MakeOptions(spool, "a");
  auto created = TaxonomyDaemon::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto& daemon = *created.value();

  for (size_t d = 0; d < 5; ++d) {
    auto report = daemon.RunOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->has_value()) << "day " << d;
    EXPECT_EQ((*report)->day_file, data::DriftDayFileName(d));
    EXPECT_EQ((*report)->published_version, d + 1);
    EXPECT_EQ((*report)->full_rebuild, d == 0);
    EXPECT_GT((*report)->num_topics, 0u);
    EXPECT_EQ((*report)->touched_topics + (*report)->carried_topics,
              (*report)->num_topics);

    const size_t begin = d + 1 >= options.window_days
                             ? d + 1 - options.window_days
                             : 0;
    auto reference = core::BuildEntityGraph(
        data::BuildWindowGraph(log, begin, d + 1), daemon.title_words(),
        daemon.word_vectors(), options.entity_graph);
    ASSERT_TRUE(reference.ok());
    auto maintained = daemon.graph().Materialize();
    ASSERT_TRUE(maintained.ok());
    testutil::ExpectSameWeightedGraph(*reference, *maintained,
                                      "day " + std::to_string(d));
  }
  // Later cycles must ride on the standing state, not rebuild: with the
  // drift workload's stationary background, most topics carry over.
  auto drained = daemon.RunOnce();
  ASSERT_TRUE(drained.ok());
  EXPECT_FALSE(drained->has_value()) << "spool should be drained";
}

TEST_F(DaemonCycleTest, PublishedIndexByteIdenticalAcrossThreadCounts) {
  auto log = MakeLog(/*num_days=*/4);
  const std::string spool = MakeSpool(log, 4, "spool");
  std::vector<std::string> final_images;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::string tag = "t";
    tag += std::to_string(threads);
    DaemonOptions options = MakeOptions(spool, tag);
    options.num_threads = threads;
    auto created = TaxonomyDaemon::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto& daemon = *created.value();
    while (true) {
      auto report = daemon.RunOnce();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      if (!report->has_value()) break;
    }
    EXPECT_EQ(daemon.published_version(), 4u);
    final_images.push_back(FileBytes(options.index_path));
  }
  for (size_t i = 1; i < final_images.size(); ++i) {
    EXPECT_EQ(final_images[0], final_images[i])
        << "published index diverged at thread variant " << i;
  }
}

TEST_F(DaemonCycleTest, SnapshotRestoreContinuesByteIdentically) {
  auto log = MakeLog(/*num_days=*/4);
  // Both spools start with days 1-3; day 4 arrives later in each.
  const std::string spool_a = MakeSpool(log, 3, "spool_a");
  const std::string spool_b = MakeSpool(log, 3, "spool_b");

  DaemonOptions options_a = MakeOptions(spool_a, "a");
  auto created_a = TaxonomyDaemon::Create(options_a);
  ASSERT_TRUE(created_a.ok()) << created_a.status().ToString();
  auto& daemon_a = *created_a.value();
  for (int i = 0; i < 3; ++i) {
    auto report = daemon_a.RunOnce();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
  }

  // A second process picks up A's snapshot (same options, own spool and
  // index paths so the two do not race).
  DaemonOptions options_b = MakeOptions(spool_b, "b");
  options_b.snapshot_path = options_a.snapshot_path;
  auto created_b = TaxonomyDaemon::Create(options_b);
  ASSERT_TRUE(created_b.ok()) << created_b.status().ToString();
  auto& daemon_b = *created_b.value();
  EXPECT_TRUE(daemon_b.restored_from_snapshot());
  EXPECT_EQ(daemon_b.cycles_done(), 3u);
  EXPECT_EQ(daemon_b.published_version(), 3u);

  // The restored standing store matches the live one bit for bit.
  auto store_a = daemon_a.graph().StoreEdges();
  auto store_b = daemon_b.graph().StoreEdges();
  ASSERT_EQ(store_a.size(), store_b.size());
  for (size_t i = 0; i < store_a.size(); ++i) {
    EXPECT_EQ(store_a[i].u, store_b[i].u);
    EXPECT_EQ(store_a[i].v, store_b[i].v);
    EXPECT_EQ(store_a[i].s, store_b[i].s);
  }

  // Nothing new in B's spool yet: the restore must not re-consume days.
  auto idle = daemon_b.RunOnce();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->has_value());

  // Day 4 arrives in both worlds; the continued process and the
  // restored process must publish identical bytes.
  ASSERT_TRUE(data::ExportDriftDay(log, 3, spool_a).ok());
  ASSERT_TRUE(data::ExportDriftDay(log, 3, spool_b).ok());
  auto report_a = daemon_a.RunOnce();
  ASSERT_TRUE(report_a.ok());
  ASSERT_TRUE(report_a->has_value());
  auto report_b = daemon_b.RunOnce();
  ASSERT_TRUE(report_b.ok());
  ASSERT_TRUE(report_b->has_value());
  EXPECT_EQ((*report_a)->published_version, (*report_b)->published_version);
  EXPECT_EQ(FileBytes(options_a.index_path), FileBytes(options_b.index_path));
}

TEST_F(DaemonCycleTest, OptionsSkewAgainstSnapshotIsRejected) {
  auto log = MakeLog(/*num_days=*/4);
  const std::string spool = MakeSpool(log, 4, "spool");
  DaemonOptions options = MakeOptions(spool, "a");
  auto created = TaxonomyDaemon::Create(options);
  ASSERT_TRUE(created.ok());
  // Four cycles: the 3-day window has filled and retired a day.
  for (int i = 0; i < 4; ++i) {
    auto report = (*created)->RunOnce();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
  }

  std::vector<DaemonOptions> skewed(3, options);
  skewed[0].entity_graph.similarity_threshold += 0.1;
  // Restored as a 2-day window, the 3 standing days would never retire
  // one; as a 4-day window, it would hold a day an uninterrupted run
  // had retired.
  skewed[1].window_days = 2;
  skewed[2].window_days = 4;
  for (size_t i = 0; i < skewed.size(); ++i) {
    auto rejected = TaxonomyDaemon::Create(skewed[i]);
    ASSERT_FALSE(rejected.ok()) << "case " << i;
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

// A well-framed snapshot of another kind at the snapshot path is
// refused by the frame reader before any restore runs.
TEST_F(DaemonCycleTest, SnapshotOfAnotherKindIsRejected) {
  auto log = MakeLog(/*num_days=*/1);
  const std::string spool = MakeSpool(log, 1, "spool");
  DaemonOptions options = MakeOptions(spool, "a");
  graph::WeightedGraph graph(2);
  ASSERT_TRUE(graph.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(ckpt::WriteSnapshotFile(options.snapshot_path,
                                      ckpt::SnapshotKind::kEntityGraph,
                                      ckpt::EncodeEntityGraph(graph))
                  .ok());
  auto rejected = TaxonomyDaemon::Create(options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("expected daemon_window"),
            std::string::npos)
      << rejected.status().ToString();
}

// A snapshot taken while the window is still filling holds every day
// consumed so far, so any window at least that long resumes it as an
// uninterrupted run of that length would go on; a shorter one does not.
TEST_F(DaemonCycleTest, FillingWindowSnapshotRestoresUnderALongerWindow) {
  auto log = MakeLog(/*num_days=*/4);
  const std::string spool = MakeSpool(log, 4, "spool");
  DaemonOptions first = MakeOptions(spool, "a");  // a 3-day window
  {
    auto created = TaxonomyDaemon::Create(first);
    ASSERT_TRUE(created.ok());
    for (int i = 0; i < 2; ++i) {
      auto report = (*created)->RunOnce();
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->has_value());
    }
  }

  DaemonOptions shorter = MakeOptions(spool, "b");
  shorter.snapshot_path = first.snapshot_path;
  shorter.window_days = 1;
  auto rejected = TaxonomyDaemon::Create(shorter);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);

  DaemonOptions longer = shorter;
  longer.window_days = 4;
  auto restored = TaxonomyDaemon::Create(longer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->restored_from_snapshot());
  DaemonOptions fresh = MakeOptions(spool, "c");
  fresh.window_days = 4;
  auto uninterrupted = TaxonomyDaemon::Create(fresh);
  ASSERT_TRUE(uninterrupted.ok());
  for (int i = 0; i < 2; ++i) {
    auto report = (*uninterrupted)->RunOnce();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
  }
  for (int i = 0; i < 2; ++i) {
    auto resumed = (*restored)->RunOnce();
    auto reference = (*uninterrupted)->RunOnce();
    ASSERT_TRUE(resumed.ok() && reference.ok());
    ASSERT_TRUE(resumed->has_value() && reference->has_value());
    EXPECT_EQ((*resumed)->window_days, (*reference)->window_days);
    EXPECT_EQ(FileBytes(longer.index_path), FileBytes(fresh.index_path))
        << "cycle " << i;
  }
}

TEST_F(DaemonCycleTest, DriftKeepsMostTopicsCarried) {
  auto log = MakeLog(/*num_days=*/5);
  const std::string spool = MakeSpool(log, 5, "spool");
  DaemonOptions options = MakeOptions(spool, "a");
  auto created = TaxonomyDaemon::Create(options);
  ASSERT_TRUE(created.ok());
  auto& daemon = *created.value();
  // Warm up through the first full window.
  for (int i = 0; i < 3; ++i) {
    auto report = daemon.RunOnce();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
  }
  // Steady-state cycles: the stationary background cancels out of the
  // delta, so a healthy fraction of topics must ride across untouched.
  for (int i = 0; i < 2; ++i) {
    auto report = daemon.RunOnce();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->has_value());
    EXPECT_LT((*report)->dirty_fraction, 1.0);
    EXPECT_GT((*report)->carried_topics, 0u);
    EXPECT_GT((*report)->delta.delta_entries, 0u);
  }
}

// The daemon publishes the compile of the taxonomy it keeps: after every
// cycle and after a restore, the taxonomy carries the rankings its
// descriptions were written from, and compiling it reproduces the
// published file byte for byte. The low-churn log carries topics, so
// carried rankings reach the compile.
TEST_F(DaemonCycleTest, PublishesTheCompileOfItsTaxonomy) {
  auto log = MakeLog(/*num_days=*/5, /*drift_clicks_per_day=*/100);
  const std::string spool = MakeSpool(log, 5, "spool");
  DaemonOptions options = MakeOptions(spool, "a");
  auto created = TaxonomyDaemon::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto& daemon = *created.value();
  std::vector<std::string> query_texts;
  for (const auto& query : daemon.catalog().queries) {
    query_texts.push_back(query.text);
  }
  std::vector<uint32_t> categories;
  for (const auto& item : daemon.catalog().items) {
    categories.push_back(item.category);
  }
  auto expect_published_compile = [&](const TaxonomyDaemon& live) {
    ASSERT_NE(live.taxonomy().rankings(), nullptr);
    core::DescriberInput input;
    input.query_texts = &query_texts;
    serve::CompileOptions compile_options;
    compile_options.version = live.published_version();
    compile_options.max_postings_per_query = options.max_postings_per_query;
    auto data = serve::CompileServingIndex(live.taxonomy(), input,
                                           options.describer, &categories,
                                           compile_options);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    auto image = serve::EncodeServingIndexFile(*data);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    EXPECT_TRUE(*image == FileBytes(options.index_path));
  };

  size_t carrying_cycles = 0;
  for (size_t d = 0; d < 5; ++d) {
    SCOPED_TRACE(d);
    auto report = daemon.RunOnce();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->has_value());
    expect_published_compile(daemon);
    if ((*report)->carried_topics > 0) ++carrying_cycles;
  }
  EXPECT_GT(carrying_cycles, 0u);

  DaemonOptions restart = MakeOptions(spool, "b");
  restart.snapshot_path = options.snapshot_path;
  auto restored = TaxonomyDaemon::Create(restart);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*restored)->restored_from_snapshot());
  expect_published_compile(**restored);
}

// A traced cycle opens one child span per phase, each one level under
// daemon.cycle and inside its interval, so the phases never add up to
// more than the cycle.
TEST_F(DaemonCycleTest, TracedCycleHasOneSpanPerPhase) {
  auto log = MakeLog(/*num_days=*/2);
  const std::string spool = MakeSpool(log, 2, "spool");
  auto created = TaxonomyDaemon::Create(MakeOptions(spool, "a"));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto& daemon = *created.value();
  auto first = daemon.RunOnce();
  ASSERT_TRUE(first.ok() && first->has_value());

  // The tracer is process-wide: leave it off and empty whatever happens.
  struct TracerReset {
    ~TracerReset() {
      obs::Tracer::Global().Disable();
      obs::Tracer::Global().Clear();
    }
  } reset;
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  auto report = daemon.RunOnce();
  obs::Tracer::Global().Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->has_value());
  EXPECT_FALSE((*report)->full_rebuild);
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::Global().CollectEvents();

  const obs::TraceEvent* cycle = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "daemon.cycle") continue;
    ASSERT_EQ(cycle, nullptr) << "more than one daemon.cycle span";
    cycle = &e;
  }
  ASSERT_NE(cycle, nullptr);
  uint64_t phase_us = 0;
  for (const char* phase : {"daemon.ingest", "daemon.delta",
                            "daemon.materialize", "daemon.splice",
                            "daemon.describe", "daemon.publish",
                            "daemon.snapshot"}) {
    size_t seen = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.name != phase) continue;
      ++seen;
      EXPECT_EQ(e.thread_id, cycle->thread_id) << phase;
      EXPECT_EQ(e.depth, cycle->depth + 1) << phase;
      EXPECT_GE(e.start_us, cycle->start_us) << phase;
      EXPECT_LE(e.start_us + e.duration_us,
                cycle->start_us + cycle->duration_us)
          << phase;
      phase_us += e.duration_us;
    }
    EXPECT_EQ(seen, 1u) << phase;
  }
  EXPECT_LE(phase_us, cycle->duration_us);
}

}  // namespace
}  // namespace shoal::daemon
