// Crash-recovery contract (DESIGN.md §9): a run resumed from any
// checkpoint — in memory or from disk, at any thread count —
// produces a dendrogram and taxonomy byte-identical to the
// uninterrupted run's.

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/pipeline.h"
#include "ckpt/snapshot.h"
#include "core/parallel_hac.h"
#include "core/shoal.h"
#include "core/taxonomy_io.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "graph/generators.h"
#include "util/fault.h"
#include "util/tsv.h"

namespace shoal {
namespace {

using DendrogramImage =
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                           double>>;

DendrogramImage DendrogramBytes(const core::Dendrogram& d) {
  DendrogramImage out;
  out.reserve(d.num_nodes());
  for (uint32_t i = 0; i < d.num_nodes(); ++i) {
    const auto& n = d.node(i);
    // Exact doubles: resumed runs must match bit-for-bit.
    out.emplace_back(n.id, n.parent, n.left, n.right, n.size,
                     n.merge_similarity);
  }
  return out;
}

graph::WeightedGraph TestGraph(uint64_t seed) {
  graph::PlantedPartitionOptions po;
  po.num_vertices = 200;
  po.num_clusters = 10;
  po.p_in = 0.45;
  po.p_out = 0.01;
  po.mu_in = 0.8;
  po.seed = seed;
  auto result = graph::GeneratePlantedPartition(po);
  EXPECT_TRUE(result.ok());
  return std::move(result->graph);
}

core::ParallelHacOptions BaseOptions() {
  core::ParallelHacOptions options;
  options.hac.threshold = 0.3;
  options.num_threads = 2;
  return options;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::Global().Reset();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_ckpt_resume_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// The tentpole guarantee: resume from EVERY round's snapshot, across a
// thread sweep, and require the identical dendrogram.
TEST_F(CheckpointResumeTest, ResumeFromEveryRoundIsByteIdentical) {
  auto graph = TestGraph(17);

  core::ParallelHacOptions options = BaseOptions();
  options.checkpoint_every = 1;
  std::vector<ckpt::HacSnapshotData> snapshots;
  options.checkpoint_hook = [&](const core::HacProgress& progress) {
    if (!progress.finished) {
      snapshots.push_back(ckpt::CaptureHacSnapshot(progress, options));
    }
    return util::Status::OK();
  };
  core::ParallelHacStats reference_stats;
  auto reference = core::ParallelHac(graph, options, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const DendrogramImage reference_bytes = DendrogramBytes(*reference);
  ASSERT_GE(snapshots.size(), 3u) << "graph too easy: not enough rounds";

  core::ParallelHacOptions resume_options = BaseOptions();
  for (const ckpt::HacSnapshotData& snapshot : snapshots) {
    for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      resume_options.num_threads = threads;
      auto state = ckpt::RestoreHacState(snapshot, resume_options);
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      core::ParallelHacStats stats;
      auto resumed = core::ResumeParallelHac(
          resume_options, std::move(state).value(), &stats);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(DendrogramBytes(*resumed), reference_bytes)
          << "round=" << snapshot.rounds_done << " threads=" << threads;
      // The resumed run's cumulative stats match the uninterrupted
      // run's (merge trace included) — they describe the same logical
      // execution.
      EXPECT_EQ(stats.rounds, reference_stats.rounds);
      EXPECT_EQ(stats.total_merges, reference_stats.total_merges);
      EXPECT_EQ(stats.merges_per_round, reference_stats.merges_per_round);
    }
  }
}

// An injected abort mid-run, snapshots committed to disk, recovery via
// LoadCheckpoint: the disk round-trip must preserve identity too.
TEST_F(CheckpointResumeTest, AbortThenDiskResumeIsByteIdentical) {
  auto graph = TestGraph(29);

  core::ParallelHacOptions options = BaseOptions();
  auto uninterrupted = core::ParallelHac(graph, options);
  ASSERT_TRUE(uninterrupted.ok());
  const DendrogramImage reference_bytes = DendrogramBytes(*uninterrupted);

  const std::string dir = Dir("hac_ckpt");
  {
    auto opened = ckpt::CheckpointWriter::Open(dir, /*resume=*/false);
    ASSERT_TRUE(opened.ok());
    auto writer = std::make_shared<ckpt::CheckpointWriter>(
        std::move(opened).value());
    core::ParallelHacOptions crashing = options;
    crashing.checkpoint_every = 2;
    crashing.checkpoint_hook = [writer, &options](
                                   const core::HacProgress& progress) {
      return writer->WriteHacSnapshot(
          ckpt::CaptureHacSnapshot(progress, options));
    };
    ASSERT_TRUE(
        util::FaultInjector::Global().Configure("abort_at_round:5").ok());
    auto crashed = core::ParallelHac(graph, crashing);
    util::FaultInjector::Global().Reset();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), util::StatusCode::kInternal);
  }

  auto loaded = ckpt::LoadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->hac.has_value());
  EXPECT_EQ(loaded->hac->rounds_done, 4u);
  auto state = ckpt::RestoreHacState(*loaded->hac, options);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  auto resumed =
      core::ResumeParallelHac(options, std::move(state).value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(*resumed), reference_bytes);
}

TEST_F(CheckpointResumeTest, ResumeRejectsMismatchedThreshold) {
  auto graph = TestGraph(31);
  core::ParallelHacOptions options = BaseOptions();
  options.checkpoint_every = 1;
  std::vector<ckpt::HacSnapshotData> snapshots;
  options.checkpoint_hook = [&](const core::HacProgress& progress) {
    snapshots.push_back(ckpt::CaptureHacSnapshot(progress, options));
    return util::Status::OK();
  };
  ASSERT_TRUE(core::ParallelHac(graph, options).ok());
  ASSERT_FALSE(snapshots.empty());

  core::ParallelHacOptions other = BaseOptions();
  other.hac.threshold = 0.5;
  EXPECT_EQ(ckpt::RestoreHacState(snapshots.front(), other).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointResumeTest, FailingHookAbortsTheRun) {
  auto graph = TestGraph(37);
  core::ParallelHacOptions options = BaseOptions();
  options.checkpoint_every = 1;
  options.checkpoint_hook = [](const core::HacProgress&) {
    return util::Status::IoError("disk full");
  };
  auto result = core::ParallelHac(graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

// Full pipeline: interrupted checkpointed build -> ResumeShoal -> the
// persisted taxonomy artefacts are byte-identical to the uninterrupted
// build's (the same comparison the CI crash-recovery smoke job makes
// after a real SIGKILL-style _Exit).
TEST_F(CheckpointResumeTest, PipelineAbortResumeProducesIdenticalArtefacts) {
  data::DatasetOptions data_options;
  data_options.num_entities = 400;
  data_options.num_queries = 350;
  data_options.num_clicks = 20000;
  data_options.seed = 99;
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok());
  auto bundle = data::MakeShoalInput(*dataset);

  core::ShoalOptions options;
  options.correlation.min_strength = 1;
  options.num_threads = 2;

  auto reference = core::BuildShoal(bundle.View(), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string ref_dir = Dir("tax_ref");
  ASSERT_TRUE(core::SaveTaxonomy(reference->taxonomy(),
                                 reference->correlations(), ref_dir)
                  .ok());

  const std::string ckpt_dir = Dir("ckpt");
  {
    core::ShoalOptions crashing = options;
    ASSERT_TRUE(ckpt::AttachCheckpointing(ckpt_dir, /*checkpoint_every=*/2,
                                          /*resume=*/false, crashing)
                    .ok());
    ASSERT_TRUE(
        util::FaultInjector::Global().Configure("abort_at_round:5").ok());
    auto crashed = core::BuildShoal(bundle.View(), crashing);
    util::FaultInjector::Global().Reset();
    ASSERT_FALSE(crashed.ok());
  }

  // Resume at a different thread count; downstream stages re-run.
  core::ShoalOptions resume_options = options;
  resume_options.num_threads = 4;
  auto resumed = ckpt::ResumeShoal(bundle.View(), resume_options, ckpt_dir,
                                   /*checkpoint_every=*/2);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(resumed->dendrogram()),
            DendrogramBytes(reference->dendrogram()));

  const std::string resumed_dir = Dir("tax_resumed");
  ASSERT_TRUE(core::SaveTaxonomy(resumed->taxonomy(),
                                 resumed->correlations(), resumed_dir)
                  .ok());
  for (const auto& entry : std::filesystem::directory_iterator(ref_dir)) {
    const std::string name = entry.path().filename().string();
    auto ref_bytes = util::ReadTextFile((entry.path()).string());
    auto res_bytes = util::ReadTextFile(
        (std::filesystem::path(resumed_dir) / name).string());
    ASSERT_TRUE(ref_bytes.ok());
    ASSERT_TRUE(res_bytes.ok()) << name << " missing from resumed build";
    EXPECT_EQ(ref_bytes.value(), res_bytes.value()) << name;
  }
}

// A crash after HAC finished resumes without redoing HAC (the finished
// snapshot short-circuits the round loop) and still matches.
TEST_F(CheckpointResumeTest, ResumeAfterHacFinishedSkipsRecomputation) {
  data::DatasetOptions data_options;
  data_options.num_entities = 300;
  data_options.num_queries = 250;
  data_options.num_clicks = 15000;
  data_options.seed = 7;
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok());
  auto bundle = data::MakeShoalInput(*dataset);

  core::ShoalOptions options;
  options.correlation.min_strength = 1;
  auto reference = core::BuildShoal(bundle.View(), options);
  ASSERT_TRUE(reference.ok());

  const std::string ckpt_dir = Dir("ckpt");
  {
    core::ShoalOptions crashing = options;
    ASSERT_TRUE(ckpt::AttachCheckpointing(ckpt_dir, 50, false, crashing)
                    .ok());
    // Fail right after the taxonomy stage: HAC state is already
    // committed with finished=true.
    ASSERT_TRUE(util::FaultInjector::Global()
                    .Configure("abort_at_stage:taxonomy")
                    .ok());
    auto crashed = core::BuildShoal(bundle.View(), crashing);
    util::FaultInjector::Global().Reset();
    ASSERT_FALSE(crashed.ok());
  }

  auto loaded = ckpt::LoadCheckpoint(ckpt_dir);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->hac.has_value());
  EXPECT_TRUE(loaded->hac->finished);

  auto resumed = ckpt::ResumeShoal(bundle.View(), options, ckpt_dir, 50);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(resumed->dendrogram()),
            DendrogramBytes(reference->dendrogram()));
  // No rounds were re-run: the resumed stats still record the full
  // original trace, not a re-execution.
  EXPECT_EQ(resumed->stats().hac.rounds, reference->stats().hac.rounds);
}

}  // namespace
}  // namespace shoal
