// Crash-recovery contract (DESIGN.md §9): a checkpointed build writes
// one file, entity_graph.snap, and a build resumed from it — or rebuilt
// from scratch when the file is missing or corrupt — produces a
// dendrogram and taxonomy byte-identical to the uninterrupted build's,
// at any thread count.

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/pipeline.h"
#include "ckpt/snapshot.h"
#include "core/shoal.h"
#include "core/taxonomy_io.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
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

// A synthetic catalog and the pipeline input over it (the input borrows
// the dataset's vocabulary, so the two live together, in place).
struct Catalog {
  explicit Catalog(uint64_t seed, size_t entities = 300,
                   size_t queries = 250) {
    data::DatasetOptions data_options;
    data_options.num_entities = entities;
    data_options.num_queries = queries;
    data_options.num_clicks = entities * 50;
    data_options.seed = seed;
    auto generated = data::GenerateDataset(data_options);
    EXPECT_TRUE(generated.ok());
    dataset = std::move(generated).value();
    bundle = data::MakeShoalInput(dataset);
  }
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  core::ShoalInput View() const { return bundle.View(); }

  data::Dataset dataset;
  data::ShoalInputBundle bundle;
};

core::ShoalOptions BaseOptions() {
  core::ShoalOptions options;
  options.correlation.min_strength = 1;
  return options;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::Global().Reset();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_ckpt_resume_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir(const std::string& name) { return (dir_ / name).string(); }
  std::string Snapshot() { return Dir("ckpt/entity_graph.snap"); }

  // A checkpointed build into Dir("ckpt") that the injected `fault`
  // stops; the build must fail.
  void CrashedBuild(const Catalog& catalog, const std::string& fault) {
    core::ShoalOptions crashing = BaseOptions();
    ASSERT_TRUE(ckpt::AttachCheckpointing(Dir("ckpt"), crashing).ok());
    ASSERT_TRUE(util::FaultInjector::Global().Configure(fault).ok());
    auto crashed = core::BuildShoal(catalog.View(), crashing);
    util::FaultInjector::Global().Reset();
    ASSERT_FALSE(crashed.ok()) << fault;
  }

  // The snapshot on disk holds exactly `graph`.
  void ExpectSnapshotHolds(const graph::WeightedGraph& graph) {
    auto payload =
        ckpt::ReadSnapshotFile(Snapshot(), ckpt::SnapshotKind::kEntityGraph);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(*payload, ckpt::EncodeEntityGraph(graph));
  }

  std::filesystem::path dir_;
};

// Full pipeline: a checkpointed build aborted at HAC round 5 ->
// ResumeShoal at another thread count -> the persisted taxonomy
// artefacts are byte-identical to the uninterrupted build's (the same
// comparison the shoal_cli_crash_resume_smoke ctest makes after a real
// std::_Exit).
TEST_F(CheckpointResumeTest, PipelineAbortResumeProducesIdenticalArtefacts) {
  Catalog catalog(99, 400, 350);

  core::ShoalOptions options = BaseOptions();
  options.num_threads = 2;

  auto reference = core::BuildShoal(catalog.View(), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string ref_dir = Dir("tax_ref");
  ASSERT_TRUE(core::SaveTaxonomy(reference->taxonomy(),
                                 reference->correlations(), ref_dir)
                  .ok());

  CrashedBuild(catalog, "abort_at_round:5");
  ExpectSnapshotHolds(reference->entity_graph());

  // Resume at a different thread count; HAC and every later stage
  // re-run from the restored graph.
  core::ShoalOptions resume_options = options;
  resume_options.num_threads = 4;
  auto resumed =
      ckpt::ResumeShoal(catalog.View(), resume_options, Dir("ckpt"));
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

// A crash after HAC finished loses that HAC run: the resume restores the
// entity graph, skips word2vec and the graph build, and runs HAC again,
// which reproduces the same dendrogram in the same number of rounds.
TEST_F(CheckpointResumeTest, AbortAfterTaxonomyResumeRerunsHac) {
  Catalog catalog(7);
  auto reference = core::BuildShoal(catalog.View(), BaseOptions());
  ASSERT_TRUE(reference.ok());

  CrashedBuild(catalog, "abort_at_stage:taxonomy");

  auto resumed =
      ckpt::ResumeShoal(catalog.View(), BaseOptions(), Dir("ckpt"));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(resumed->dendrogram()),
            DendrogramBytes(reference->dendrogram()));
  EXPECT_EQ(resumed->stats().hac.rounds, reference->stats().hac.rounds);
  EXPECT_GT(resumed->stats().hac.rounds, 0u);
  // Restored, not rebuilt: the entity-graph stage recorded nothing.
  EXPECT_EQ(resumed->stats().entity_graph.kept_edges, 0u);
  EXPECT_GT(reference->stats().entity_graph.kept_edges, 0u);
}

// Attach removes another run's snapshot. Without that, this build's
// crash before its own graph landed would resume dataset 8's graph,
// which has the same entity count.
TEST_F(CheckpointResumeTest, StaleSnapshotIsRemovedAtAttach) {
  Catalog other(8);
  core::ShoalOptions other_options = BaseOptions();
  ASSERT_TRUE(ckpt::AttachCheckpointing(Dir("ckpt"), other_options).ok());
  auto other_model = core::BuildShoal(other.View(), other_options);
  ASSERT_TRUE(other_model.ok());
  ASSERT_TRUE(std::filesystem::exists(Snapshot()));

  Catalog catalog(7);
  auto reference = core::BuildShoal(catalog.View(), BaseOptions());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(other_model->entity_graph().num_vertices(),
            reference->entity_graph().num_vertices());
  ASSERT_NE(ckpt::EncodeEntityGraph(other_model->entity_graph()),
            ckpt::EncodeEntityGraph(reference->entity_graph()));

  CrashedBuild(catalog, "abort_at_stage:word2vec");
  EXPECT_FALSE(std::filesystem::exists(Snapshot()));

  auto resumed =
      ckpt::ResumeShoal(catalog.View(), BaseOptions(), Dir("ckpt"));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(resumed->dendrogram()),
            DendrogramBytes(reference->dendrogram()));
  // Built from scratch, and checkpointed as it went.
  EXPECT_GT(resumed->stats().entity_graph.kept_edges, 0u);
  ExpectSnapshotHolds(reference->entity_graph());
}

// A snapshot that fails its CRC is not resumed from: the resume runs a
// fresh checkpointed build, which rewrites the file.
TEST_F(CheckpointResumeTest, BitFlippedSnapshotResumesAsFreshBuild) {
  Catalog catalog(7);
  auto reference = core::BuildShoal(catalog.View(), BaseOptions());
  ASSERT_TRUE(reference.ok());

  CrashedBuild(catalog, "abort_at_stage:entity_graph");
  auto bytes = util::ReadTextFile(Snapshot());
  ASSERT_TRUE(bytes.ok());
  std::string tampered = bytes.value();
  tampered[tampered.size() / 2] ^= 0x01;
  ASSERT_TRUE(util::WriteTextFile(Snapshot(), tampered).ok());
  ASSERT_FALSE(
      ckpt::ReadSnapshotFile(Snapshot(), ckpt::SnapshotKind::kEntityGraph)
          .ok());

  auto resumed =
      ckpt::ResumeShoal(catalog.View(), BaseOptions(), Dir("ckpt"));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(DendrogramBytes(resumed->dendrogram()),
            DendrogramBytes(reference->dendrogram()));
  EXPECT_GT(resumed->stats().entity_graph.kept_edges, 0u);
  ExpectSnapshotHolds(reference->entity_graph());
}

// The snapshot write is the build's first atomic write; when it fails
// the build stops with that write's Status and leaves no file behind.
TEST_F(CheckpointResumeTest, FailedSnapshotWriteAbortsTheBuild) {
  Catalog catalog(7);
  core::ShoalOptions options = BaseOptions();
  ASSERT_TRUE(ckpt::AttachCheckpointing(Dir("ckpt"), options).ok());
  ASSERT_TRUE(
      util::FaultInjector::Global().Configure("fail_write_at:1").ok());
  auto result = core::BuildShoal(catalog.View(), options);
  util::FaultInjector::Global().Reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("entity_graph.snap"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(Snapshot()));
}

TEST_F(CheckpointResumeTest, MissingDirectoryIsNotFound) {
  Catalog catalog(7);
  auto resumed =
      ckpt::ResumeShoal(catalog.View(), BaseOptions(), Dir("no_such_dir"));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(Dir("no_such_dir")));
}

}  // namespace
}  // namespace shoal
