#include "data/log_io.h"

#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "core/shoal.h"
#include "util/tsv.h"

namespace shoal::data {
namespace {

class LogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: parallel ctest processes must not share a
    // directory that TearDown deletes.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("shoal_log_io_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Dataset MakeDataset() {
    DatasetOptions options;
    options.num_entities = 120;
    options.num_queries = 90;
    options.num_clicks = 3000;
    options.seed = 77;
    auto result = GenerateDataset(options);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }

  std::string dir_;
};

TEST_F(LogIoTest, ExportImportRoundTrip) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(ExportSearchLog(dataset, dir_).ok());
  auto log = ImportSearchLog(dir_);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->items.size(), dataset.entities.size());
  EXPECT_EQ(log->queries.size(), dataset.queries.size());
  EXPECT_EQ(log->clicks.size(), dataset.clicks.size());
  for (size_t i = 0; i < log->items.size(); ++i) {
    EXPECT_EQ(log->items[i].title, dataset.entities[i].title);
    EXPECT_EQ(log->items[i].category, dataset.entities[i].category);
    EXPECT_FALSE(log->items[i].title_words.empty());
  }
  for (size_t q = 0; q < log->queries.size(); ++q) {
    EXPECT_EQ(log->queries[q].text, dataset.queries[q].text);
  }
}

TEST_F(LogIoTest, ClicksSortedAfterImport) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(ExportSearchLog(dataset, dir_).ok());
  auto log = ImportSearchLog(dir_);
  ASSERT_TRUE(log.ok());
  uint64_t prev = 0;
  for (const auto& click : log->clicks) {
    EXPECT_GE(click.timestamp_sec, prev);
    prev = click.timestamp_sec;
  }
}

TEST_F(LogIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(ImportSearchLog(dir_ + "/nothing").ok());
}

TEST_F(LogIoTest, NonDenseItemIdsRejected) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(util::WriteTsv(dir_ + "/items.tsv",
                             {{"0", "1", "beach dress"},
                              {"2", "1", "skipped id"}})
                  .ok());
  ASSERT_TRUE(util::WriteTsv(dir_ + "/queries.tsv", {{"0", "beach"}}).ok());
  ASSERT_TRUE(util::WriteTsv(dir_ + "/clicks.tsv", {{"0", "0", "100"}}).ok());
  EXPECT_FALSE(ImportSearchLog(dir_).ok());
}

TEST_F(LogIoTest, UnknownClickIdsRejected) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(
      util::WriteTsv(dir_ + "/items.tsv", {{"0", "1", "beach dress"}}).ok());
  ASSERT_TRUE(util::WriteTsv(dir_ + "/queries.tsv", {{"0", "beach"}}).ok());
  ASSERT_TRUE(
      util::WriteTsv(dir_ + "/clicks.tsv", {{"0", "9", "100"}}).ok());
  EXPECT_FALSE(ImportSearchLog(dir_).ok());
}

TEST_F(LogIoTest, EmptyItemsRejected) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(util::WriteTsv(dir_ + "/items.tsv", {}).ok());
  ASSERT_TRUE(util::WriteTsv(dir_ + "/queries.tsv", {{"0", "beach"}}).ok());
  ASSERT_TRUE(util::WriteTsv(dir_ + "/clicks.tsv", {}).ok());
  EXPECT_FALSE(ImportSearchLog(dir_).ok());
}

TEST_F(LogIoTest, BundleFeedsPipeline) {
  // End-to-end: exported log -> import -> bundle -> BuildShoal succeeds
  // and produces a plausible taxonomy.
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(ExportSearchLog(dataset, dir_).ok());
  auto log = ImportSearchLog(dir_);
  ASSERT_TRUE(log.ok());
  auto bundle = MakeShoalInputFromLog(*log, /*window_days=*/30.0);
  EXPECT_EQ(bundle.query_item_graph.num_right(), log->items.size());
  EXPECT_GT(bundle.query_item_graph.num_edges(), 0u);
  auto model = core::BuildShoal(bundle.View(), core::ShoalOptions{});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->taxonomy().num_topics(), 0u);
}

TEST_F(LogIoTest, WindowFiltersClicks) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(ExportSearchLog(dataset, dir_).ok());
  auto log = ImportSearchLog(dir_);
  ASSERT_TRUE(log.ok());
  auto wide = MakeShoalInputFromLog(*log, 30.0);
  auto narrow = MakeShoalInputFromLog(*log, 2.0);
  EXPECT_GT(wide.query_item_graph.total_interactions(),
            narrow.query_item_graph.total_interactions());
}

TEST_F(LogIoTest, WindowLongerThanLogTakesEveryClick) {
  Dataset dataset = MakeDataset();
  ASSERT_TRUE(ExportSearchLog(dataset, dir_).ok());
  auto log = ImportSearchLog(dir_);
  ASSERT_TRUE(log.ok());
  // 1e300 days is far past 2^64 seconds: the window must still cover
  // the whole log, not wrap to an empty one.
  for (double days : {1e6, 1e300, std::numeric_limits<double>::infinity()}) {
    auto bundle = MakeShoalInputFromLog(*log, days);
    EXPECT_EQ(bundle.query_item_graph.total_interactions(),
              log->clicks.size())
        << days;
  }
  // A window that is NaN or not positive takes no click.
  for (double days : {0.0, -1.0, -1e300,
                      std::numeric_limits<double>::quiet_NaN()}) {
    auto bundle = MakeShoalInputFromLog(*log, days);
    EXPECT_EQ(bundle.query_item_graph.total_interactions(), 0u) << days;
  }
  // In range, the window still starts exactly `days` before the end.
  EXPECT_EQ(WindowBeginSec(10 * 86400, 7.0), 3u * 86400);
  EXPECT_EQ(WindowBeginSec(7 * 86400, 7.0), 0u);
}

}  // namespace
}  // namespace shoal::data
