// Failure-injection / fuzz-lite tests: the parsing and loading surfaces
// must reject arbitrary malformed input with a Status — never crash,
// never accept garbage silently.

#include <cctype>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/taxonomy_io.h"
#include "data/log_io.h"
#include "text/tokenizer.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/tsv.h"

namespace shoal {
namespace {

std::string RandomBytes(util::Rng& rng, size_t max_len) {
  size_t len = rng.Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.Uniform(256)));
  }
  return out;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs each case as its own process in
    // parallel, so a shared directory would let one case's TearDown
    // delete another's files mid-write.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_robustness_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(RobustnessTest, TokenizerNeverCrashesAndEmitsCleanTokens) {
  util::Rng rng(404);
  for (int round = 0; round < 500; ++round) {
    std::string input = RandomBytes(rng, 200);
    auto tokens = text::Tokenize(input);
    for (const std::string& token : tokens) {
      ASSERT_FALSE(token.empty());
      for (char c : token) {
        ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
        ASSERT_FALSE(std::isupper(static_cast<unsigned char>(c)));
      }
    }
  }
}

TEST_F(RobustnessTest, TaxonomyLoaderSurvivesGarbageDirectory) {
  util::Rng rng(408);
  for (const char* file : {"topics.tsv", "members.tsv", "categories.tsv",
                           "descriptions.tsv", "correlations.tsv"}) {
    ASSERT_TRUE(util::WriteTextFile(Path(file), RandomBytes(rng, 300)).ok());
  }
  auto result = core::LoadTaxonomy(dir_.string());
  // Random bytes virtually never form a valid bundle; a clean error is
  // required either way.
  if (!result.ok()) {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST_F(RobustnessTest, SearchLogImportSurvivesGarbageDirectory) {
  util::Rng rng(409);
  for (const char* file : {"items.tsv", "queries.tsv", "clicks.tsv"}) {
    ASSERT_TRUE(util::WriteTextFile(Path(file), RandomBytes(rng, 300)).ok());
  }
  auto result = data::ImportSearchLog(dir_.string());
  (void)result.ok();
}

TEST_F(RobustnessTest, FlagParserSurvivesRandomArgv) {
  util::Rng rng(410);
  for (int round = 0; round < 200; ++round) {
    util::FlagParser flags;
    flags.AddInt64("n", 1, "count");
    flags.AddDouble("x", 0.5, "value");
    flags.AddBool("b", false, "flag");
    flags.AddString("s", "", "text");
    std::vector<std::string> storage;
    storage.push_back("prog");
    size_t argc = 1 + rng.Uniform(6);
    for (size_t i = 1; i < argc; ++i) {
      // Printable-ish random arguments with a bias toward flag shapes.
      std::string arg = rng.Bernoulli(0.5) ? "--" : "";
      size_t len = rng.Uniform(12);
      for (size_t c = 0; c < len; ++c) {
        arg.push_back(static_cast<char>(33 + rng.Uniform(94)));
      }
      storage.push_back(std::move(arg));
    }
    std::vector<char*> argv;
    for (auto& s : storage) argv.push_back(s.data());
    auto status = flags.Parse(static_cast<int>(argv.size()), argv.data());
    (void)status.ok();  // must simply not crash
  }
}

TEST_F(RobustnessTest, TruncatedTaxonomyBundleFailsCleanly) {
  // A valid save with one file deleted must produce an IoError, not UB.
  core::Dendrogram d(4);
  uint32_t m01 = d.Merge(0, 1, 0.9).value();
  (void)d.Merge(m01, 2, 0.8).value();
  core::TaxonomyOptions options;
  options.min_topic_size = 2;
  options.min_root_size = 2;
  auto taxonomy = core::Taxonomy::Build(d, {1, 1, 2, 2}, options);
  auto correlations = core::CorrelationFromPairs({}).value();
  ASSERT_TRUE(core::SaveTaxonomy(taxonomy, correlations, dir_.string()).ok());
  std::filesystem::remove(Path("members.tsv"));
  auto result = core::LoadTaxonomy(dir_.string());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

}  // namespace
}  // namespace shoal
