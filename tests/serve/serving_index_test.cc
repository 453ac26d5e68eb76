#include "serve/serving_index.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/shoal.h"
#include "core/taxonomy_io.h"
#include "core/topic_describer.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "serve_test_util.h"
#include "text/normalize.h"
#include "util/tsv.h"

namespace shoal::serve {
namespace {

TEST(ServingIndexCompileTest, CompilesFixture) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto index = data->Build();
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_topics(), f.taxonomy.num_topics());
  EXPECT_EQ(index->num_entities(), 4u);
  EXPECT_GT(index->num_queries(), 0u);
  EXPECT_EQ(index->roots().size(), 2u);
  EXPECT_FALSE(index->mmap_backed());
  EXPECT_GT(index->resident_bytes(), 0u);
  for (uint32_t e = 0; e < 4; ++e) {
    EXPECT_EQ(index->entity_topic(e), f.taxonomy.TopicOfEntity(e));
    EXPECT_EQ(index->entity_category(e), f.categories[e]);
  }
}

TEST(ServingIndexCompileTest, NullCategoriesBecomeNoCategory) {
  ServeFixture f;
  auto data = CompileServingIndex(f.taxonomy, f.Input(),
                                  core::DescriberOptions(), nullptr,
                                  CompileOptions());
  ASSERT_TRUE(data.ok());
  for (uint32_t e = 0; e < 4; ++e) {
    EXPECT_EQ(data->entity_category[e], kNoCategoryId);
  }
}

// The acceptance criterion of the serving tier: for every interned
// query, the first posting is the argmax over topics of the offline
// r(q, t) produced by TopicDescriber.
TEST(ServingIndexCompileTest, TopPostingIsOfflineArgmax) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  const core::TopicRankings* rankings = f.taxonomy.rankings();
  ASSERT_NE(rankings, nullptr);

  for (size_t q = 0; q < data->query_text.size(); ++q) {
    ASSERT_FALSE(data->posting_list[q].empty());
    // Recover the original query id through the raw text (interning
    // preserves the text verbatim).
    const std::string& raw = data->query_text[q];
    auto it = std::find(f.query_texts.begin(), f.query_texts.end(), raw);
    ASSERT_NE(it, f.query_texts.end());
    const uint32_t original =
        static_cast<uint32_t>(it - f.query_texts.begin());
    double best_score = -1.0;
    uint32_t best_topic = core::kNoTopic;
    for (uint32_t t = 0; t < f.taxonomy.num_topics(); ++t) {
      for (const auto& entry : rankings->by_topic[t]) {
        if (entry.query != original) continue;
        if (entry.representativeness > best_score ||
            (entry.representativeness == best_score && t < best_topic)) {
          best_score = entry.representativeness;
          best_topic = t;
        }
      }
    }
    EXPECT_EQ(data->posting_list[q].front().topic, best_topic)
        << "query \"" << raw << "\"";
    EXPECT_DOUBLE_EQ(data->posting_list[q].front().score, best_score);
  }
}

// The inversion checks every ranked query id against the dictionary it
// is handed, which need not be the one the taxonomy was described with;
// it does not lean on the checks at encode time.
TEST(ServingIndexCompileTest, CompileRejectsRankedQueryOutsideDictionary) {
  ServeFixture f;
  std::vector<std::string> short_dictionary = f.query_texts;
  short_dictionary.pop_back();
  core::DescriberInput input = f.Input();
  input.query_texts = &short_dictionary;
  auto data = CompileServingIndex(f.taxonomy, input, core::DescriberOptions(),
                                  &f.categories, CompileOptions());
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), util::StatusCode::kOutOfRange);
}

core::DescriberInput DescriberInputOf(const core::ShoalInput& input,
                                      const core::Taxonomy* taxonomy) {
  core::DescriberInput describe_input;
  describe_input.taxonomy = taxonomy;
  describe_input.query_item_graph = input.query_item_graph;
  describe_input.query_words = input.query_words;
  describe_input.query_texts = input.query_texts;
  describe_input.entity_title_words = input.entity_title_words;
  return describe_input;
}

// The compile path before the rankings were stored, kept as the
// reference: describe a private copy of the taxonomy again and compile
// the copy, whose rankings are that second pass's.
util::Result<std::string> DescribeAgainImage(const core::Taxonomy& taxonomy,
                                             const core::ShoalInput& input) {
  core::Taxonomy scored = taxonomy;
  const core::DescriberInput describe_input = DescriberInputOf(input, &scored);
  SHOAL_RETURN_IF_ERROR(core::TopicDescriber::Describe(
                            scored, describe_input, core::DescriberOptions())
                            .status());
  SHOAL_ASSIGN_OR_RETURN(
      ServingIndexData data,
      CompileServingIndex(scored, describe_input, core::DescriberOptions(),
                          input.entity_categories, CompileOptions()));
  return EncodeServingIndexFile(data);
}

// Compiling a built model reads the rankings its describe pass stored,
// and the image is byte-equal to describing a copy again.
TEST(ServingIndexCompileTest, StoredRankingsCompileToTheDescribeAgainImage) {
  data::DatasetOptions data_options;
  data_options.num_entities = 600;
  data_options.num_queries = 450;
  data_options.num_clicks = 30000;
  data_options.seed = 61;
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const data::ShoalInputBundle bundle = data::MakeShoalInput(*dataset);
  const core::ShoalInput input = bundle.View();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    core::ShoalOptions options;
    options.num_threads = threads;
    auto model = core::BuildShoal(input, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const core::Taxonomy& taxonomy = model->taxonomy();
    auto compiled = CompileServingIndex(
        taxonomy, DescriberInputOf(input, &taxonomy), core::DescriberOptions(),
        input.entity_categories, CompileOptions());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_GT(compiled->query_text.size(), 100u);
    auto image = EncodeServingIndexFile(*compiled);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    auto reference = DescribeAgainImage(taxonomy, input);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(image->size(), reference->size());
    EXPECT_TRUE(*image == *reference) << "compiled image differs";
  }
}

// Compile never describes: a taxonomy that carries no rankings, or
// rankings from other options, is sent back to be described.
TEST(ServingIndexCompileTest, RejectsTaxonomyWithoutMatchingRankings) {
  ServeFixture f;
  auto expect_rejected = [&f](const char* what,
                              const core::Taxonomy& taxonomy) {
    SCOPED_TRACE(what);
    core::DescriberInput input = f.Input();
    input.taxonomy = &taxonomy;
    auto data = CompileServingIndex(taxonomy, input, core::DescriberOptions(),
                                    &f.categories, CompileOptions());
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(data.status().message().find("describe"), std::string::npos)
        << data.status().ToString();
  };

  core::TaxonomyOptions taxonomy_options;
  taxonomy_options.min_topic_size = 2;
  taxonomy_options.min_root_size = 2;
  const core::Taxonomy undescribed =
      core::Taxonomy::Build(f.dendrogram, f.categories, taxonomy_options);
  expect_rejected("undescribed", undescribed);

  core::DescriberOptions other;
  other.bm25.k1 = 2.0;
  core::Taxonomy described_other = f.taxonomy;
  core::DescriberInput other_input = f.Input();
  other_input.taxonomy = &described_other;
  ASSERT_TRUE(
      core::TopicDescriber::Describe(described_other, other_input, other)
          .ok());
  expect_rejected("described with bm25.k1 = 2", described_other);
  EXPECT_TRUE(CompileServingIndex(described_other, other_input, other,
                                  &f.categories, CompileOptions())
                  .ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "shoal_compile_loaded_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(core::SaveTaxonomy(f.taxonomy, core::CategoryCorrelation(),
                                 dir.string())
                  .ok());
  auto loaded = core::LoadTaxonomy(dir.string());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  expect_rejected("saved and loaded", loaded->taxonomy);
}

TEST(ServingIndexCompileTest, PostingCapKeepsBestFirst) {
  ServeFixture f;
  CompileOptions options;
  options.max_postings_per_query = 1;
  auto capped = f.Compile(options);
  auto full = f.Compile();
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(capped->query_text.size(), full->query_text.size());
  for (size_t q = 0; q < capped->query_text.size(); ++q) {
    ASSERT_EQ(capped->posting_list[q].size(), 1u);
    EXPECT_EQ(capped->posting_list[q][0], full->posting_list[q][0]);
  }
}

TEST(ServingIndexFindTest, ExactThenNormalizedThenMiss) {
  ServeFixture f;
  auto index = f.CompileIndex();
  ASSERT_TRUE(index.ok());

  const auto exact = index->Find("Beach  Chair");
  EXPECT_EQ(exact.match, ServingIndex::Lookup::Match::kExact);
  ASSERT_NE(exact.query, kNoQuery);
  EXPECT_EQ(index->query_text(exact.query), "Beach  Chair");

  // Any text normalizing to "beach chair" resolves through the
  // normalized dictionary.
  for (const char* variant : {"beach chair", "BEACH   CHAIR", " beach\tchair "}) {
    const auto normalized = index->Find(variant);
    EXPECT_EQ(normalized.match, ServingIndex::Lookup::Match::kNormalized)
        << variant;
    EXPECT_EQ(normalized.query, exact.query) << variant;
  }

  const auto miss = index->Find("no such query");
  EXPECT_EQ(miss.match, ServingIndex::Lookup::Match::kNone);
  EXPECT_EQ(miss.query, kNoQuery);
}

TEST(ServingIndexTreeTest, ChildrenAndPathAgreeWithTaxonomy) {
  ServeFixture f;
  auto index = f.CompileIndex();
  ASSERT_TRUE(index.ok());
  for (uint32_t t = 0; t < index->num_topics(); ++t) {
    auto [first, last] = index->children(t);
    std::vector<uint32_t> children(first, last);
    std::vector<uint32_t> expected = f.taxonomy.topic(t).children;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(children, expected) << "topic " << t;

    const auto path = index->PathToRoot(t);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), t);
    EXPECT_EQ(index->parent(path.front()), core::kNoTopic);
    for (size_t i = 1; i < path.size(); ++i) {
      EXPECT_EQ(index->parent(path[i]), path[i - 1]);
    }
  }
}

// The frozen flat image must agree with the builder data on every
// accessor — this is the bridge the whole serving tier stands on.
TEST(ServingIndexBuildTest, FlatImageMatchesBuilderData) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  auto index = data->Build();
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  ASSERT_EQ(index->num_topics(), data->parent.size());
  for (uint32_t t = 0; t < index->num_topics(); ++t) {
    EXPECT_EQ(index->parent(t), data->parent[t]);
    EXPECT_EQ(index->level(t), data->level[t]);
    EXPECT_EQ(index->topic_size(t), data->topic_size[t]);
    ASSERT_EQ(index->num_descriptions(t), data->descriptions[t].size());
    for (size_t d = 0; d < data->descriptions[t].size(); ++d) {
      EXPECT_EQ(index->description(t, d), data->descriptions[t][d]);
    }
  }
  ASSERT_EQ(index->num_queries(), data->query_text.size());
  for (uint32_t q = 0; q < index->num_queries(); ++q) {
    EXPECT_EQ(index->query_text(q), data->query_text[q]);
    // The encoder derives the normalized form with the live normalizer.
    EXPECT_EQ(index->query_norm(q), text::NormalizeQuery(data->query_text[q]));
    const auto span = index->postings(q);
    ASSERT_EQ(span.size(), data->posting_list[q].size());
    for (size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], data->posting_list[q][i]);
    }
  }
}

class ServingIndexFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_serving_idx_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

void ExpectSameContent(const ServingIndex& a, const ServingIndexData& b) {
  ASSERT_EQ(a.num_queries(), b.query_text.size());
  for (uint32_t q = 0; q < a.num_queries(); ++q) {
    EXPECT_EQ(a.query_text(q), b.query_text[q]);
    const auto span = a.postings(q);
    ASSERT_EQ(span.size(), b.posting_list[q].size());
    for (size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], b.posting_list[q][i]);
    }
  }
}

TEST_F(ServingIndexFileTest, V2FileRoundtripsViaMmap) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  const std::string path = Path("rt.idx");
  ASSERT_TRUE(WriteServingIndexFile(path, *data).ok());
  auto loaded = ReadServingIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->mmap_backed());
  ExpectSameContent(*loaded, *data);
}

TEST_F(ServingIndexFileTest, V2FileRoundtripsViaCopy) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  const std::string path = Path("rt.idx");
  ASSERT_TRUE(WriteServingIndexFile(path, *data).ok());
  LoadOptions options;
  options.use_mmap = false;
  auto loaded = ReadServingIndexFile(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->mmap_backed());
  ExpectSameContent(*loaded, *data);
}

// The deep checks (children CSR against parents, root list, dictionary
// order) run in every sweep, with no option to turn them on: a written
// file passes them with the CRC off, and one whose root list or
// exact-text order was permuted is refused. Permuting keeps every id in
// range, so only the deep checks can catch it.
TEST_F(ServingIndexFileTest, DeepValidationPassesOnGoodFile) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  const std::string path = Path("deep.idx");
  ASSERT_TRUE(WriteServingIndexFile(path, *data).ok());
  LoadOptions options;
  options.verify_crc = false;
  auto loaded = ReadServingIndexFile(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto full = util::ReadTextFile(path);
  ASSERT_TRUE(full.ok());
  // Section table entries are { u64 offset, u64 bytes } from byte 120;
  // sections 17 and 18 are the root list and the exact-text order.
  const std::pair<size_t, const char*> cases[] = {{17, "root list"},
                                                   {18, "dictionary"}};
  for (const auto& [section, refusal] : cases) {
    SCOPED_TRACE(refusal);
    uint64_t at = 0;
    std::memcpy(&at, full->data() + 120 + 16 * section, sizeof(at));
    std::string tampered = *full;
    // Swap the section's first two u32 entries.
    std::swap_ranges(tampered.begin() + at, tampered.begin() + at + 4,
                     tampered.begin() + at + 4);
    ASSERT_NE(tampered, *full) << "the fixture needs two distinct entries";
    ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
    auto refused = ReadServingIndexFile(path, options);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.status().message().find(refusal), std::string::npos)
        << refused.status().message();
  }
}

// A file of the retired v1 format (magic | u32 1 | u64 payload size |
// u32 crc | record stream) is refused with an actionable error on both
// load paths: the fix is to recompile the index, not to read it.
TEST_F(ServingIndexFileTest, V1FileFailsWithRecompileError) {
  std::string v1("SHOALIDX", 8);
  const uint32_t format = 1;
  const uint64_t payload_size = 8;
  const uint32_t crc = 0;
  v1.append(reinterpret_cast<const char*>(&format), sizeof(format));
  v1.append(reinterpret_cast<const char*>(&payload_size),
            sizeof(payload_size));
  v1.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  v1.append(payload_size, '\0');
  const std::string path = Path("legacy.idx");
  ASSERT_TRUE(util::WriteTextFile(path, v1).ok());
  for (bool use_mmap : {true, false}) {
    LoadOptions options;
    options.use_mmap = use_mmap;
    auto loaded = ReadServingIndexFile(path, options);
    ASSERT_FALSE(loaded.ok()) << "use_mmap=" << use_mmap;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
        << loaded.status().message();
    EXPECT_NE(loaded.status().message().find("recompile"), std::string::npos)
        << loaded.status().message();
  }
}

// Encoding is the one gate: the compile does not check its result, so a
// tampered builder form must be refused by EncodeServingIndexFile, by
// Build() (which binds an encoded image) and by WriteServingIndexFile,
// which must leave nothing behind in the target directory (no index and
// no temp file).
void ExpectEveryGateRejects(const ServingIndexData& data) {
  auto image = EncodeServingIndexFile(data);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(data.Build().ok());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("shoal_serving_validate_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "tampered.idx";
  EXPECT_FALSE(WriteServingIndexFile(path.string(), data).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(ServingIndexValidateTest, RejectsChildBeforeParent) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  ASSERT_GE(data->parent.size(), 2u);
  data->parent[0] = 1;  // parent id >= topic id
  ExpectEveryGateRejects(*data);
}

TEST(ServingIndexValidateTest, RejectsUnsortedPostings) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->posting_list.empty());
  auto& postings = data->posting_list[0];
  if (postings.size() < 2) {
    postings.push_back(postings[0]);  // duplicate topic also invalid
  } else {
    std::swap(postings.front(), postings.back());
  }
  ExpectEveryGateRejects(*data);
}

// Parent ids index the children CSR the encoder builds, so one out of
// range is refused before the encoder touches it (ASan holds this).
TEST(ServingIndexValidateTest, RejectsParentOutOfRange) {
  ServeFixture f;
  auto compiled = f.Compile();
  ASSERT_TRUE(compiled.ok());
  ASSERT_FALSE(compiled->parent.empty());
  const uint32_t num_topics = static_cast<uint32_t>(compiled->parent.size());
  for (uint32_t bad : {num_topics + 5, uint32_t{0xFFFFFFFE}}) {
    SCOPED_TRACE(bad);
    ServingIndexData data = *compiled;
    data.parent.back() = bad;
    ExpectEveryGateRejects(data);
  }
}

// Arrays that disagree on the topic, entity or query count are refused
// before any of them is laid out.
TEST(ServingIndexValidateTest, RejectsMismatchedArraySizes) {
  ServeFixture f;
  auto compiled = f.Compile();
  ASSERT_TRUE(compiled.ok());
  const std::vector<std::pair<const char*, void (*)(ServingIndexData&)>>
      shorten = {
          {"level", [](ServingIndexData& d) { d.level.pop_back(); }},
          {"descriptions",
           [](ServingIndexData& d) { d.descriptions.pop_back(); }},
          {"entity_category",
           [](ServingIndexData& d) { d.entity_category.pop_back(); }},
          {"posting_list",
           [](ServingIndexData& d) { d.posting_list.pop_back(); }},
      };
  for (const auto& [what, cut] : shorten) {
    SCOPED_TRACE(what);
    ServingIndexData data = *compiled;
    cut(data);
    ExpectEveryGateRejects(data);
  }
}

TEST(ServingIndexValidateTest, RejectsOutOfRangePostingTopic) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->posting_list.empty());
  ASSERT_FALSE(data->posting_list[0].empty());
  data->posting_list[0][0].topic =
      static_cast<uint32_t>(data->parent.size());
  ExpectEveryGateRejects(*data);
}

TEST(ServingIndexValidateTest, RejectsNonFiniteScore) {
  ServeFixture f;
  auto data = f.Compile();
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->posting_list.empty());
  ASSERT_FALSE(data->posting_list[0].empty());
  data->posting_list[0][0].score =
      std::numeric_limits<double>::quiet_NaN();
  ExpectEveryGateRejects(*data);
}

}  // namespace
}  // namespace shoal::serve
