// Seeded mutation sweep over the two spool/log readers that parse TSV
// straight off the file bytes (ImportSearchLog and ReadDayClicks): every
// mutated input must import to the same result, or fail with the same
// error, as a reference importer built on the line-per-vector reader
// they replaced (testutil::ReferenceReadTsv).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/spool.h"
#include "data/log_io.h"
#include "testutil/tsv_reference.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::data {
namespace {

// ---- reference importers: the readers as they were, on the old rows ----

util::Result<SearchLog> ReferenceImportSearchLog(const std::string& dir) {
  SearchLog log;

  SHOAL_ASSIGN_OR_RETURN(auto item_rows,
                         testutil::ReferenceReadTsv(dir + "/items.tsv"));
  for (const auto& row : item_rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: expected 3 fields, got %zu", row.size()));
    }
    ItemEntity item;
    const size_t r = log.items.size();
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("items.tsv", r, row[0], &item.id));
    if (item.id != r) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: ids must be dense; got %u at row %zu", item.id, r));
    }
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("items.tsv", r, row[1], &item.category));
    item.title = row[2];
    for (const std::string& token : text::Tokenize(item.title)) {
      item.title_words.push_back(log.vocab.AddWord(token));
    }
    log.items.push_back(std::move(item));
  }
  if (log.items.empty()) {
    return util::Status::InvalidArgument("items.tsv has no items");
  }

  SHOAL_ASSIGN_OR_RETURN(auto query_rows,
                         testutil::ReferenceReadTsv(dir + "/queries.tsv"));
  for (const auto& row : query_rows) {
    if (row.size() != 2) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: expected 2 fields, got %zu", row.size()));
    }
    SearchQuery query;
    const size_t r = log.queries.size();
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("queries.tsv", r, row[0], &query.id));
    if (query.id != r) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: ids must be dense; got %u at row %zu", query.id, r));
    }
    query.text = row[1];
    for (const std::string& token : text::Tokenize(query.text)) {
      query.words.push_back(log.vocab.AddWord(token));
    }
    log.queries.push_back(std::move(query));
  }
  if (log.queries.empty()) {
    return util::Status::InvalidArgument("queries.tsv has no queries");
  }

  SHOAL_ASSIGN_OR_RETURN(auto click_rows,
                         testutil::ReferenceReadTsv(dir + "/clicks.tsv"));
  for (const auto& row : click_rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "clicks.tsv: expected 3 fields, got %zu", row.size()));
    }
    ClickEvent click;
    const size_t r = log.clicks.size();
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("clicks.tsv", r, row[0], &click.query));
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("clicks.tsv", r, row[1], &click.entity));
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("clicks.tsv", r, row[2], &click.timestamp_sec));
    if (click.query >= log.queries.size()) {
      return util::Status::InvalidArgument("clicks.tsv: unknown query id");
    }
    if (click.entity >= log.items.size()) {
      return util::Status::InvalidArgument("clicks.tsv: unknown item id");
    }
    log.clicks.push_back(click);
  }
  std::sort(log.clicks.begin(), log.clicks.end(),
            [](const ClickEvent& a, const ClickEvent& b) {
              return a.timestamp_sec < b.timestamp_sec;
            });
  return log;
}

util::Result<std::vector<ClickEvent>> ReferenceReadDayClicks(
    const std::string& path, size_t num_queries, size_t num_items) {
  SHOAL_ASSIGN_OR_RETURN(auto rows, testutil::ReferenceReadTsv(path));
  std::vector<ClickEvent> clicks;
  for (const auto& row : rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "%s: expected 3 fields, got %zu", path.c_str(), row.size()));
    }
    ClickEvent click;
    const size_t r = clicks.size();
    SHOAL_RETURN_IF_ERROR(util::ParseTsvField(path, r, row[0], &click.query));
    SHOAL_RETURN_IF_ERROR(util::ParseTsvField(path, r, row[1], &click.entity));
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField(path, r, row[2], &click.timestamp_sec));
    if (click.query >= num_queries) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "%s: unknown query id %u", path.c_str(), click.query));
    }
    if (click.entity >= num_items) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "%s: unknown item id %u", path.c_str(), click.entity));
    }
    clicks.push_back(click);
  }
  return clicks;
}

// ---- comparison -----------------------------------------------------------

bool SameClicks(const std::vector<ClickEvent>& a,
                const std::vector<ClickEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ClickEvent& x, const ClickEvent& y) {
                      return x.query == y.query && x.entity == y.entity &&
                             x.timestamp_sec == y.timestamp_sec;
                    });
}

bool SameLog(const SearchLog& a, const SearchLog& b) {
  if (a.items.size() != b.items.size() ||
      a.queries.size() != b.queries.size() ||
      a.vocab.size() != b.vocab.size() ||
      a.vocab.total_count() != b.vocab.total_count()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    const ItemEntity& x = a.items[i];
    const ItemEntity& y = b.items[i];
    if (x.id != y.id || x.category != y.category || x.intent != y.intent ||
        x.title != y.title || x.title_words != y.title_words) {
      return false;
    }
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const SearchQuery& x = a.queries[i];
    const SearchQuery& y = b.queries[i];
    if (x.id != y.id || x.intent != y.intent || x.text != y.text ||
        x.words != y.words) {
      return false;
    }
  }
  for (uint32_t w = 0; w < a.vocab.size(); ++w) {
    if (a.vocab.WordOf(w) != b.vocab.WordOf(w) ||
        a.vocab.CountOf(w) != b.vocab.CountOf(w)) {
      return false;
    }
  }
  return SameClicks(a.clicks, b.clicks);
}

// Both failed with the same status, or both succeeded with equal values.
template <typename T, typename Same>
::testing::AssertionResult SameOutcome(const util::Result<T>& actual,
                                       const util::Result<T>& expected,
                                       Same same) {
  if (actual.ok() != expected.ok()) {
    return ::testing::AssertionFailure()
           << "reader " << (actual.ok() ? "accepted" : "rejected")
           << " the input, reference "
           << (expected.ok() ? "accepted it" : "rejected it: ")
           << (expected.ok() ? "" : expected.status().ToString())
           << (actual.ok() ? "" : " / reader: " + actual.status().ToString());
  }
  if (!actual.ok()) {
    if (actual.status().code() != expected.status().code() ||
        actual.status().message() != expected.status().message()) {
      return ::testing::AssertionFailure()
             << "reader: " << actual.status().ToString()
             << " / reference: " << expected.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  if (!same(actual.value(), expected.value())) {
    return ::testing::AssertionFailure() << "imports differ";
  }
  return ::testing::AssertionSuccess();
}

// ---- fixture --------------------------------------------------------------

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Applies 1-3 seeded mutations: a bit flip, a truncation, a deleted
// byte, or an inserted tab, newline, '#' or digit.
std::string Mutate(std::string bytes, util::Rng& rng) {
  const uint64_t count = 1 + rng.Uniform(3);
  for (uint64_t i = 0; i < count; ++i) {
    const size_t pos = rng.Uniform(bytes.size() + 1);
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
        if (pos < bytes.size()) {
          bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(8)));
        }
        break;
      case 2:
        bytes.resize(pos);
        break;
      case 3:
        if (pos < bytes.size()) bytes.erase(pos, 1);
        break;
      case 4:
        bytes.insert(pos, 1, '\t');
        break;
      case 5:
        bytes.insert(pos, 1, '\n');
        break;
      case 6:
        bytes.insert(pos, 1, '#');
        break;
      default:
        bytes.insert(pos, 1, static_cast<char>('0' + rng.Uniform(10)));
        break;
    }
  }
  return bytes;
}

class IngestMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: parallel ctest processes must not share a
    // directory that TearDown deletes.
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("shoal_ingest_mutation_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    files_["items.tsv"] =
        "# item_id\tcategory_id\ttitle\n"
        "0\t10\tred beach dress\n"
        "1\t10\tblue beach dress\n"
        "2\t11\tsummer hat\n"
        "3\t12\trunning shoes\n"
        "4\t12\ttrail running shoes\n"
        "5\t11\tstraw hat\n";
    files_["queries.tsv"] =
        "# query_id\ttext\n"
        "0\tbeach dress\n"
        "1\tsun hat\n"
        "2\trunning shoes\n"
        "3\tdress\n";
    // Timestamps drawn from five values, so ties are common and the
    // import's unstable sort has equal keys to order.
    util::Rng rng(7);
    std::string clicks = "# query_id\titem_id\ttimestamp_sec\n";
    for (int i = 0; i < 24; ++i) {
      clicks += std::to_string(rng.Uniform(4)) + "\t" +
                std::to_string(rng.Uniform(6)) + "\t" +
                std::to_string(100 + rng.Uniform(5)) + "\n";
    }
    files_["clicks.tsv"] = clicks;
    for (const auto& [name, bytes] : files_) WriteBytes(Path(name), bytes);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  std::map<std::string, std::string> files_;
};

TEST_F(IngestMutationTest, ImportSearchLogMatchesReference) {
  auto pristine = ImportSearchLog(dir_);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  ASSERT_EQ(pristine->clicks.size(), 24u);
  ASSERT_TRUE(SameOutcome(pristine, ReferenceImportSearchLog(dir_), SameLog));

  util::Rng rng(2020);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const auto& [name, bytes] : files_) {
    for (int i = 0; i < 400; ++i) {
      WriteBytes(Path(name), Mutate(bytes, rng));
      auto actual = ImportSearchLog(dir_);
      ASSERT_TRUE(
          SameOutcome(actual, ReferenceImportSearchLog(dir_), SameLog))
          << name << " mutation " << i;
      ++(actual.ok() ? accepted : rejected);
    }
    WriteBytes(Path(name), bytes);
  }
  // The sweep reaches both outcomes, so it checks parsed values and
  // error messages alike.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST_F(IngestMutationTest, ReadDayClicksMatchesReference) {
  const std::string path = Path("day-0000.clicks.tsv");
  const std::string& bytes = files_["clicks.tsv"];
  util::Rng rng(2021);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < 800; ++i) {
    WriteBytes(path, i == 0 ? bytes : Mutate(bytes, rng));
    auto actual = daemon::ReadDayClicks(path, 4, 6);
    ASSERT_TRUE(SameOutcome(actual, ReferenceReadDayClicks(path, 4, 6),
                            SameClicks))
        << "mutation " << i;
    ++(actual.ok() ? accepted : rejected);
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace shoal::data
