#include "util/tsv.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testutil/tsv_reference.h"
#include "util/random.h"

namespace shoal::util {
namespace {

class TsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: parallel ctest processes must not share a
    // directory that TearDown deletes.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_tsv_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // ReadTsvRows' rows as owned strings; also checks that `row` counts
  // the data rows from 0.
  static Result<std::vector<std::vector<std::string>>> ReadRows(
      const std::string& path) {
    std::vector<std::vector<std::string>> rows;
    SHOAL_RETURN_IF_ERROR(ReadTsvRows(
        path, [&](size_t row, std::span<const std::string_view> fields) {
          EXPECT_EQ(row, rows.size());
          rows.emplace_back(fields.begin(), fields.end());
          return Status::OK();
        }));
    return rows;
  }

  // Writes `bytes` and expects the row reader to return exactly the
  // reference reader's rows.
  void ExpectSameRowsAsReference(const std::string& bytes) {
    const std::string path = Path("case.tsv");
    ASSERT_TRUE(WriteTextFile(path, bytes).ok());
    auto expected = testutil::ReferenceReadTsv(path);
    auto actual = ReadRows(path);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual.value(), expected.value())
        << "bytes: '" << bytes << "' (" << bytes.size() << " bytes)";
  }

  std::filesystem::path dir_;
};

TEST_F(TsvTest, RoundTrip) {
  std::vector<std::vector<std::string>> rows = {
      {"a", "b", "c"}, {"1", "2", "3"}};
  ASSERT_TRUE(WriteTsv(Path("t.tsv"), rows).ok());
  auto read = ReadRows(Path("t.tsv"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rows);
}

TEST_F(TsvTest, SkipsCommentsAndBlankLines) {
  ASSERT_TRUE(
      WriteTextFile(Path("c.tsv"), "# header\n\na\tb\n   \n# more\nc\td\n")
          .ok());
  auto read = ReadRows(Path("c.tsv"));
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0][0], "a");
  EXPECT_EQ((*read)[1][1], "d");
}

TEST_F(TsvTest, RejectsFieldWithTab) {
  EXPECT_FALSE(WriteTsv(Path("bad.tsv"), {{"a\tb"}}).ok());
}

TEST_F(TsvTest, RejectsFieldWithNewline) {
  EXPECT_FALSE(WriteTsv(Path("bad.tsv"), {{"a\nb"}}).ok());
}

TEST_F(TsvTest, MissingFileIsIoError) {
  auto read = ReadRows(Path("nope.tsv"));
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(TsvTest, TextFileRoundTrip) {
  const std::string content = "hello\nworld\n";
  ASSERT_TRUE(WriteTextFile(Path("x.txt"), content).ok());
  auto read = ReadTextFile(Path("x.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
}

TEST_F(TsvTest, EmptyRowsWriteEmptyFile) {
  ASSERT_TRUE(WriteTsv(Path("empty.tsv"), {}).ok());
  auto read = ReadRows(Path("empty.tsv"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_F(TsvTest, RowReaderMatchesReferenceOnEdgeCases) {
  using namespace std::string_literals;
  const std::string cases[] = {
      "a\tb\r\nc\td\r\n",             // CRLF: '\r' stays in the last field
      "\r\n \r\n\r",                  // lines that are only '\r'
      "   \n\t\n\t\t\n \t \n",          // whitespace-only and tab-only
      "  # spaced comment\n\t#tabbed\n#\na\tb\n",
      "a\t# not a comment\n",
      "a\tb\nc\td",                     // no final newline
      "",                               // empty file
      "\n",                             // one blank line
      "\ta\t\n\t\tb\n",                 // leading and trailing tabs
      "x\t\t\ty\n",                     // empty fields in the middle
      "a\0b\tc\n\0\n\0\t\0"s,          // NUL bytes
      "\v\f\n\x85\n",                   // other whitespace, a high byte
      "1\t2\t3\n\n\n4\t5\t6\n"};
  for (const std::string& bytes : cases) ExpectSameRowsAsReference(bytes);
}

TEST_F(TsvTest, RowReaderMatchesReferenceOnRandomBytes) {
  // Short strings over the bytes the line and field rules look at.
  const char alphabet[] = {'a', '1', '\t', '\n', '\r', ' ', '#', '\0'};
  Rng rng(20);
  for (int i = 0; i < 1500; ++i) {
    std::string bytes(rng.Uniform(24), ' ');
    for (char& c : bytes) c = alphabet[rng.Uniform(sizeof(alphabet))];
    ExpectSameRowsAsReference(bytes);
    if (HasFailure()) return;
  }
}

TEST_F(TsvTest, CallbackErrorStopsTheWalk) {
  ASSERT_TRUE(WriteTextFile(Path("s.tsv"), "a\nb\nc\n").ok());
  size_t calls = 0;
  const Status status = ReadTsvRows(
      Path("s.tsv"), [&](size_t row, std::span<const std::string_view>) {
        ++calls;
        return row == 1 ? Status::InvalidArgument("stop") : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 2u);
}

TEST_F(TsvTest, ReadTextFileOfDirectoryIsIoError) {
  EXPECT_EQ(ReadTextFile(dir_.string()).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace shoal::util
