#include "util/atomic_file.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "util/fault.h"
#include "util/tsv.h"

namespace shoal::util {
namespace {

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_atomic_file_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Files in the test dir besides `name` (stray temp files, etc.).
  size_t OtherFileCount(const std::string& name) {
    size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename() != name) ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
};

TEST_F(AtomicFileTest, WritesContents) {
  ASSERT_TRUE(AtomicWriteFile(Path("f.txt"), "hello\n").ok());
  auto read = ReadTextFile(Path("f.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "hello\n");
  EXPECT_EQ(OtherFileCount("f.txt"), 0u) << "temp file left behind";
}

TEST_F(AtomicFileTest, OverwritesExistingFile) {
  ASSERT_TRUE(AtomicWriteFile(Path("f.txt"), "old").ok());
  ASSERT_TRUE(AtomicWriteFile(Path("f.txt"), "new").ok());
  auto read = ReadTextFile(Path("f.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "new");
}

TEST_F(AtomicFileTest, BinarySafe) {
  std::string contents("\x00\x01\xff\n\r\x7f", 6);
  ASSERT_TRUE(AtomicWriteFile(Path("b.bin"), contents).ok());
  auto read = ReadTextFile(Path("b.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), contents);
}

TEST_F(AtomicFileTest, MissingDirectoryIsIoError) {
  auto status = AtomicWriteFile(Path("no/such/dir/f.txt"), "x");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(AtomicFileTest, InjectedFailureLeavesTargetUntouched) {
  ASSERT_TRUE(AtomicWriteFile(Path("f.txt"), "original").ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:1.0").ok());
  auto status = AtomicWriteFile(Path("f.txt"), "clobbered");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  FaultInjector::Global().Reset();
  auto read = ReadTextFile(Path("f.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "original");
  EXPECT_EQ(OtherFileCount("f.txt"), 0u)
      << "failed write must discard its temp file";
}

TEST_F(AtomicFileTest, FailWriteAtFailsExactlyThatWrite) {
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write_at:2").ok());
  EXPECT_TRUE(AtomicWriteFile(Path("a.txt"), "1").ok());
  EXPECT_EQ(AtomicWriteFile(Path("b.txt"), "2").code(),
            StatusCode::kIoError);
  EXPECT_TRUE(AtomicWriteFile(Path("c.txt"), "3").ok());
  EXPECT_FALSE(std::filesystem::exists(Path("b.txt")));
}

// A write in parts lays down exactly the bytes of the one-part write of
// their concatenation, empty and binary parts included.
TEST_F(AtomicFileTest, PartsWriteTheirConcatenation) {
  const std::string binary("\x00\xff\n", 3);
  const std::string_view parts[] = {"SHOALSNP", "", binary, "payload"};
  std::string joined;
  for (std::string_view part : parts) joined += part;
  ASSERT_TRUE(AtomicWriteFile(Path("parts.bin"), parts).ok());
  ASSERT_TRUE(AtomicWriteFile(Path("whole.bin"), joined).ok());
  auto from_parts = ReadTextFile(Path("parts.bin"));
  auto whole = ReadTextFile(Path("whole.bin"));
  ASSERT_TRUE(from_parts.ok());
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(from_parts.value(), whole.value());
  EXPECT_EQ(from_parts.value(), joined);
}

TEST_F(AtomicFileTest, InjectedFailureOfAPartsWriteLeavesNoFile) {
  const std::string_view parts[] = {"header", "payload"};
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:1.0").ok());
  EXPECT_EQ(AtomicWriteFile(Path("f.bin"), parts).code(),
            StatusCode::kIoError);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(std::filesystem::exists(Path("f.bin")));
  EXPECT_EQ(OtherFileCount("f.bin"), 0u)
      << "failed write must discard its temp file";
}

}  // namespace
}  // namespace shoal::util
