// Malformed-index robustness, mirroring tests/ckpt/snapshot_test.cc:
// every truncation and a bit-flip sweep over a real index file must
// produce a clean Status — never a crash, hang, or huge allocation
// (ASan/UBSan runs of this test are part of the CI matrix). The
// sweeps run twice: once with the CRC on (the normal deployment mode,
// where every flip outside the stored CRC is caught by the checksum)
// and once with the CRC off, which forces the structural validators to
// stand on their own.

#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "serve/serving_index.h"
#include "serve_test_util.h"
#include "util/tsv.h"

namespace shoal::serve {
namespace {

void PatchU64(std::string* bytes, size_t offset, uint64_t value) {
  ASSERT_LE(offset + 8, bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

class ServingIndexCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_serving_corrupt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // A real v2 index file's bytes.
  std::string WriteSample() {
    ServeFixture f;
    auto data = f.Compile();
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    const std::string path = Path("sample.idx");
    EXPECT_TRUE(WriteServingIndexFile(path, *data).ok());
    auto bytes = util::ReadTextFile(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.value();
  }

  std::filesystem::path dir_;
};

TEST_F(ServingIndexCorruptTest, MissingFileIsCleanError) {
  EXPECT_FALSE(ReadServingIndexFile(Path("nope.idx")).ok());
}

TEST_F(ServingIndexCorruptTest, RejectsWrongMagic) {
  const std::string path = Path("bad.idx");
  ASSERT_TRUE(util::WriteTextFile(path, "NOTANIDXxxxxxxxxxxxxxxxx").ok());
  auto loaded = ReadServingIndexFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(ServingIndexCorruptTest, RejectsVersionSkew) {
  std::string full = WriteSample();
  ASSERT_GT(full.size(), 12u);
  full[8] = static_cast<char>(kServingIndexFormatVersion + 1);
  const std::string path = Path("skew.idx");
  ASSERT_TRUE(util::WriteTextFile(path, full).ok());
  auto loaded = ReadServingIndexFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(ServingIndexCorruptTest, EveryTruncationFailsCleanly) {
  const std::string full = WriteSample();
  const std::string path = Path("trunc.idx");
  for (size_t len = 0; len < full.size(); ++len) {
    ASSERT_TRUE(util::WriteTextFile(path, full.substr(0, len)).ok());
    auto loaded = ReadServingIndexFile(path);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << len << " bytes";
  }
}

TEST_F(ServingIndexCorruptTest, EveryBitFlipIsDetectedOrValidated) {
  const std::string full = WriteSample();
  const std::string path = Path("flip.idx");
  // One flipped bit per sampled byte: the CRC must catch body flips,
  // the preamble checks catch magic/format flips; anything that slips
  // through (flips inside the stored CRC word cannot, but stay
  // defensive) must still bind into a state where lookups work.
  const size_t stride = full.size() > 512 ? full.size() / 512 : 1;
  for (size_t i = 0; i < full.size(); i += stride) {
    std::string tampered = full;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x10);
    ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
    auto loaded = ReadServingIndexFile(path);
    if (!loaded.ok()) continue;
    (void)loaded->Find("router");
  }
}

TEST_F(ServingIndexCorruptTest, BitFlipsWithCrcOffFailStructurally) {
  // The structural validators (section-table recomputation, count
  // guards, monotone-bounds sweeps, id-range checks) must hold without
  // the checksum: every sampled single-bit flip either fails cleanly or
  // yields an index whose lookups and tree walks stay in bounds. ASan
  // and UBSan runs of this sweep are the real assertion.
  const std::string full = WriteSample();
  const std::string path = Path("flip_nocrc.idx");
  LoadOptions options;
  options.verify_crc = false;
  const size_t stride = full.size() > 512 ? full.size() / 512 : 1;
  for (size_t i = 0; i < full.size(); i += stride) {
    std::string tampered = full;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x10);
    ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
    auto loaded = ReadServingIndexFile(path, options);
    if (!loaded.ok()) continue;
    (void)loaded->Find("router");
    (void)loaded->Find("Beach  Chair");
    for (uint32_t t = 0; t < loaded->num_topics(); ++t) {
      (void)loaded->PathToRoot(t);
    }
  }
}

TEST_F(ServingIndexCorruptTest, RejectsOversizedHeaderCount) {
  // Patch the topic count in the v2 header to an absurd value. With the
  // CRC disabled, the count guard must still reject before any
  // count-sized allocation or pointer arithmetic happens.
  std::string full = WriteSample();
  // Header starts at byte 16; field 2 is the topic count.
  PatchU64(&full, 16 + 2 * 8, 0xffffffffffull);
  const std::string path = Path("oversized.idx");
  ASSERT_TRUE(util::WriteTextFile(path, full).ok());
  LoadOptions options;
  options.verify_crc = false;
  auto loaded = ReadServingIndexFile(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("oversized"), std::string::npos);
}

TEST_F(ServingIndexCorruptTest, RejectsMisalignedSectionTable) {
  // Nudge the first section's stored offset off its 64-byte alignment.
  // The loader recomputes the expected layout from the header counts and
  // must refuse a table that disagrees with it.
  std::string full = WriteSample();
  uint64_t stored = 0;
  ASSERT_LE(size_t{128}, full.size());
  std::memcpy(&stored, full.data() + 120, sizeof(stored));
  PatchU64(&full, 120, stored + 1);
  const std::string path = Path("misaligned.idx");
  ASSERT_TRUE(util::WriteTextFile(path, full).ok());
  LoadOptions options;
  options.verify_crc = false;
  auto loaded = ReadServingIndexFile(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("section table"),
            std::string::npos);
}

}  // namespace
}  // namespace shoal::serve
