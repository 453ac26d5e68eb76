#include "util/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace shoal::util {
namespace {

// The definition of CRC-32 (reflected, polynomial 0xEDB88320), one bit
// at a time: the oracle the table-driven kernel must reproduce exactly.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Uniform(256));
  return bytes;
}

TEST(Crc32Test, KnownValues) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::string(1, '\0')), 0xD202EF8Du);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// Every length across several 16-byte steps plus a tail, at every start
// offset within a step, so the kernel is run on every alignment.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = RandomBytes(300 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, len), BitwiseCrc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// Chaining through `seed` checksums a buffer in pieces: the value after
// the second piece equals the one-shot value, wherever the split falls.
TEST(Crc32Test, ChainingEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> buffer = RandomBytes(1024, 3);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, BitwiseCrc32(buffer.data(), buffer.size()));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace shoal::util
