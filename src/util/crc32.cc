#include "util/crc32.h"

#include <array>

namespace shoal::util {

namespace {

// Slicing-by-16 (Kounavis & Berry, ISCC 2005): kTables[k][b] is the CRC
// register contribution of byte b followed by k zero bytes, so one step
// folds 16 input bytes with 16 independent table lookups instead of a
// chain of 16 dependent ones. kTables[0] is the classic byte table.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables BuildTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildTables();

// Little-endian u32 assembled from bytes: no alignment requirement and
// no dependence on host byte order (compilers fuse it into one load).
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto& t = kTables;
  for (; size >= 16; bytes += 16, size -= 16) {
    const uint32_t a = LoadLE32(bytes) ^ crc;
    const uint32_t b = LoadLE32(bytes + 4);
    const uint32_t c = LoadLE32(bytes + 8);
    const uint32_t d = LoadLE32(bytes + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
          t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^
          t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^
          t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace shoal::util
