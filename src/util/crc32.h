#ifndef SHOAL_UTIL_CRC32_H_
#define SHOAL_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace shoal::util {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, continuing from
// `seed` (pass the previous return value to checksum in chunks; the
// default starts a fresh checksum). It guards every framed artefact
// against torn or bit-flipped bytes: checkpoint and daemon snapshots
// and serving index images (checked when a server installs or
// hot-reloads one). Slicing-by-16, one portable path; ~2 GB/s on a
// 4-core x86 container (`BM_Crc32`).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace shoal::util

#endif  // SHOAL_UTIL_CRC32_H_
