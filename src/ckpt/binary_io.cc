#include "ckpt/binary_io.h"

#include <cstring>

#include "util/string_util.h"

namespace shoal::ckpt {

util::Result<uint8_t> BinaryReader::ReadU8() {
  if (remaining() < 1) {
    return util::Status::OutOfRange("snapshot truncated reading u8");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

util::Result<uint32_t> BinaryReader::ReadU32() {
  if (remaining() < 4) {
    return util::Status::OutOfRange("snapshot truncated reading u32");
  }
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

util::Result<uint64_t> BinaryReader::ReadU64() {
  if (remaining() < 8) {
    return util::Status::OutOfRange("snapshot truncated reading u64");
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

util::Result<double> BinaryReader::ReadF64() {
  SHOAL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

util::Result<std::string> BinaryReader::ReadString() {
  SHOAL_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > remaining()) {
    return util::Status::OutOfRange(util::StringPrintf(
        "snapshot truncated: string of %llu bytes but only %zu remain",
        static_cast<unsigned long long>(len), remaining()));
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

util::Status BinaryReader::CheckCount(uint64_t count,
                                      size_t min_element_bytes) const {
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (count > remaining() / min_element_bytes) {
    return util::Status::OutOfRange(util::StringPrintf(
        "snapshot corrupt: count %llu exceeds the %zu remaining bytes",
        static_cast<unsigned long long>(count), remaining()));
  }
  return util::Status::OK();
}

}  // namespace shoal::ckpt
