#ifndef SHOAL_CKPT_BINARY_IO_H_
#define SHOAL_CKPT_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace shoal::ckpt {

// Append-only encoder for the snapshot wire format. All integers are
// written little-endian regardless of host order, and doubles are
// written as their raw IEEE-754 bit pattern — snapshots must restore
// similarities bit-exactly or a resumed HAC run could tie-break a merge
// differently and diverge from the uninterrupted dendrogram.
//
// The fixed-width writes are inline and append each value's bytes in one
// call; an encoder that knows its payload size calls Reserve first, so a
// snapshot is encoded into one allocation.
class BinaryWriter {
 public:
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { AppendLE(v); }
  void WriteU64(uint64_t v) { AppendLE(v); }
  void WriteF64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLE(bits);
  }
  // u64 byte length followed by the raw bytes.
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    buffer_.append(s.data(), s.size());
  }

  const std::string& data() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void AppendLE(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buffer_.append(bytes, sizeof(T));
  }

  std::string buffer_;
};

// Bounds-checked decoder over a byte span. Every read returns OutOfRange
// instead of walking past the end, so a truncated snapshot surfaces as a
// clean Status, never as undefined behaviour.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  util::Result<uint8_t> ReadU8();
  util::Result<uint32_t> ReadU32();
  util::Result<uint64_t> ReadU64();
  util::Result<double> ReadF64();
  util::Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  // Guard before resizing a container to a length read from the stream:
  // OK only when `count` elements of at least `min_element_bytes` each
  // could still follow, which bounds allocations by the file size and
  // turns a corrupted length field into a clean error instead of an OOM.
  util::Status CheckCount(uint64_t count, size_t min_element_bytes) const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace shoal::ckpt

#endif  // SHOAL_CKPT_BINARY_IO_H_
