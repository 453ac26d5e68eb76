#include "util/tsv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace shoal::util {

namespace {

template <typename T>
Status ParseField(std::string_view file, size_t row, std::string_view field,
                  T* value) {
  if (ParseUnsigned(field, value)) return Status::OK();
  return Status::InvalidArgument(StringPrintf(
      "%.*s: row %zu: '%.*s' is not an unsigned decimal integer in range",
      static_cast<int>(file.size()), file.data(), row,
      static_cast<int>(field.size()), field.data()));
}

}  // namespace

Status ParseTsvField(std::string_view file, size_t row,
                     std::string_view field, uint32_t* value) {
  return ParseField(file, row, field, value);
}

Status ParseTsvField(std::string_view file, size_t row,
                     std::string_view field, uint64_t* value) {
  return ParseField(file, row, field, value);
}

Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows) {
  // Rendered to memory first so the file write is all-or-nothing: a
  // validation error or crash leaves any previous file intact.
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].find('\t') != std::string::npos ||
          row[i].find('\n') != std::string::npos) {
        return Status::InvalidArgument("TSV field contains tab or newline: " +
                                       row[i]);
      }
      if (i > 0) out.push_back('\t');
      out.append(row[i]);
    }
    out.push_back('\n');
  }
  return AtomicWriteFile(path, out);
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  return AtomicWriteFile(path, contents);
}

Result<std::string> ReadTextFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for reading: " + path);
  struct stat st;
  std::string bytes;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.resize(static_cast<size_t>(st.st_size));
  }
  size_t filled = 0;
  while (true) {
    // A full buffer is probed through a small stack chunk, so a file
    // that did not grow since fstat costs no reallocation.
    char probe[4096];
    const bool full = filled == bytes.size();
    const ssize_t n =
        full ? ::read(fd, probe, sizeof(probe))
             : ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError("cannot read " + path + ": " +
                             std::strerror(err));
    }
    if (n == 0) break;
    if (full) bytes.append(probe, static_cast<size_t>(n));
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(filled);
  return bytes;
}

}  // namespace shoal::util
