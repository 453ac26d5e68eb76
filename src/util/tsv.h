#ifndef SHOAL_UTIL_TSV_H_
#define SHOAL_UTIL_TSV_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace shoal::util {

// Reads an entire file into one string: a read() loop into a buffer
// sized by fstat, grown only if the file grew since. Not mmap: a file
// truncated while mapped would raise SIGBUS in the reader.
Result<std::string> ReadTextFile(const std::string& path);

// Calls `fn(row, fields)` for each data line of `bytes`, the contents of
// a tab-separated file, and stops at the first non-OK status `fn`
// returns. Lines split on '\n' only (a '\r' stays in the last field); a
// line whose Trim() is empty or starts with '#' is skipped; empty fields
// are kept. `row` is the 0-based data row that ParseTsvField names, and
// `fields` (a std::span<const std::string_view>) views `bytes`.
template <typename Fn>
Status ForEachTsvRow(std::string_view bytes, Fn&& fn) {
  std::vector<std::string_view> fields;
  size_t row = 0;
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t end = bytes.find('\n', pos);
    if (end == std::string_view::npos) end = bytes.size();
    const std::string_view line = bytes.substr(pos, end - pos);
    pos = end + 1;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    fields.clear();
    for (size_t start = 0;;) {
      const size_t tab = line.find('\t', start);
      if (tab == std::string_view::npos) {
        fields.push_back(line.substr(start));
        break;
      }
      fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    SHOAL_RETURN_IF_ERROR(
        fn(row, std::span<const std::string_view>(fields)));
    ++row;
  }
  return Status::OK();
}

// The row reader: reads the file at `path` into one buffer with
// ReadTextFile and walks it with ForEachTsvRow. The fields are valid
// only during each call.
template <typename Fn>
Status ReadTsvRows(const std::string& path, Fn&& fn) {
  SHOAL_ASSIGN_OR_RETURN(const std::string bytes, ReadTextFile(path));
  return ForEachTsvRow(bytes, fn);
}

// Parses one TSV field with ParseUnsigned. A bad field returns
// InvalidArgument naming `file`, the 0-based data row `row` (as
// ForEachTsvRow counts rows) and the field text.
Status ParseTsvField(std::string_view file, size_t row,
                     std::string_view field, uint32_t* value);
Status ParseTsvField(std::string_view file, size_t row,
                     std::string_view field, uint64_t* value);

// Writes rows as tab-separated lines; fields must not contain tabs or
// newlines (checked).
Status WriteTsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows);

// Writes raw text to a file (used by the report writer).
Status WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace shoal::util

#endif  // SHOAL_UTIL_TSV_H_
