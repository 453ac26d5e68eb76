#ifndef SHOAL_UTIL_TSV_H_
#define SHOAL_UTIL_TSV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace shoal::util {

// Reads a tab-separated file into rows of string fields. Lines starting
// with '#' and blank lines are skipped.
Result<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path);

// Parses one ReadTsv field with ParseUnsigned. A bad field returns
// InvalidArgument naming `file`, the 0-based data row `row` (as ReadTsv
// returns rows) and the field text.
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

// Reads an entire file into a string.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace shoal::util

#endif  // SHOAL_UTIL_TSV_H_
