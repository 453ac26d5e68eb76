#include "util/tsv.h"

#include <fstream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace shoal::util {

Result<std::vector<std::vector<std::string>>> ReadTsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    rows.push_back(Split(line, '\t'));
  }
  return rows;
}

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
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace shoal::util
