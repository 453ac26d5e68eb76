#ifndef SHOAL_TESTS_TESTUTIL_TSV_REFERENCE_H_
#define SHOAL_TESTS_TESTUTIL_TSV_REFERENCE_H_

// The row-per-vector TSV reader that util::ReadTsvRows replaced, kept as
// the oracle for it: std::getline over an ifstream, Trim() to skip blank
// and '#' lines, and Split() on tabs into owned strings.

#include <fstream>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/string_util.h"

namespace shoal::testutil {

inline util::Result<std::vector<std::vector<std::string>>> ReferenceReadTsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::IoError("cannot open for reading: " + path);
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    rows.push_back(util::Split(line, '\t'));
  }
  return rows;
}

}  // namespace shoal::testutil

#endif  // SHOAL_TESTS_TESTUTIL_TSV_REFERENCE_H_
