#include "daemon/spool.h"

#include <algorithm>
#include <filesystem>

#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::daemon {

namespace {

constexpr const char kDaySuffix[] = ".clicks.tsv";

}  // namespace

util::Result<std::vector<data::ClickEvent>> ReadDayClicks(
    const std::string& path, size_t num_queries, size_t num_items) {
  SHOAL_ASSIGN_OR_RETURN(const std::string bytes, util::ReadTextFile(path));
  std::vector<data::ClickEvent> clicks;
  clicks.reserve(
      static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n')) + 1);
  SHOAL_RETURN_IF_ERROR(util::ForEachTsvRow(
      bytes, [&](size_t r, std::span<const std::string_view> row) {
        if (row.size() != 3) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "%s: expected 3 fields, got %zu", path.c_str(), row.size()));
        }
        data::ClickEvent click;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField(path, r, row[0], &click.query));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField(path, r, row[1], &click.entity));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField(path, r, row[2], &click.timestamp_sec));
        if (click.query >= num_queries) {
          return util::Status::InvalidArgument(
              util::StringPrintf("%s: unknown query id %u", path.c_str(),
                                 click.query));
        }
        if (click.entity >= num_items) {
          return util::Status::InvalidArgument(
              util::StringPrintf("%s: unknown item id %u", path.c_str(),
                                 click.entity));
        }
        clicks.push_back(click);
        return util::Status::OK();
      }));
  return clicks;
}

util::Result<std::vector<std::string>> ListDayFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot list spool directory " + dir + ": " +
                                 ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > sizeof(kDaySuffix) - 1 &&
        name.compare(name.size() - (sizeof(kDaySuffix) - 1),
                     sizeof(kDaySuffix) - 1, kDaySuffix) == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace shoal::daemon
