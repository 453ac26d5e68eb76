#include "daemon/spool.h"

#include <algorithm>
#include <filesystem>

#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::daemon {

namespace {

std::string PathOf(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

constexpr const char kDaySuffix[] = ".clicks.tsv";

}  // namespace

util::Result<SpoolCatalog> ImportSpoolCatalog(const std::string& dir) {
  SpoolCatalog catalog;

  SHOAL_ASSIGN_OR_RETURN(auto item_rows,
                         util::ReadTsv(PathOf(dir, "items.tsv")));
  for (const auto& row : item_rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: expected 3 fields, got %zu", row.size()));
    }
    data::ItemEntity item;
    const size_t r = catalog.items.size();
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("items.tsv", r, row[0], &item.id));
    if (item.id != r) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: ids must be dense; got %u at row %zu", item.id, r));
    }
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("items.tsv", r, row[1], &item.category));
    item.title = row[2];
    for (const std::string& token : text::Tokenize(item.title)) {
      item.title_words.push_back(catalog.vocab.AddWord(token));
    }
    catalog.items.push_back(std::move(item));
  }
  if (catalog.items.empty()) {
    return util::Status::InvalidArgument("items.tsv has no items");
  }

  SHOAL_ASSIGN_OR_RETURN(auto query_rows,
                         util::ReadTsv(PathOf(dir, "queries.tsv")));
  for (const auto& row : query_rows) {
    if (row.size() != 2) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: expected 2 fields, got %zu", row.size()));
    }
    data::SearchQuery query;
    const size_t r = catalog.queries.size();
    SHOAL_RETURN_IF_ERROR(
        util::ParseTsvField("queries.tsv", r, row[0], &query.id));
    if (query.id != r) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: ids must be dense; got %u at row %zu", query.id, r));
    }
    query.text = row[1];
    for (const std::string& token : text::Tokenize(query.text)) {
      query.words.push_back(catalog.vocab.AddWord(token));
    }
    catalog.queries.push_back(std::move(query));
  }
  if (catalog.queries.empty()) {
    return util::Status::InvalidArgument("queries.tsv has no queries");
  }
  return catalog;
}

util::Result<std::vector<data::ClickEvent>> ReadDayClicks(
    const std::string& path, size_t num_queries, size_t num_items) {
  SHOAL_ASSIGN_OR_RETURN(auto rows, util::ReadTsv(path));
  std::vector<data::ClickEvent> clicks;
  clicks.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "%s: expected 3 fields, got %zu", path.c_str(), row.size()));
    }
    data::ClickEvent click;
    const size_t r = clicks.size();
    SHOAL_RETURN_IF_ERROR(util::ParseTsvField(path, r, row[0], &click.query));
    SHOAL_RETURN_IF_ERROR(util::ParseTsvField(path, r, row[1], &click.entity));
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
  }
  std::sort(clicks.begin(), clicks.end(),
            [](const data::ClickEvent& a, const data::ClickEvent& b) {
              if (a.timestamp_sec != b.timestamp_sec) {
                return a.timestamp_sec < b.timestamp_sec;
              }
              if (a.query != b.query) return a.query < b.query;
              return a.entity < b.entity;
            });
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
