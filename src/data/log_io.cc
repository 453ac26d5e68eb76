#include "data/log_io.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::data {

namespace {

std::string PathOf(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

uint32_t ParseU32(const std::string& text) {
  return static_cast<uint32_t>(std::strtoul(text.c_str(), nullptr, 10));
}

}  // namespace

util::Status ExportSearchLog(const Dataset& dataset,
                             const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create directory " + dir + ": " +
                                 ec.message());
  }
  std::vector<std::vector<std::string>> items;
  items.push_back({"# item_id", "category_id", "title"});
  for (const ItemEntity& entity : dataset.entities) {
    items.push_back({std::to_string(entity.id),
                     std::to_string(entity.category), entity.title});
  }
  std::vector<std::vector<std::string>> queries;
  queries.push_back({"# query_id", "text"});
  for (const SearchQuery& query : dataset.queries) {
    queries.push_back({std::to_string(query.id), query.text});
  }
  std::vector<std::vector<std::string>> clicks;
  clicks.push_back({"# query_id", "item_id", "timestamp_sec"});
  for (const ClickEvent& click : dataset.clicks) {
    clicks.push_back({std::to_string(click.query),
                      std::to_string(click.entity),
                      std::to_string(click.timestamp_sec)});
  }
  SHOAL_RETURN_IF_ERROR(util::WriteTsv(PathOf(dir, "items.tsv"), items));
  SHOAL_RETURN_IF_ERROR(util::WriteTsv(PathOf(dir, "queries.tsv"), queries));
  SHOAL_RETURN_IF_ERROR(util::WriteTsv(PathOf(dir, "clicks.tsv"), clicks));
  return util::Status::OK();
}

util::Result<SearchLog> ImportSearchLog(const std::string& dir) {
  SearchLog log;

  SHOAL_ASSIGN_OR_RETURN(auto item_rows,
                         util::ReadTsv(PathOf(dir, "items.tsv")));
  for (const auto& row : item_rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: expected 3 fields, got %zu", row.size()));
    }
    ItemEntity item;
    item.id = ParseU32(row[0]);
    if (item.id != log.items.size()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "items.tsv: ids must be dense; got %u at row %zu", item.id,
          log.items.size()));
    }
    item.category = ParseU32(row[1]);
    item.title = row[2];
    for (const std::string& token : text::Tokenize(item.title)) {
      item.title_words.push_back(log.vocab.AddWord(token));
    }
    log.items.push_back(std::move(item));
  }
  if (log.items.empty()) {
    return util::Status::InvalidArgument("items.tsv has no items");
  }

  SHOAL_ASSIGN_OR_RETURN(auto query_rows,
                         util::ReadTsv(PathOf(dir, "queries.tsv")));
  for (const auto& row : query_rows) {
    if (row.size() != 2) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: expected 2 fields, got %zu", row.size()));
    }
    SearchQuery query;
    query.id = ParseU32(row[0]);
    if (query.id != log.queries.size()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "queries.tsv: ids must be dense; got %u at row %zu", query.id,
          log.queries.size()));
    }
    query.text = row[1];
    for (const std::string& token : text::Tokenize(query.text)) {
      query.words.push_back(log.vocab.AddWord(token));
    }
    log.queries.push_back(std::move(query));
  }
  if (log.queries.empty()) {
    return util::Status::InvalidArgument("queries.tsv has no queries");
  }

  SHOAL_ASSIGN_OR_RETURN(auto click_rows,
                         util::ReadTsv(PathOf(dir, "clicks.tsv")));
  for (const auto& row : click_rows) {
    if (row.size() != 3) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "clicks.tsv: expected 3 fields, got %zu", row.size()));
    }
    ClickEvent click;
    click.query = ParseU32(row[0]);
    click.entity = ParseU32(row[1]);
    click.timestamp_sec = std::strtoull(row[2].c_str(), nullptr, 10);
    if (click.query >= log.queries.size()) {
      return util::Status::InvalidArgument("clicks.tsv: unknown query id");
    }
    if (click.entity >= log.items.size()) {
      return util::Status::InvalidArgument("clicks.tsv: unknown item id");
    }
    log.clicks.push_back(click);
  }
  std::sort(log.clicks.begin(), log.clicks.end(),
            [](const ClickEvent& a, const ClickEvent& b) {
              return a.timestamp_sec < b.timestamp_sec;
            });
  return log;
}

ShoalInputBundle MakeShoalInputFromLog(const SearchLog& log,
                                       double window_days) {
  ShoalInputBundle bundle;
  const uint64_t end =
      log.clicks.empty() ? 0 : log.clicks.back().timestamp_sec + 1;
  const uint64_t begin = WindowBeginSec(end, window_days);

  bundle.query_item_graph =
      graph::BipartiteGraph(log.queries.size(), log.items.size());
  for (const ClickEvent& click : log.clicks) {
    if (click.timestamp_sec < begin || click.timestamp_sec >= end) continue;
    auto status =
        bundle.query_item_graph.AddInteraction(click.query, click.entity);
    (void)status;  // ids validated at import
  }
  bundle.entity_title_words.reserve(log.items.size());
  bundle.entity_categories.reserve(log.items.size());
  for (const ItemEntity& item : log.items) {
    bundle.entity_title_words.push_back(item.title_words);
    bundle.entity_categories.push_back(item.category);
  }
  bundle.query_words.reserve(log.queries.size());
  bundle.query_texts.reserve(log.queries.size());
  for (const SearchQuery& query : log.queries) {
    bundle.query_words.push_back(query.words);
    bundle.query_texts.push_back(query.text);
  }
  bundle.vocab = &log.vocab;
  return bundle;
}

}  // namespace shoal::data
