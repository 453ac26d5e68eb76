#include "data/log_io.h"

#include <algorithm>
#include <filesystem>

#include "obs/trace.h"
#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::data {

namespace {

std::string PathOf(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
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

util::Result<SearchCatalog> ImportSearchCatalog(const std::string& dir) {
  SearchCatalog catalog;

  SHOAL_RETURN_IF_ERROR(util::ReadTsvRows(
      PathOf(dir, "items.tsv"),
      [&](size_t r, std::span<const std::string_view> row) {
        if (row.size() != 3) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "items.tsv: expected 3 fields, got %zu", row.size()));
        }
        ItemEntity item;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("items.tsv", r, row[0], &item.id));
        if (item.id != r) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "items.tsv: ids must be dense; got %u at row %zu", item.id,
              r));
        }
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("items.tsv", r, row[1], &item.category));
        item.title = row[2];
        for (const std::string& token : text::Tokenize(item.title)) {
          item.title_words.push_back(catalog.vocab.AddWord(token));
        }
        catalog.items.push_back(std::move(item));
        return util::Status::OK();
      }));
  if (catalog.items.empty()) {
    return util::Status::InvalidArgument("items.tsv has no items");
  }

  SHOAL_RETURN_IF_ERROR(util::ReadTsvRows(
      PathOf(dir, "queries.tsv"),
      [&](size_t r, std::span<const std::string_view> row) {
        if (row.size() != 2) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "queries.tsv: expected 2 fields, got %zu", row.size()));
        }
        SearchQuery query;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("queries.tsv", r, row[0], &query.id));
        if (query.id != r) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "queries.tsv: ids must be dense; got %u at row %zu", query.id,
              r));
        }
        query.text = row[1];
        for (const std::string& token : text::Tokenize(query.text)) {
          query.words.push_back(catalog.vocab.AddWord(token));
        }
        catalog.queries.push_back(std::move(query));
        return util::Status::OK();
      }));
  if (catalog.queries.empty()) {
    return util::Status::InvalidArgument("queries.tsv has no queries");
  }
  return catalog;
}

util::Result<SearchLog> ImportSearchLog(const std::string& dir) {
  obs::ScopedSpan span("log_io.import");
  SearchLog log;
  SHOAL_ASSIGN_OR_RETURN(static_cast<SearchCatalog&>(log),
                         ImportSearchCatalog(dir));

  SHOAL_ASSIGN_OR_RETURN(const std::string bytes,
                         util::ReadTextFile(PathOf(dir, "clicks.tsv")));
  // One row per line at most: reserving that keeps the click vector from
  // doubling past the log's size.
  log.clicks.reserve(
      static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n')) + 1);
  SHOAL_RETURN_IF_ERROR(util::ForEachTsvRow(
      bytes, [&](size_t r, std::span<const std::string_view> row) {
        if (row.size() != 3) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "clicks.tsv: expected 3 fields, got %zu", row.size()));
        }
        ClickEvent click;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("clicks.tsv", r, row[0], &click.query));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("clicks.tsv", r, row[1], &click.entity));
        SHOAL_RETURN_IF_ERROR(util::ParseTsvField("clicks.tsv", r, row[2],
                                                  &click.timestamp_sec));
        if (click.query >= log.queries.size()) {
          return util::Status::InvalidArgument(
              "clicks.tsv: unknown query id");
        }
        if (click.entity >= log.items.size()) {
          return util::Status::InvalidArgument("clicks.tsv: unknown item id");
        }
        log.clicks.push_back(click);
        return util::Status::OK();
      }));
  std::sort(log.clicks.begin(), log.clicks.end(),
            [](const ClickEvent& a, const ClickEvent& b) {
              return a.timestamp_sec < b.timestamp_sec;
            });
  span.AddArg("items", static_cast<double>(log.items.size()));
  span.AddArg("queries", static_cast<double>(log.queries.size()));
  span.AddArg("clicks", static_cast<double>(log.clicks.size()));
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
