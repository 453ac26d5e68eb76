#ifndef SHOAL_DATA_LOG_IO_H_
#define SHOAL_DATA_LOG_IO_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "util/result.h"

namespace shoal::data {

// Raw search-log exchange format — what an e-commerce platform would
// dump from its own systems to run SHOAL on real data:
//
//   <dir>/items.tsv    item_id  category_id  title
//   <dir>/queries.tsv  query_id  text
//   <dir>/clicks.tsv   query_id  item_id  timestamp_sec
//
// Ids must be dense ([0, N) in file order is checked). Categories are
// free integers (an external taxonomy's leaf ids).

// Exports a synthetic dataset's observable part (no ground truth) in
// the exchange format. Useful for demos and round-trip testing.
util::Status ExportSearchLog(const Dataset& dataset, const std::string& dir);

// A raw log loaded from the exchange format, plus the vocabulary built
// from its text (needed by the pipeline).
struct SearchLog {
  std::vector<ItemEntity> items;     // intent fields left kNoIntent
  std::vector<SearchQuery> queries;  // intent fields left kNoIntent
  std::vector<ClickEvent> clicks;    // sorted by timestamp
  text::Vocabulary vocab;
};

// Loads and validates the exchange format.
util::Result<SearchLog> ImportSearchLog(const std::string& dir);

// Builds a pipeline-ready input bundle from a raw log: tokenises
// titles/queries against the log's vocabulary and assembles the
// query-item bipartite graph from clicks in the trailing
// `window_days`-day window (relative to the newest click; see
// WindowBeginSec for windows longer than the log, NaN and <= 0).
// The SearchLog must outlive the bundle (the vocab is borrowed).
ShoalInputBundle MakeShoalInputFromLog(const SearchLog& log,
                                       double window_days = 7.0);

}  // namespace shoal::data

#endif  // SHOAL_DATA_LOG_IO_H_
