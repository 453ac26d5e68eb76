#ifndef SHOAL_DAEMON_SPOOL_H_
#define SHOAL_DAEMON_SPOOL_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"

namespace shoal::daemon {

// The daemon's on-disk inbox. A spool directory holds the static
// catalog (items.tsv + queries.tsv, the log_io exchange format minus
// clicks.tsv, read by data::ImportSearchCatalog) and one clicks file
// per arriving day:
//
//   <spool>/items.tsv              item_id  category_id  title
//   <spool>/queries.tsv            query_id  text
//   <spool>/day-0000.clicks.tsv    query_id  item_id  timestamp_sec
//
// Day files must sort lexicographically in arrival order (the
// data::DriftDayFileName convention does); the daemon consumes them in
// that order, one update cycle per file. A producer publishes a day by
// writing the file under a temp name and renaming it into the spool —
// the same atomic-appearance convention the serving index uses.

// One day's clicks in file order (the daemon counts a day by sorting
// its (query, entity) keys, so no order is imposed here); ids are
// validated against the catalog bounds.
util::Result<std::vector<data::ClickEvent>> ReadDayClicks(
    const std::string& path, size_t num_queries, size_t num_items);

// Names (not paths) of the day files currently in the spool, sorted
// lexicographically. A file qualifies when it ends in ".clicks.tsv".
util::Result<std::vector<std::string>> ListDayFiles(const std::string& dir);

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_SPOOL_H_
