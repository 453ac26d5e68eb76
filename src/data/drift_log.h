#ifndef SHOAL_DATA_DRIFT_LOG_H_
#define SHOAL_DATA_DRIFT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/bipartite_graph.h"
#include "util/result.h"

namespace shoal::data {

// Multi-day synthetic click log with per-day drift, the workload the
// incremental maintenance daemon (src/daemon) is tested and benched on.
// Reproducible from a single seed.
//
// Day-over-day structure mirrors a production log:
//   * a *stationary background* — a fixed multiset of (query, item)
//     click pairs emitted every day with identical per-day counts, so a
//     sliding window that drops one day and ingests the next sees no
//     aggregate change on these pairs (the stable head of traffic);
//   * *hot intents* — a small rotating set of leaf intents whose
//     queries receive a burst of extra clicks that day (trending
//     demand; these are the edges a cycle actually changes);
//   * *births* — a slice of catalog entities/queries first appears on
//     each day after day 0, seeded with introduction clicks (new
//     listings / first-seen queries, exercising the daemon's path for
//     entities entering the window).
//
// The catalog (entity titles, query texts, ontology) is static across
// days: day d > 0 reveals pre-generated rows rather than minting new
// ids, so every artefact of every cycle indexes one id space.
struct DriftOptions {
  // The static catalog universe (entities/queries across ALL days).
  // `catalog.num_clicks` is ignored — clicks come from the day streams.
  DatasetOptions catalog;

  size_t num_days = 9;

  // Stationary background: this many (query, item) pairs, each clicked
  // `1 + Poisson(background_extra_mean)` times per day (the per-pair
  // count is drawn once and reused every day — that invariance is what
  // keeps untouched topics bit-identical across cycles).
  size_t background_pairs = 12000;
  double background_extra_mean = 1.5;

  // Per-day drift burst.
  size_t hot_intents_per_day = 2;
  size_t drift_clicks_per_day = 4000;
  // Probability a drift click lands on a random active entity instead
  // of the hot intent's pool.
  double click_noise = 0.02;

  // Fraction of the catalog born on each day after day 0 (day 0 gets
  // the remainder). Newborns are drawn from the day's hot intents when
  // possible (new listings follow trending demand) — this keeps the
  // day's churn concentrated, which is what makes the incremental path
  // worth having; spreading births uniformly would dirty almost every
  // cluster every day. Newborns receive `intro_clicks` clicks on their
  // birth day.
  double new_entity_fraction = 0.002;
  double new_query_fraction = 0.002;
  size_t intro_clicks = 8;

  // Day d covers [day_zero_sec + d*86400, day_zero_sec + (d+1)*86400).
  uint64_t day_zero_sec = 1'600'000'000;
};

// One emitted day, with the ground truth of what drifted.
struct DriftDay {
  std::vector<ClickEvent> clicks;        // sorted (timestamp, query, entity)
  std::vector<uint32_t> hot_intents;     // leaf intents burst this day
  std::vector<uint32_t> born_entities;   // first active this day
  std::vector<uint32_t> born_queries;
};

struct DriftLog {
  DriftOptions options;
  Dataset catalog;  // clicks empty; the full static universe
  std::vector<uint32_t> entity_birth_day;  // per entity id
  std::vector<uint32_t> query_birth_day;   // per query id
  std::vector<DriftDay> days;

  uint64_t DayBeginSec(size_t day) const {
    return options.day_zero_sec + day * 86400ull;
  }
  uint64_t DayEndSec(size_t day) const { return DayBeginSec(day + 1); }
};

// Generates the drift log. Deterministic in `options.catalog.seed`.
util::Result<DriftLog> GenerateDriftLog(const DriftOptions& options);

// Query-item bipartite graph over days [begin_day, end_day) — the
// from-scratch reference for a window the daemon maintained
// incrementally.
graph::BipartiteGraph BuildWindowGraph(const DriftLog& log, size_t begin_day,
                                       size_t end_day);

// ---- spool export ---------------------------------------------------------
// On-disk form consumed by shoal_daemon: the static catalog in the
// log_io exchange format (items.tsv + queries.tsv, no clicks.tsv) plus
// one clicks file per day, dropped into a spool directory as the day
// "arrives":
//
//   <dir>/items.tsv              item_id  category_id  title
//   <dir>/queries.tsv            query_id  text
//   <dir>/day-0000.clicks.tsv    query_id  item_id  timestamp_sec
//
// Day files sort lexicographically in day order; the daemon processes
// them in that order.

// "day-%04zu.clicks.tsv".
std::string DriftDayFileName(size_t day);

// Writes items.tsv + queries.tsv for the full catalog.
util::Status ExportDriftCatalog(const DriftLog& log, const std::string& dir);

// Writes one day's clicks file (atomically enough for the spool: the
// file appears fully written under its final name).
util::Status ExportDriftDay(const DriftLog& log, size_t day,
                            const std::string& dir);

}  // namespace shoal::data

#endif  // SHOAL_DATA_DRIFT_LOG_H_
