// The multi-day drift workload: reproducible from its seed, honours
// birth days, keeps the stationary background invariant day over day,
// and round-trips through the spool export the daemon consumes.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/spool.h"
#include "data/drift_log.h"
#include "data/log_io.h"
#include "util/tsv.h"

namespace shoal::data {
namespace {

DriftOptions TestOptions() {
  DriftOptions options;
  options.catalog.num_entities = 300;
  options.catalog.num_queries = 220;
  options.catalog.seed = 42;
  options.num_days = 4;
  options.background_pairs = 2000;
  options.drift_clicks_per_day = 800;
  options.new_entity_fraction = 0.01;
  options.new_query_fraction = 0.01;
  return options;
}

using PairCounts = std::map<std::pair<uint32_t, uint32_t>, uint64_t>;

PairCounts DayCounts(const DriftDay& day) {
  PairCounts counts;
  for (const auto& click : day.clicks) ++counts[{click.query, click.entity}];
  return counts;
}

TEST(DriftLogTest, ReproducibleFromSeed) {
  auto a = GenerateDriftLog(TestOptions());
  auto b = GenerateDriftLog(TestOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->days.size(), b->days.size());
  EXPECT_EQ(a->entity_birth_day, b->entity_birth_day);
  EXPECT_EQ(a->query_birth_day, b->query_birth_day);
  for (size_t d = 0; d < a->days.size(); ++d) {
    const auto& da = a->days[d];
    const auto& db = b->days[d];
    ASSERT_EQ(da.clicks.size(), db.clicks.size()) << "day " << d;
    for (size_t i = 0; i < da.clicks.size(); ++i) {
      EXPECT_EQ(da.clicks[i].query, db.clicks[i].query);
      EXPECT_EQ(da.clicks[i].entity, db.clicks[i].entity);
      EXPECT_EQ(da.clicks[i].timestamp_sec, db.clicks[i].timestamp_sec);
    }
    EXPECT_EQ(da.hot_intents, db.hot_intents) << "day " << d;
    EXPECT_EQ(da.born_entities, db.born_entities) << "day " << d;
    EXPECT_EQ(da.born_queries, db.born_queries) << "day " << d;
  }

  DriftOptions reseeded = TestOptions();
  reseeded.catalog.seed = 43;
  auto c = GenerateDriftLog(reseeded);
  ASSERT_TRUE(c.ok());
  bool any_difference = c->days[0].clicks.size() != a->days[0].clicks.size();
  for (size_t i = 0;
       !any_difference && i < a->days[0].clicks.size(); ++i) {
    any_difference = a->days[0].clicks[i].query != c->days[0].clicks[i].query ||
                     a->days[0].clicks[i].entity != c->days[0].clicks[i].entity;
  }
  EXPECT_TRUE(any_difference) << "different seeds produced the same day 0";
}

TEST(DriftLogTest, NoClicksBeforeBirthDay) {
  auto log = GenerateDriftLog(TestOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->entity_birth_day.size(), log->catalog.entities.size());
  ASSERT_EQ(log->query_birth_day.size(), log->catalog.queries.size());

  size_t late_births = 0;
  for (uint32_t day : log->entity_birth_day) {
    if (day > 0) ++late_births;
  }
  EXPECT_GT(late_births, 0u) << "workload planted no entity births";

  for (size_t d = 0; d < log->days.size(); ++d) {
    for (const auto& click : log->days[d].clicks) {
      EXPECT_LE(log->query_birth_day[click.query], d)
          << "query " << click.query << " clicked before birth on day " << d;
      EXPECT_LE(log->entity_birth_day[click.entity], d)
          << "entity " << click.entity << " clicked before birth on day " << d;
      EXPECT_GE(click.timestamp_sec, log->DayBeginSec(d));
      EXPECT_LT(click.timestamp_sec, log->DayEndSec(d));
    }
    for (uint32_t entity : log->days[d].born_entities) {
      EXPECT_EQ(log->entity_birth_day[entity], d);
    }
  }
}

TEST(DriftLogTest, StationaryBackgroundIsDayInvariant) {
  auto log = GenerateDriftLog(TestOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_GE(log->days.size(), 3u);
  // Pairs present with identical counts on every day form the
  // background. It must dominate the per-day drift burst — that excess
  // stability is what the incremental daemon exploits.
  auto first = DayCounts(log->days[0]);
  PairCounts invariant;
  for (const auto& [pair, count] : first) invariant[pair] = count;
  for (size_t d = 1; d < log->days.size(); ++d) {
    auto counts = DayCounts(log->days[d]);
    for (auto it = invariant.begin(); it != invariant.end();) {
      auto found = counts.find(it->first);
      if (found == counts.end() || found->second != it->second) {
        it = invariant.erase(it);
      } else {
        ++it;
      }
    }
  }
  EXPECT_GT(invariant.size(), first.size() / 2)
      << "stationary background eroded: " << invariant.size() << " of "
      << first.size() << " day-0 pairs survive every day";
  // And each day still drifts: some pairs are unique to that day.
  for (size_t d = 1; d < log->days.size(); ++d) {
    auto counts = DayCounts(log->days[d]);
    size_t churned = 0;
    for (const auto& [pair, count] : counts) {
      auto it = invariant.find(pair);
      if (it == invariant.end() || it->second != count) ++churned;
    }
    EXPECT_GT(churned, 0u) << "day " << d << " produced no drift";
  }
}

TEST(DriftLogTest, WindowGraphMatchesPerDayAggregate) {
  auto log = GenerateDriftLog(TestOptions());
  ASSERT_TRUE(log.ok());
  const size_t begin = 1, end = 3;
  PairCounts expected;
  for (size_t d = begin; d < end; ++d) {
    for (const auto& [pair, count] : DayCounts(log->days[d])) {
      expected[pair] += count;
    }
  }
  auto graph = BuildWindowGraph(*log, begin, end);
  EXPECT_EQ(graph.num_left(), log->catalog.queries.size());
  EXPECT_EQ(graph.num_right(), log->catalog.entities.size());
  PairCounts actual;
  for (uint32_t q = 0; q < graph.num_left(); ++q) {
    for (const auto& link : graph.LeftNeighbors(q)) {
      actual[{q, link.id}] = link.count;
    }
  }
  EXPECT_EQ(expected, actual);
}

TEST(DriftLogTest, SpoolExportRoundTrips) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       (std::string("shoal_drift_spool_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto log = GenerateDriftLog(TestOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(ExportDriftCatalog(*log, dir).ok());
  // Export out of order; the spool listing must still sort by day.
  ASSERT_TRUE(ExportDriftDay(*log, 1, dir).ok());
  ASSERT_TRUE(ExportDriftDay(*log, 0, dir).ok());
  EXPECT_EQ(DriftDayFileName(0), "day-0000.clicks.tsv");

  auto catalog = ImportSearchCatalog(dir);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_EQ(catalog->items.size(), log->catalog.entities.size());
  ASSERT_EQ(catalog->queries.size(), log->catalog.queries.size());
  for (size_t i = 0; i < catalog->items.size(); ++i) {
    EXPECT_EQ(catalog->items[i].title, log->catalog.entities[i].title);
    EXPECT_EQ(catalog->items[i].category, log->catalog.entities[i].category);
  }
  for (size_t i = 0; i < catalog->queries.size(); ++i) {
    EXPECT_EQ(catalog->queries[i].text, log->catalog.queries[i].text);
  }

  auto files = daemon::ListDayFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0], DriftDayFileName(0));
  EXPECT_EQ((*files)[1], DriftDayFileName(1));

  for (size_t d = 0; d < 2; ++d) {
    auto clicks = daemon::ReadDayClicks(dir + "/" + DriftDayFileName(d),
                                        catalog->queries.size(),
                                        catalog->items.size());
    ASSERT_TRUE(clicks.ok()) << clicks.status().ToString();
    PairCounts expected = DayCounts(log->days[d]);
    PairCounts actual;
    for (const auto& click : *clicks) ++actual[{click.query, click.entity}];
    EXPECT_EQ(expected, actual) << "day " << d;
  }

  fs::remove_all(dir);
}

// Each row is read by ReadDayClicks alone, against 10 queries and 10
// items: an id or timestamp field must be all digits and in range.
TEST(DriftLogTest, ReadDayClicksRejectsMalformedFields) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       (std::string("shoal_drift_spool_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/" + DriftDayFileName(0);
  auto read_row = [&](const std::string& row) {
    EXPECT_TRUE(util::WriteTextFile(path, row + "\n").ok());
    return daemon::ReadDayClicks(path, 10, 10);
  };
  auto good = read_row("3\t4\t100");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*good)[0].query, 3u);
  EXPECT_EQ((*good)[0].timestamp_sec, 100u);
  for (const char* bad :
       {"4294967301\t3\t100", "7x\t2junk\t5", "\t1\t9", "1\t2\t-5",
        "1\t2\t18446744073709551616", " 1\t2\t5", "1\t2\t5 "}) {
    auto clicks = read_row(bad);
    ASSERT_FALSE(clicks.ok()) << "row '" << bad << "' was accepted";
    EXPECT_EQ(clicks.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(clicks.status().message().find(path), std::string::npos)
        << clicks.status().ToString();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace shoal::data
