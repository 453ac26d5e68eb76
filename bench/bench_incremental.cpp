// Incremental maintenance bench (DESIGN.md §13): one daemon cycle vs a
// from-scratch rebuild of the same sliding window, on the planted
// multi-day drift workload.
//
// Per entity tier, the harness warms a TaxonomyDaemon through a full
// window, then measures the next day's incremental cycle against a
// from-scratch pipeline over the identical final window (entity graph +
// HAC + taxonomy + all descriptions + index compile/write; the static
// word2vec embedding and the day-file read are common to both worlds
// and excluded from both sides). It also reports:
//
//   * stability — of the previous cycle's topics with no member entity
//     incident to a changed standing-store edge, the fraction that
//     survive the cycle bit-identical (members, ranking scores,
//     description). The CI gate floors this at 0.95.
//   * speedup — full_rebuild_seconds / incremental_seconds, floored at
//     5x by the same gate.
//   * graph_identical — the incrementally maintained entity graph,
//     materialized, is byte-identical to a from-scratch build of the
//     window (weights compared bitwise).
//   * thread_identical — daemons at --det_threads thread counts publish
//     byte-identical final index files.
//
// The count leaves (delta entries, dirty entities, store edges, topic
// counts) are pure functions of the seeded workload and gate under
// perf_diff.py --mode identity; stability and speedup gate under
// --mode incremental (exit 6). The JSON this writes
// (BENCH_incremental.json) is the committed baseline for both gates.

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/entity_graph.h"
#include "core/parallel_hac.h"
#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "daemon/daemon.h"
#include "data/drift_log.h"
#include "serve/serving_index.h"
#include "util/tsv.h"

namespace shoal::bench {
namespace {

std::vector<size_t> ParseSizeList(const std::string& csv) {
  std::vector<size_t> out;
  for (const std::string& part : util::Split(csv, ',')) {
    out.push_back(static_cast<size_t>(std::stoull(part)));
  }
  return out;
}

data::DriftOptions TierWorkload(size_t entities, size_t window_days,
                                size_t measure_days, uint64_t seed) {
  data::DriftOptions options;
  options.catalog.num_entities = entities;
  options.catalog.num_queries = std::max<size_t>(200, entities * 3 / 4);
  // Keep ~60 entities per leaf intent as the tier grows (the
  // ScaledDataset convention of the other benches).
  options.catalog.num_root_intents = std::max<size_t>(4, entities / 180);
  options.catalog.children_per_root = 3;
  options.catalog.num_departments = std::max<size_t>(4, entities / 500);
  options.catalog.leaves_per_department = 8;
  options.catalog.seed = seed;
  options.num_days = window_days + measure_days;  // post-warmup days measure
  options.background_pairs = entities * 3;
  options.drift_clicks_per_day = std::max<size_t>(500, entities / 4);
  // Keep the drift concentrated on the day's hot intents: uniform noise
  // clicks manufacture co-click bridges between otherwise unrelated
  // intents, fusing the entity graph into components far larger than
  // the drift's true footprint — which is precisely the regime where
  // incremental maintenance has nothing to offer. Production drift is
  // head-heavy, not uniform.
  options.click_noise = 0.002;
  return options;
}

// One topic's identity-relevant content, captured before the measured
// cycle so stability can be judged by byte comparison afterwards.
struct TopicImage {
  std::vector<uint32_t> entities;  // sorted members
  std::vector<core::ScoredQuery> ranking;
  std::vector<std::string> description;
};

std::map<std::vector<uint32_t>, TopicImage> CaptureTopics(
    const core::Taxonomy& taxonomy) {
  const auto& rankings = taxonomy.rankings()->by_topic;
  std::map<std::vector<uint32_t>, TopicImage> images;
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    TopicImage image;
    image.entities = taxonomy.topic(t).entities;
    std::sort(image.entities.begin(), image.entities.end());
    image.ranking = rankings[t];
    image.description = taxonomy.topic(t).description;
    images.emplace(image.entities, std::move(image));
  }
  return images;
}

bool SameRanking(const std::vector<core::ScoredQuery>& a,
                 const std::vector<core::ScoredQuery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query ||
        a[i].representativeness != b[i].representativeness ||
        a[i].popularity != b[i].popularity ||
        a[i].concentration != b[i].concentration) {
      return false;
    }
  }
  return true;
}

// Entities incident to any standing-store edge that changed between two
// store snapshots (added, removed, or reweighted) — the delta's actual
// footprint on the graph, independent of the daemon's own dirty-set
// bookkeeping.
std::set<uint32_t> StoreDirtyEntities(
    const std::vector<core::ScoredEdge>& before,
    const std::vector<core::ScoredEdge>& after) {
  std::map<std::pair<uint32_t, uint32_t>, double> old_edges;
  for (const auto& e : before) old_edges[{e.u, e.v}] = e.s;
  std::set<uint32_t> dirty;
  std::map<std::pair<uint32_t, uint32_t>, double> new_edges;
  for (const auto& e : after) new_edges[{e.u, e.v}] = e.s;
  for (const auto& [key, score] : new_edges) {
    auto it = old_edges.find(key);
    if (it == old_edges.end() || it->second != score) {
      dirty.insert(key.first);
      dirty.insert(key.second);
    }
  }
  for (const auto& [key, score] : old_edges) {
    if (!new_edges.count(key)) {
      dirty.insert(key.first);
      dirty.insert(key.second);
    }
  }
  return dirty;
}

bool SameWeightedGraph(const graph::WeightedGraph& a,
                       const graph::WeightedGraph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  auto ea = a.AllEdges();
  auto eb = b.AllEdges();
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].u != eb[i].u || ea[i].v != eb[i].v ||
        ea[i].weight != eb[i].weight) {
      return false;
    }
  }
  return true;
}

std::string FileBytes(const std::string& path) {
  auto read = util::ReadTextFile(path);
  SHOAL_CHECK(read.ok()) << read.status().ToString();
  return std::move(read).value();
}

// One measured incremental cycle (a post-warmup day sliding the window).
struct CycleResult {
  size_t day = 0;  // spool day index
  daemon::CycleReport report;
  size_t store_edges = 0;
  size_t dirty_entities = 0;
  size_t untouched_topics = 0;
  size_t stable_topics = 0;
  double stability = 1.0;
  double incremental_seconds = 0.0;
};

struct TierResult {
  size_t entities = 0;
  std::vector<CycleResult> cycles;
  // Gate values over the measured cycles: the median cycle time (noise
  // robustness) against one rebuild of the final window, and the worst
  // per-cycle stability.
  double stability = 1.0;
  double incremental_seconds = 0.0;
  double full_rebuild_seconds = 0.0;
  double rebuild_describe_seconds = 0.0;  // the rebuild's Describe
  double speedup = 0.0;
  bool graph_identical = false;
  bool thread_identical = true;
};

// Fresh daemon over `spool`, run through every spooled day. Returns the
// final published index bytes.
std::string RunAllDays(const daemon::DaemonOptions& options,
                       size_t expect_cycles) {
  auto created = daemon::TaxonomyDaemon::Create(options);
  SHOAL_CHECK(created.ok()) << created.status().ToString();
  auto& daemon = *created.value();
  size_t cycles = 0;
  while (true) {
    auto report = daemon.RunOnce();
    SHOAL_CHECK(report.ok()) << report.status().ToString();
    if (!report->has_value()) break;
    ++cycles;
  }
  SHOAL_CHECK(cycles == expect_cycles)
      << cycles << " cycles, expected " << expect_cycles;
  return FileBytes(options.index_path);
}

TierResult RunTier(size_t entities, size_t window_days, size_t measure_days,
                   uint64_t seed, const std::vector<size_t>& det_threads,
                   const std::string& work_dir) {
  namespace fs = std::filesystem;
  const std::string tier_dir =
      work_dir + "/tier_" + std::to_string(entities);
  fs::remove_all(tier_dir);
  const std::string spool = tier_dir + "/spool";
  fs::create_directories(spool);

  auto log = data::GenerateDriftLog(
      TierWorkload(entities, window_days, measure_days, seed));
  SHOAL_CHECK(log.ok()) << log.status().ToString();
  SHOAL_CHECK(data::ExportDriftCatalog(*log, spool).ok());
  for (size_t d = 0; d < log->days.size(); ++d) {
    SHOAL_CHECK(data::ExportDriftDay(*log, d, spool).ok());
  }

  daemon::DaemonOptions options;
  options.spool_dir = spool;
  options.index_path = tier_dir + "/published.idx";
  options.window_days = window_days;  // snapshotting off: neither world
                                      // checkpoints in this comparison
  auto created = daemon::TaxonomyDaemon::Create(options);
  SHOAL_CHECK(created.ok()) << created.status().ToString();
  auto& live = *created.value();

  // Warm up through the first full window (days 0..window-1).
  for (size_t d = 0; d < window_days; ++d) {
    auto report = live.RunOnce();
    SHOAL_CHECK(report.ok()) << report.status().ToString();
    SHOAL_CHECK(report->has_value());
  }
  // Measured cycles: every remaining day slides the window by one.
  TierResult result;
  result.entities = entities;
  const size_t num_days = log->days.size();
  for (size_t d = window_days; d < num_days; ++d) {
    auto store_before = live.graph().StoreEdges();
    auto topics_before = CaptureTopics(live.taxonomy());

    CycleResult cycle;
    cycle.day = d;
    {
      auto report = live.RunOnce();
      SHOAL_CHECK(report.ok()) << report.status().ToString();
      SHOAL_CHECK(report->has_value());
      cycle.report = **report;
    }
    SHOAL_CHECK(!cycle.report.full_rebuild)
        << "measured cycle fell back to rebuild";
    cycle.incremental_seconds =
        cycle.report.graph_seconds + cycle.report.cluster_seconds +
        cycle.report.describe_seconds + cycle.report.publish_seconds;

    // Stability over the delta's store footprint.
    auto store_after = live.graph().StoreEdges();
    cycle.store_edges = store_after.size();
    auto dirty = StoreDirtyEntities(store_before, store_after);
    cycle.dirty_entities = dirty.size();
    auto topics_after = CaptureTopics(live.taxonomy());
    for (const auto& [members, image] : topics_before) {
      bool untouched = true;
      for (uint32_t e : members) {
        if (dirty.count(e)) {
          untouched = false;
          break;
        }
      }
      if (!untouched) continue;
      ++cycle.untouched_topics;
      auto it = topics_after.find(members);
      if (it != topics_after.end() &&
          SameRanking(image.ranking, it->second.ranking) &&
          image.description == it->second.description) {
        ++cycle.stable_topics;
      }
    }
    cycle.stability =
        cycle.untouched_topics == 0
            ? 1.0
            : static_cast<double>(cycle.stable_topics) /
                  static_cast<double>(cycle.untouched_topics);
    result.cycles.push_back(std::move(cycle));
  }
  SHOAL_CHECK(!result.cycles.empty());
  std::vector<double> cycle_seconds;
  result.stability = 1.0;
  for (const auto& cycle : result.cycles) {
    cycle_seconds.push_back(cycle.incremental_seconds);
    result.stability = std::min(result.stability, cycle.stability);
  }
  std::sort(cycle_seconds.begin(), cycle_seconds.end());
  result.incremental_seconds = cycle_seconds[cycle_seconds.size() / 2];

  // From-scratch pipeline over the identical final window, timed over
  // the stages the incremental cycle replaces.
  graph::BipartiteGraph window_graph =
      data::BuildWindowGraph(*log, num_days - window_days, num_days);
  util::Stopwatch rebuild_watch;
  auto scratch_graph =
      core::BuildEntityGraph(window_graph, live.title_words(),
                             live.word_vectors(), options.entity_graph);
  SHOAL_CHECK(scratch_graph.ok()) << scratch_graph.status().ToString();
  auto scratch_dendrogram = core::ParallelHac(*scratch_graph, options.hac);
  SHOAL_CHECK(scratch_dendrogram.ok())
      << scratch_dendrogram.status().ToString();
  std::vector<uint32_t> categories;
  categories.reserve(live.catalog().items.size());
  for (const auto& item : live.catalog().items) {
    categories.push_back(item.category);
  }
  core::Taxonomy scratch_taxonomy = core::Taxonomy::Build(
      *scratch_dendrogram, categories, options.taxonomy);
  std::vector<std::vector<uint32_t>> query_words;
  std::vector<std::string> query_texts;
  for (const auto& query : live.catalog().queries) {
    query_words.push_back(query.words);
    query_texts.push_back(query.text);
  }
  core::DescriberInput describe_input;
  describe_input.taxonomy = &scratch_taxonomy;
  describe_input.query_item_graph = &window_graph;
  describe_input.query_words = &query_words;
  describe_input.query_texts = &query_texts;
  describe_input.entity_title_words = &live.title_words();
  const double pre_describe_seconds = rebuild_watch.ElapsedSeconds();
  auto described = core::TopicDescriber::Describe(
      scratch_taxonomy, describe_input, options.describer);
  SHOAL_CHECK(described.ok()) << described.status().ToString();
  result.rebuild_describe_seconds =
      rebuild_watch.ElapsedSeconds() - pre_describe_seconds;
  serve::CompileOptions compile_options;
  compile_options.version = result.cycles.back().report.published_version;
  compile_options.max_postings_per_query = options.max_postings_per_query;
  auto scratch_index =
      serve::CompileServingIndex(scratch_taxonomy, describe_input,
                                 options.describer, &categories,
                                 compile_options);
  SHOAL_CHECK(scratch_index.ok()) << scratch_index.status().ToString();
  SHOAL_CHECK(serve::WriteServingIndexFile(tier_dir + "/scratch.idx",
                                           scratch_index.value())
                  .ok());
  result.full_rebuild_seconds = rebuild_watch.ElapsedSeconds();
  result.speedup = result.incremental_seconds > 0.0
                       ? result.full_rebuild_seconds /
                             result.incremental_seconds
                       : 0.0;

  // The maintained graph is the from-scratch graph, bit for bit.
  auto maintained = live.graph().Materialize();
  SHOAL_CHECK(maintained.ok()) << maintained.status().ToString();
  result.graph_identical = SameWeightedGraph(*scratch_graph, *maintained);

  // Thread determinism: fresh daemons at each --det_threads count
  // publish final index bytes identical to the measured daemon's.
  const std::string reference_bytes = FileBytes(options.index_path);
  for (size_t threads : det_threads) {
    daemon::DaemonOptions variant = options;
    variant.num_threads = threads;
    variant.index_path =
        tier_dir + "/published_t" + std::to_string(threads) + ".idx";
    if (RunAllDays(variant, num_days) != reference_bytes) {
      result.thread_identical = false;
      SHOAL_LOG(kError) << "published index at " << threads
                       << " threads diverged (tier " << entities << ")";
    }
  }

  fs::remove_all(tier_dir);
  return result;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("sizes", "5000,20000", "entity tiers, comma separated");
  flags.AddInt64("window", 3, "sliding-window length in days");
  flags.AddInt64("measure_days", 3,
                 "post-warmup days measured; the gate takes the median "
                 "cycle time and the worst per-cycle stability");
  flags.AddInt64("seed", 2019, "workload seed");
  flags.AddString("det_threads", "2,4,8",
                  "extra thread counts for the byte-identity sweep");
  flags.AddString("json_out", "", "write machine-readable results here");
  obs::AddObservabilityFlags(flags);
  auto parsed = flags.Parse(argc, argv);
  SHOAL_CHECK(parsed.ok()) << parsed.ToString();
  if (flags.help_requested()) return 0;
  if (!obs::EnableObservability(flags)) return 1;

  PrintHeader("bench_incremental — daemon cycle vs full rebuild",
              "incremental window maintenance amortizes the rebuild: one "
              "day's delta re-clusters only dirty subtrees while untouched "
              "topics ride across bit-identical");

  const auto sizes = ParseSizeList(flags.GetString("sizes"));
  const auto det_threads = ParseSizeList(flags.GetString("det_threads"));
  const size_t window = static_cast<size_t>(flags.GetInt64("window"));
  const size_t measure_days =
      static_cast<size_t>(flags.GetInt64("measure_days"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  const std::string work_dir =
      (std::filesystem::temp_directory_path() / "shoal_bench_incremental")
          .string();

  std::printf("%8s %10s %10s %8s %9s %7s %7s %6s %6s\n", "entities",
              "rebuild_s", "incr_s", "speedup", "stability", "dirty",
              "topics", "graph", "thr");
  util::JsonValue json_sizes = util::JsonValue::Array();
  bool all_identical = true;
  for (size_t entities : sizes) {
    TierResult r = RunTier(entities, window, measure_days, seed, det_threads,
                           work_dir);
    std::printf("%8zu %10.3f %10.3f %7.1fx %9.4f %7zu %7zu %6s %6s\n",
                r.entities, r.full_rebuild_seconds, r.incremental_seconds,
                r.speedup, r.stability, r.cycles.back().dirty_entities,
                r.cycles.back().report.num_topics,
                r.graph_identical ? "ok" : "DIFF",
                r.thread_identical ? "ok" : "DIFF");
    std::printf("%8s  rebuild: describe=%.3fs (every topic)\n", "",
                r.rebuild_describe_seconds);
    for (const auto& c : r.cycles) {
      std::printf("%8s  day %zu: graph=%.3fs splice=%.3fs describe=%.3fs "
                  "publish=%.3fs dirty_frac=%.4f stability=%.4f\n", "",
                  c.day, c.report.graph_seconds, c.report.cluster_seconds,
                  c.report.describe_seconds, c.report.publish_seconds,
                  c.report.dirty_fraction, c.stability);
    }
    all_identical = all_identical && r.graph_identical && r.thread_identical;

    util::JsonValue row = util::JsonValue::Object();
    row.Set("entities",
            util::JsonValue::Number(static_cast<double>(r.entities)));
    row.Set("full_rebuild_seconds",
            util::JsonValue::Number(r.full_rebuild_seconds));
    row.Set("incremental_seconds",
            util::JsonValue::Number(r.incremental_seconds));
    row.Set("speedup", util::JsonValue::Number(r.speedup));
    row.Set("stability", util::JsonValue::Number(r.stability));
    row.Set("graph_identical",
            util::JsonValue::Number(r.graph_identical ? 1.0 : 0.0));
    row.Set("thread_identical",
            util::JsonValue::Number(r.thread_identical ? 1.0 : 0.0));
    util::JsonValue json_cycles = util::JsonValue::Array();
    for (const auto& c : r.cycles) {
      util::JsonValue cycle = util::JsonValue::Object();
      cycle.Set("day", util::JsonValue::Number(static_cast<double>(c.day)));
      cycle.Set("incremental_seconds",
                util::JsonValue::Number(c.incremental_seconds));
      cycle.Set("stability", util::JsonValue::Number(c.stability));
      cycle.Set("dirty_fraction",
                util::JsonValue::Number(c.report.dirty_fraction));
      cycle.Set("delta_entries",
                util::JsonValue::Number(
                    static_cast<double>(c.report.delta.delta_entries)));
      cycle.Set("dirty_entities",
                util::JsonValue::Number(
                    static_cast<double>(c.dirty_entities)));
      cycle.Set("edges",
                util::JsonValue::Number(static_cast<double>(c.store_edges)));
      cycle.Set("num_topics",
                util::JsonValue::Number(
                    static_cast<double>(c.report.num_topics)));
      cycle.Set("touched_topics",
                util::JsonValue::Number(
                    static_cast<double>(c.report.touched_topics)));
      cycle.Set("carried_topics",
                util::JsonValue::Number(
                    static_cast<double>(c.report.carried_topics)));
      cycle.Set("untouched_topics",
                util::JsonValue::Number(
                    static_cast<double>(c.untouched_topics)));
      cycle.Set("stable_topics",
                util::JsonValue::Number(
                    static_cast<double>(c.stable_topics)));
      json_cycles.Append(std::move(cycle));
    }
    row.Set("cycles", std::move(json_cycles));
    json_sizes.Append(std::move(row));
  }

  if (!flags.GetString("json_out").empty()) {
    util::JsonValue json = util::JsonValue::Object();
    json.Set("bench", util::JsonValue::Str("bench_incremental"));
    json.Set("seed", util::JsonValue::Number(static_cast<double>(seed)));
    json.Set("window_days",
             util::JsonValue::Number(static_cast<double>(window)));
    json.Set("sizes", std::move(json_sizes));
    auto status =
        util::WriteJsonFile(flags.GetString("json_out"), json);
    SHOAL_CHECK(status.ok()) << status.ToString();
    std::printf("wrote %s\n", flags.GetString("json_out").c_str());
  }
  const util::Status written = obs::WriteObservability(flags);
  SHOAL_CHECK(written.ok()) << written.ToString();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace shoal::bench

int main(int argc, char** argv) { return shoal::bench::Run(argc, argv); }
