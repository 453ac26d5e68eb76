// shoal_daemon: the offline maintenance loop. Watches a spool
// directory for arriving day files (see src/daemon/spool.h), runs one
// incremental update cycle per file — apply the click delta to the
// standing entity graph, splice the dirty subtrees of the standing
// dendrogram, re-describe only the touched topics — and publishes each
// result as a versioned serving index through the same atomic-rename
// file shoal_serve hot-reloads.
//
//   shoal_daemon --spool DIR --index taxonomy.idx [--snapshot daemon.snap]
//       watch the spool, one cycle per day file, until SIGINT/SIGTERM
//   shoal_daemon --spool DIR --index taxonomy.idx --once
//       drain every pending day file, then exit (cron-style operation)
//   shoal_daemon --generate-out DIR --days 3 --entities 600
//       write a reproducible multi-day drift workload (catalog + day
//       files + probe_queries.tsv) into DIR — the producer side for
//       the smoke test and for trying the daemon end to end
//
// With --snapshot, the standing window state is checkpointed after
// every cycle; a restarted daemon restores it and resumes at the first
// unconsumed day file instead of rebuilding the window from scratch.
//
// --trace-out and --metrics-out (obs/cli_flags.h, as in shoal_cli) are
// written when the daemon exits: the trace holds every span of the run
// (daemon.word2vec at start-up, then one daemon.cycle span per cycle
// with a child per phase; the first cycle's full clustering and every
// splice add hac.* spans), the metrics file the daemon.*, hac.* and
// pool metrics. The trace buffers in memory until then, so use it with
// --once or --max-cycles rather than on a long watch.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#include "daemon/daemon.h"
#include "data/drift_log.h"
#include "obs/cli_flags.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace {

using namespace shoal;

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

// Writes a drift workload spool: items.tsv + queries.tsv, one clicks
// file per day, and probe_queries.tsv (day<TAB>query_id<TAB>text, one
// query per day that first receives clicks that day) so a smoke test
// can assert that day-N queries resolve after the day-N cycle.
int RunGenerate(const util::FlagParser& flags) {
  data::DriftOptions options;
  options.catalog.num_entities =
      static_cast<size_t>(flags.GetInt64("entities"));
  options.catalog.num_queries = static_cast<size_t>(flags.GetInt64("queries"));
  options.catalog.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.num_days = static_cast<size_t>(flags.GetInt64("days"));
  options.background_pairs =
      static_cast<size_t>(flags.GetInt64("background-pairs"));
  options.drift_clicks_per_day =
      static_cast<size_t>(flags.GetInt64("drift-clicks"));

  const std::string& dir = flags.GetString("generate-out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto generated = data::GenerateDriftLog(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const data::DriftLog& log = generated.value();

  auto exported = data::ExportDriftCatalog(log, dir);
  if (!exported.ok()) {
    std::fprintf(stderr, "cannot export catalog: %s\n",
                 exported.ToString().c_str());
    return 1;
  }
  std::string probe;
  for (size_t day = 0; day < log.days.size(); ++day) {
    auto status = data::ExportDriftDay(log, day, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot export day %zu: %s\n", day,
                   status.ToString().c_str());
      return 1;
    }
    const data::DriftDay& d = log.days[day];
    uint32_t query = d.born_queries.empty()
                         ? (d.clicks.empty() ? 0 : d.clicks.front().query)
                         : d.born_queries.front();
    probe += util::StringPrintf(
        "%zu\t%u\t%s\n", day, query,
        std::string(log.catalog.queries[query].text).c_str());
    std::printf("day %zu: %zu clicks, %zu born entities, %zu born queries\n",
                day, d.clicks.size(), d.born_entities.size(),
                d.born_queries.size());
  }
  auto wrote = util::WriteTextFile(dir + "/probe_queries.tsv", probe);
  if (!wrote.ok()) {
    std::fprintf(stderr, "cannot write probe_queries.tsv: %s\n",
                 wrote.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu-day drift spool (%zu entities, %zu queries) to %s\n",
              log.days.size(), log.catalog.entities.size(),
              log.catalog.queries.size(), dir.c_str());
  return 0;
}

void PrintReport(const daemon::CycleReport& r) {
  std::printf(
      "cycle %s -> v%llu%s: window=%zud delta=%zu recap=%zu rows/%zu "
      "edges dirty=%.3f (%zu subtrees, %zu leaves) topics=%zu touched=%zu "
      "carried=%zu\n"
      "  %.2fs total: ingest %.2f graph %.2f cluster %.2f describe %.2f "
      "publish %.2f snapshot %.2f\n",
      r.day_file.c_str(), static_cast<unsigned long long>(r.published_version),
      r.full_rebuild ? " (full rebuild)" : "", r.window_days,
      r.delta.delta_entries, r.delta.rows_recapped,
      r.delta.capped_edges_changed, r.dirty_fraction, r.splice.dirty_components,
      r.splice.dirty_leaves, r.num_topics, r.touched_topics, r.carried_topics,
      r.total_seconds, r.ingest_seconds, r.graph_seconds, r.cluster_seconds,
      r.describe_seconds, r.publish_seconds, r.snapshot_seconds);
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("spool", "", "spool directory to watch (required)");
  flags.AddString("index", "", "serving index to publish (required)");
  flags.AddString("snapshot", "",
                  "standing-window checkpoint written after every cycle; a "
                  "restarted daemon resumes from it (empty = off)");
  flags.AddInt64("window-days", 7, "days kept in the sliding window");
  flags.AddInt64("threads", 1,
                 "worker threads for HAC, the first full clustering and "
                 "each splice (0 = HAC's default; results are identical "
                 "at any setting)");
  flags.AddBool("once", false,
                "drain every pending day file and exit instead of watching");
  flags.AddInt64("poll-sec", 2, "spool poll interval while watching");
  flags.AddInt64("max-cycles", 0,
                 "stop after this many cycles in this run (0 = unlimited)");
  obs::AddObservabilityFlags(flags);
  // Workload generator mode (ignores the daemon flags above).
  flags.AddString("generate-out", "",
                  "write a multi-day drift workload spool into this "
                  "directory and exit");
  flags.AddInt64("days", 9, "generator: number of days");
  flags.AddInt64("entities", 2000, "generator: catalog entities");
  flags.AddInt64("queries", 1500, "generator: catalog queries");
  flags.AddInt64("seed", 2019, "generator: RNG seed (fully reproducible)");
  flags.AddInt64("background-pairs", 12000,
                 "generator: stationary (query,item) pairs emitted daily");
  flags.AddInt64("drift-clicks", 4000,
                 "generator: per-day burst clicks on the hot intents");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!obs::EnableObservability(flags)) return 1;

  if (!flags.GetString("generate-out").empty()) return RunGenerate(flags);

  if (flags.GetString("spool").empty() || flags.GetString("index").empty()) {
    std::fprintf(stderr, "--spool and --index are required\n");
    return 1;
  }
  if (flags.GetInt64("threads") < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 1;
  }
  if (flags.GetInt64("window-days") < 1) {
    std::fprintf(stderr, "--window-days must be >= 1\n");
    return 1;
  }
  obs::MetricsRegistry::Global().Enable();

  daemon::DaemonOptions options;
  options.spool_dir = flags.GetString("spool");
  options.index_path = flags.GetString("index");
  options.snapshot_path = flags.GetString("snapshot");
  options.window_days = static_cast<size_t>(flags.GetInt64("window-days"));
  options.num_threads = static_cast<size_t>(flags.GetInt64("threads"));

  auto created = daemon::TaxonomyDaemon::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "cannot start daemon: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto daemon = std::move(created).value();
  std::printf("daemon up: %zu entities, %zu queries%s\n",
              daemon->catalog().items.size(), daemon->catalog().queries.size(),
              daemon->restored_from_snapshot()
                  ? util::StringPrintf(
                        " (restored snapshot: %llu cycles done, v%llu "
                        "published)",
                        static_cast<unsigned long long>(daemon->cycles_done()),
                        static_cast<unsigned long long>(
                            daemon->published_version()))
                        .c_str()
                  : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const bool once = flags.GetBool("once");
  const int64_t poll_sec = flags.GetInt64("poll-sec");
  const int64_t max_cycles = flags.GetInt64("max-cycles");
  // The trace and metrics of the run, also after a failed cycle.
  const auto write_observability = [&flags] {
    auto wrote = obs::WriteObservability(flags);
    if (!wrote.ok()) {
      std::fprintf(stderr, "cannot write observability output: %s\n",
                   wrote.ToString().c_str());
    }
    return wrote.ok();
  };
  int64_t cycles_this_run = 0;
  while (!g_shutdown.load()) {
    auto ran = daemon->RunOnce();
    if (!ran.ok()) {
      std::fprintf(stderr, "cycle failed: %s\n",
                   ran.status().ToString().c_str());
      write_observability();
      return 1;
    }
    if (ran->has_value()) {
      PrintReport(**ran);
      ++cycles_this_run;
      if (max_cycles > 0 && cycles_this_run >= max_cycles) break;
      continue;  // drain the backlog before sleeping
    }
    if (once) break;  // spool drained
    // Idle: poll for the next arriving day file, staying responsive to
    // shutdown signals.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(poll_sec > 0 ? poll_sec : 1);
    while (!g_shutdown.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  std::printf("daemon exiting: %lld cycle(s) this run, v%llu published\n",
              static_cast<long long>(cycles_this_run),
              static_cast<unsigned long long>(daemon->published_version()));
  return write_observability() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
