// shoal_serve: the online tier. Loads a serving index compiled by
// `shoal_cli build --serving-index-out` and exposes it over HTTP:
//
//   shoal_serve --index taxonomy.idx [--port 8080 --threads 4]
//       serve /v1/query, /v1/topic/<id>, /v1/item/<id>, /healthz,
//       /metrics and /admin/reload until SIGINT/SIGTERM
//   shoal_serve --index taxonomy.idx --selftest-out DIR
//       bind an ephemeral port, exercise every endpoint through a real
//       socket client, write each response body into DIR (for json_lint
//       validation), perform a hot reload, and exit non-zero on any
//       failure — the backbone of the ctest serving smoke
//
// Hot reload: POST /admin/reload re-reads --index, validates it, and
// swaps it in without dropping in-flight requests; --poll-sec N does the
// same automatically whenever the file's mtime changes. A corrupt or
// truncated file is rejected with a clean error and the old index keeps
// serving.

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>
#include <thread>

#include "obs/cli_flags.h"
#include "obs/metrics.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "serve/serving_index.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace {

using namespace shoal;

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

// Percent-encodes a query value for use in a request target.
std::string UrlEncode(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out += util::StringPrintf("%%%02X", c);
    }
  }
  return out;
}

// mtime of `path` in nanoseconds, or 0 when it cannot be stat'ed.
// Nanosecond resolution matters: a maintenance daemon republishing
// within the same second as the previous version must still trip the
// poller, and whole-second st_mtime would compare equal.
int64_t FileMtime(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
         static_cast<int64_t>(st.st_mtim.tv_nsec);
}

// Fetches `target` and writes the body to out_dir/name; fails loudly on
// transport errors or a status other than `want_status`.
bool SelftestFetch(const serve::HttpServer& server, const std::string& target,
                   const std::string& out_dir, const std::string& name,
                   int want_status) {
  auto fetched = serve::HttpFetch(server.host(), server.port(), target);
  if (!fetched.ok()) {
    std::fprintf(stderr, "selftest: GET %s failed: %s\n", target.c_str(),
                 fetched.status().ToString().c_str());
    return false;
  }
  if (fetched->status != want_status) {
    std::fprintf(stderr, "selftest: GET %s returned %d, want %d\n%s\n",
                 target.c_str(), fetched->status, want_status,
                 fetched->body.c_str());
    return false;
  }
  const std::string path = out_dir + "/" + name;
  auto written = util::WriteTextFile(path, fetched->body);
  if (!written.ok()) {
    std::fprintf(stderr, "selftest: cannot write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return false;
  }
  std::printf("selftest: GET %-40s -> %d (%zu bytes) %s\n", target.c_str(),
              fetched->status, fetched->body.size(), name.c_str());
  return true;
}

// Drives every endpoint through real sockets, captures the bodies for
// json_lint, and exercises the reload path. Returns a process exit code.
int RunSelftest(serve::ServingService& service, serve::HttpServer& server,
                const serve::ServingIndex& index,
                const std::string& out_dir) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "selftest: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::string query_target = "/v1/query?q=no+such+query&k=3";
  if (index.num_queries() > 0) {
    query_target =
        "/v1/query?q=" + UrlEncode(std::string(index.query_text(0))) + "&k=3";
  }
  bool ok = true;
  ok = SelftestFetch(server, query_target, out_dir, "query.json", 200) && ok;
  // Second fetch of the same target must hit the response cache and stay
  // byte-identical.
  ok = SelftestFetch(server, query_target, out_dir, "query_cached.json",
                     200) && ok;
  ok = SelftestFetch(server, "/v1/topic/0", out_dir, "topic.json",
                     index.num_topics() > 0 ? 200 : 404) && ok;
  ok = SelftestFetch(server, "/v1/item/0", out_dir, "item.json",
                     index.num_entities() > 0 ? 200 : 404) && ok;
  ok = SelftestFetch(server, "/healthz", out_dir, "healthz.json", 200) && ok;
  ok = SelftestFetch(server, "/readyz", out_dir, "readyz.json", 200) && ok;
  ok = SelftestFetch(server, "/admin/reload", out_dir, "reload.json", 200) &&
       ok;
  ok = SelftestFetch(server, "/v1/query?q=", out_dir, "query_empty.json",
                     200) && ok;
  ok = SelftestFetch(server, "/v1/topic/not-a-number", out_dir,
                     "topic_bad.json", 400) && ok;
  ok = SelftestFetch(server, "/v1/item/999999999", out_dir, "item_miss.json",
                     404) && ok;
  ok = SelftestFetch(server, "/no/such/endpoint", out_dir, "not_found.json",
                     404) && ok;
  // /metrics last so the counters above are visible in the snapshots
  // (both the JSON and the Prometheus rendering).
  ok = SelftestFetch(server, "/metrics", out_dir, "metrics.json", 200) && ok;
  ok = SelftestFetch(server, "/metrics?format=prometheus", out_dir,
                     "metrics.prom", 200) && ok;

  // Every response must carry an X-Request-Id, and a caller-supplied id
  // must be echoed back verbatim.
  auto echoed = serve::HttpFetch(server.host(), server.port(), "/healthz",
                                 {{"X-Request-Id", "selftest-echo-42"}});
  if (!echoed.ok() || echoed->Header("x-request-id") == nullptr ||
      *echoed->Header("x-request-id") != "selftest-echo-42") {
    std::fprintf(stderr, "selftest: X-Request-Id was not echoed back\n");
    ok = false;
  }
  auto generated = serve::HttpFetch(server.host(), server.port(), "/healthz");
  if (!generated.ok() || generated->Header("x-request-id") == nullptr ||
      generated->Header("x-request-id")->empty()) {
    std::fprintf(stderr, "selftest: no generated X-Request-Id header\n");
    ok = false;
  }

  if (service.cache() != nullptr && service.cache()->hits() == 0) {
    std::fprintf(stderr, "selftest: repeated query did not hit the cache\n");
    ok = false;
  }
  std::printf("selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("index", "", "serving index file (required)");
  flags.AddString("host", "127.0.0.1", "bind address");
  flags.AddInt64("port", 8080, "bind port (0 = ephemeral)");
  flags.AddInt64("threads", 4,
                 "epoll reactor threads (0 = hardware concurrency)");
  flags.AddBool("mmap", true,
                "serve the index zero-copy from a read-only mmap "
                "(--mmap=false copies it into anonymous memory)");
  flags.AddBool("verify-crc", true,
                "checksum the index image before serving it");
  flags.AddInt64("cache-entries", 4096,
                 "response cache budget in entries (0 = off)");
  flags.AddInt64("default-k", 5, "/v1/query result count without k=");
  flags.AddInt64("max-k", 100, "largest accepted k");
  flags.AddInt64("poll-sec", 0,
                 "reload automatically when --index changes on disk, "
                 "checking every N seconds (0 = manual /admin/reload only)");
  flags.AddString("access-log", "",
                  "append one JSONL record per request to this file "
                  "('-' = stderr; empty = off)");
  flags.AddString("slow-log", "",
                  "append requests slower than --slow-request-us to this "
                  "file (JSONL; empty = off)");
  flags.AddInt64("slow-request-us", 0,
                 "slow-request threshold in microseconds for --slow-log "
                 "and the serve.requests.slow counter (0 = off)");
  flags.AddString("selftest-out", "",
                  "run the endpoint selftest, write response bodies into "
                  "this directory, and exit (uses an ephemeral port)");
  obs::AddLogLevelFlag(flags);
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!obs::ApplyLogLevelFlag(flags)) return 1;
  obs::MetricsRegistry::Global().Enable();

  const std::string& index_path = flags.GetString("index");
  if (index_path.empty()) {
    std::fprintf(stderr, "--index is required\n");
    return 1;
  }
  const bool selftest = !flags.GetString("selftest-out").empty();

  serve::LoadOptions load_options;
  load_options.use_mmap = flags.GetBool("mmap");
  load_options.verify_crc = flags.GetBool("verify-crc");
  auto loaded = serve::ReadServingIndexFile(index_path, load_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", index_path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto index =
      std::make_shared<const serve::ServingIndex>(std::move(loaded).value());
  std::printf(
      "loaded index v%llu: %zu topics, %zu entities, %zu queries "
      "(%zu bytes, %s)\n",
      static_cast<unsigned long long>(index->version()), index->num_topics(),
      index->num_entities(), index->num_queries(), index->resident_bytes(),
      index->mmap_backed() ? "mmap" : "copied");

  serve::ServiceOptions service_options;
  service_options.index_path = index_path;
  service_options.load_options = load_options;
  service_options.cache_entries =
      static_cast<size_t>(flags.GetInt64("cache-entries"));
  service_options.default_k =
      static_cast<size_t>(flags.GetInt64("default-k"));
  service_options.max_k = static_cast<size_t>(flags.GetInt64("max-k"));

  // Request logs. The selftest writes an access log next to the response
  // bodies by default so the smoke test can validate the JSONL schema.
  std::string access_log_path = flags.GetString("access-log");
  if (selftest && access_log_path.empty()) {
    access_log_path = flags.GetString("selftest-out") + "/access.log";
    std::error_code ec;
    std::filesystem::create_directories(flags.GetString("selftest-out"), ec);
  }
  std::unique_ptr<serve::AccessLog> access_log;
  if (!access_log_path.empty()) {
    auto opened = serve::AccessLog::Open(access_log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    access_log = std::move(opened).value();
    service_options.access_log = access_log.get();
  }
  std::unique_ptr<serve::AccessLog> slow_log;
  if (!flags.GetString("slow-log").empty()) {
    auto opened = serve::AccessLog::Open(flags.GetString("slow-log"));
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    slow_log = std::move(opened).value();
    service_options.slow_log = slow_log.get();
  }
  service_options.slow_request_us =
      static_cast<double>(flags.GetInt64("slow-request-us"));
  serve::ServingService service(index, service_options);

  serve::HttpServerOptions server_options;
  server_options.host = flags.GetString("host");
  server_options.port =
      selftest ? 0 : static_cast<uint16_t>(flags.GetInt64("port"));
  server_options.threads = static_cast<size_t>(flags.GetInt64("threads"));
  serve::HttpServer server(&service, server_options);
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  if (selftest) {
    const int rc =
        RunSelftest(service, server, *index, flags.GetString("selftest-out"));
    server.Stop();
    return rc;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const int64_t poll_sec = flags.GetInt64("poll-sec");
  int64_t last_mtime = FileMtime(index_path);
  auto last_poll = std::chrono::steady_clock::now();
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (poll_sec <= 0) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_poll < std::chrono::seconds(poll_sec)) continue;
    last_poll = now;
    const int64_t mtime = FileMtime(index_path);
    if (mtime == last_mtime || mtime == 0) continue;
    last_mtime = mtime;
    SHOAL_LOG(kInfo) << index_path << " changed on disk; reloading";
    auto reloaded = service.Reload();
    if (!reloaded.ok()) {
      SHOAL_LOG(kWarning) << "poll reload failed, keeping current index: "
                          << reloaded.ToString();
    }
  }
  std::printf("shutting down\n");
  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
