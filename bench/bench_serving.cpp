// bench_serving: load generator for the online serving tier.
//
// Default mode builds a synthetic taxonomy, compiles it into a
// ServingIndex, and drives ServingService::Handle directly (no kernel,
// no sockets) so the numbers isolate the service layer: dictionary
// lookup, JSON rendering, and the response cache. Reports QPS and
// p50/p90/p95/p99/p999 latency per endpoint, plus an identity block
// (endpoint set, error counts, index version) that bench/perf_diff.py
// gates on in CI.
//
// --socket switches to an open-loop harness against the real HTTP
// server: requests are scheduled at a fixed arrival rate and each
// latency is measured from the request's *intended* send time, so a
// stalled server inflates the tail instead of silently slowing the
// load generator down (the coordinated-omission trap of closed loops).
//
//   bench_serving [--entities N --threads T --requests R]
//                 [--json_out BENCH_serving.json]
//   bench_serving --socket --rate 2000 --duration 5 [--connections 4]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "serve/serving_index.h"
#include "util/rcu.h"

namespace {

using namespace shoal;

struct EndpointResult {
  std::string name;
  size_t requests = 0;
  size_t errors = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

// Percent-encodes a query value for use in a socket request target
// (in-process requests skip the wire format and do not need this).
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

double Percentile(std::vector<double>& sorted_latencies, double p) {
  if (sorted_latencies.empty()) return 0.0;
  const size_t n = sorted_latencies.size();
  size_t rank = static_cast<size_t>(p * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted_latencies[rank];
}

// Runs `requests` requests round-robin over `targets` across `threads`
// workers against one shared service (mirroring concurrent HTTP
// traffic), then aggregates QPS and latency percentiles.
EndpointResult DriveEndpoint(serve::ServingService& service,
                             const std::string& name,
                             const std::vector<serve::HttpRequest>& targets,
                             size_t requests, size_t threads) {
  EndpointResult result;
  result.name = name;
  result.requests = requests;

  // Warm pass: touches every distinct target once (fills the cache the
  // way steady-state production traffic would have).
  size_t warm_errors = 0;
  for (const auto& request : targets) {
    if (service.Handle(request).status >= 400) ++warm_errors;
  }
  result.errors += warm_errors;

  std::vector<std::vector<double>> latencies(threads);
  std::atomic<size_t> errors{0};
  util::Stopwatch wall;
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto& local = latencies[w];
      local.reserve(requests / threads + 1);
      // Deterministic per-worker slice of the request stream.
      for (size_t i = w; i < requests; i += threads) {
        const auto& request = targets[i % targets.size()];
        util::Stopwatch timer;
        const int status = service.Handle(request).status;
        local.push_back(timer.ElapsedSeconds() * 1e6);
        if (status >= 400) errors.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (auto& local : latencies) {
    all.insert(all.end(), local.begin(), local.end());
  }
  std::sort(all.begin(), all.end());
  result.errors += errors.load();
  result.qps = seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  result.p50_us = Percentile(all, 0.50);
  result.p90_us = Percentile(all, 0.90);
  result.p95_us = Percentile(all, 0.95);
  result.p99_us = Percentile(all, 0.99);
  result.p999_us = Percentile(all, 0.999);
  return result;
}

// Minimal keep-alive HTTP/1.1 GET client for the open-loop harness: one
// persistent connection per load-generator worker, reconnecting if the
// server drops it. Returns the HTTP status, or -1 on transport errors.
class KeepAliveClient {
 public:
  KeepAliveClient(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}
  ~KeepAliveClient() { Close(); }

  int Get(const std::string& target) {
    if (fd_ < 0 && !Connect()) return -1;
    const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " +
                                host_ + "\r\n\r\n";
    if (!SendAll(request)) {
      // The server may have closed an idle keep-alive connection; one
      // reconnect attempt keeps the stream going.
      Close();
      if (!Connect() || !SendAll(request)) return -1;
    }
    return ReadResponse();
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  // Parses one response off the stream, leaving any pipelined bytes in
  // the buffer for the next call.
  int ReadResponse() {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) {
        Close();
        return -1;
      }
    }
    const std::string_view head(buffer_.data(), header_end);
    int status = -1;
    const size_t sp = head.find(' ');
    if (head.compare(0, 5, "HTTP/") == 0 && sp != std::string_view::npos) {
      status = 0;
      for (size_t i = sp + 1;
           i < head.size() && head[i] >= '0' && head[i] <= '9'; ++i) {
        status = status * 10 + (head[i] - '0');
      }
    }
    size_t content_length = 0;
    size_t pos = 0;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      std::string_view line = head.substr(pos, eol - pos);
      pos = eol + 2;
      constexpr std::string_view kPrefix = "content-length:";
      if (line.size() > kPrefix.size()) {
        bool match = true;
        for (size_t i = 0; i < kPrefix.size(); ++i) {
          char c = line[i];
          if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
          if (c != kPrefix[i]) {
            match = false;
            break;
          }
        }
        if (match) {
          for (char c : line.substr(kPrefix.size())) {
            if (c >= '0' && c <= '9') {
              content_length = content_length * 10 +
                               static_cast<size_t>(c - '0');
            }
          }
        }
      }
    }
    const size_t total = header_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill()) {
        Close();
        return -1;
      }
    }
    buffer_.erase(0, total);
    if (status < 100 || status > 599) {
      Close();
      return -1;
    }
    return status;
  }

  std::string host_;
  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

struct OpenLoopResult {
  double rate_per_sec = 0.0;
  double duration_sec = 0.0;
  size_t connections = 0;
  size_t requests = 0;
  size_t errors = 0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
};

// Open-loop run: request i has intended send time start + i/rate on a
// shared schedule; workers claim slots with an atomic counter, sleep
// until the slot's time, fire over their keep-alive connection, and
// measure latency from the *intended* send time. A server stall
// therefore charges queueing delay to every request scheduled during
// the stall — the coordinated-omission-safe definition of latency.
OpenLoopResult DriveOpenLoop(const std::string& host, uint16_t port,
                             const std::vector<std::string>& targets,
                             double rate, double duration_sec,
                             size_t connections) {
  OpenLoopResult result;
  result.rate_per_sec = rate;
  result.duration_sec = duration_sec;
  result.connections = connections;
  const size_t total = static_cast<size_t>(rate * duration_sec);
  result.requests = total;

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  const double interval_ns = 1e9 / rate;
  std::atomic<size_t> next{0};
  std::atomic<size_t> errors{0};
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      KeepAliveClient client(host, port);
      auto& local = latencies[w];
      local.reserve(total / connections + 1);
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= total) break;
        const auto intended =
            start + std::chrono::nanoseconds(
                        static_cast<int64_t>(interval_ns *
                                             static_cast<double>(i)));
        std::this_thread::sleep_until(intended);
        const int status = client.Get(targets[i % targets.size()]);
        const auto done = Clock::now();
        if (status < 0 || status >= 400) errors.fetch_add(1);
        local.push_back(
            std::chrono::duration<double, std::micro>(done - intended)
                .count());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (auto& local : latencies) {
    all.insert(all.end(), local.begin(), local.end());
  }
  std::sort(all.begin(), all.end());
  result.errors = errors.load();
  result.achieved_rps =
      wall > 0 ? static_cast<double>(all.size()) / wall : 0.0;
  result.p50_us = Percentile(all, 0.50);
  result.p90_us = Percentile(all, 0.90);
  result.p99_us = Percentile(all, 0.99);
  result.p999_us = Percentile(all, 0.999);
  result.max_us = all.empty() ? 0.0 : all.back();
  return result;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt64("entities", 1500, "synthetic dataset size");
  flags.AddInt64("seed", 2019, "dataset seed");
  flags.AddInt64("threads", 1, "concurrent request workers");
  flags.AddInt64("requests", 50000, "timed requests per endpoint");
  flags.AddInt64("cache-entries", 4096, "response cache entries (0 = off)");
  flags.AddBool("socket", false,
                "also run the open-loop socket harness against a real "
                "HttpServer on an ephemeral port");
  flags.AddString("rate", "1000",
                  "comma-separated open-loop arrival rates in requests/sec "
                  "(--socket); the last entry is the headline open_loop row");
  flags.AddDouble("duration", 3.0,
                  "open-loop run length in seconds (--socket)");
  flags.AddInt64("connections", 4,
                 "open-loop keep-alive connections (--socket)");
  flags.AddString("json_out", "",
                  "append machine-readable results to this JSON file, "
                  "e.g. BENCH_serving.json");
  obs::AddObservabilityFlags(flags);
  auto status = flags.Parse(argc, argv);
  SHOAL_CHECK(status.ok()) << status.ToString();
  if (flags.help_requested()) return 0;
  if (!obs::EnableObservability(flags)) return 1;

  const size_t entities = static_cast<size_t>(flags.GetInt64("entities"));
  const size_t threads =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt64("threads")));
  const size_t requests = static_cast<size_t>(flags.GetInt64("requests"));

  bench::PrintHeader(
      "Serving throughput (in-process, cache warm)",
      "online tier sustains >= 10k QPS on /v1/query on one core");

  auto workload = bench::BuildWorkload(
      bench::ScaledDataset(entities, flags.GetInt64("seed")),
      core::ShoalOptions());
  const core::ShoalInput input = workload.bundle.View();
  core::DescriberInput describe_input;
  describe_input.taxonomy = &workload.model.taxonomy();
  describe_input.query_item_graph = input.query_item_graph;
  describe_input.query_words = input.query_words;
  describe_input.query_texts = input.query_texts;
  describe_input.entity_title_words = input.entity_title_words;
  util::Stopwatch compile_timer;
  auto compiled = serve::CompileServingIndex(
      workload.model.taxonomy(), describe_input, core::DescriberOptions(),
      input.entity_categories, serve::CompileOptions());
  SHOAL_CHECK(compiled.ok()) << compiled.status().ToString();
  const double compile_seconds = compile_timer.ElapsedSeconds();
  auto built = compiled->Build();
  SHOAL_CHECK(built.ok()) << built.status().ToString();
  auto index =
      std::make_shared<const serve::ServingIndex>(std::move(built).value());
  std::printf("index: %zu topics, %zu entities, %zu queries "
              "(build %.2fs, compile %.3fs)\n",
              index->num_topics(), index->num_entities(),
              index->num_queries(), workload.build_seconds, compile_seconds);

  serve::ServiceOptions service_options;
  service_options.cache_entries =
      static_cast<size_t>(flags.GetInt64("cache-entries"));
  serve::ServingService service(index, service_options);

  // Deterministic target mixes. Queries cycle through the dictionary's
  // raw texts — every one resolves, as production cache-warm traffic
  // would.
  std::vector<serve::HttpRequest> query_targets;
  for (size_t q = 0; q < index->num_queries(); ++q) {
    query_targets.push_back(serve::ParseRequestTarget(
        "GET",
        "/v1/query?q=" + std::string(index->query_text(q)) + "&k=5"));
  }
  if (query_targets.empty()) {
    query_targets.push_back(
        serve::ParseRequestTarget("GET", "/v1/query?q=empty"));
  }
  std::vector<serve::HttpRequest> topic_targets;
  for (size_t t = 0; t < index->num_topics(); ++t) {
    topic_targets.push_back(serve::ParseRequestTarget(
        "GET", "/v1/topic/" + std::to_string(t)));
  }
  std::vector<serve::HttpRequest> item_targets;
  for (size_t e = 0; e < index->num_entities(); ++e) {
    item_targets.push_back(serve::ParseRequestTarget(
        "GET", "/v1/item/" + std::to_string(e)));
  }
  std::vector<serve::HttpRequest> health_targets;
  health_targets.push_back(serve::ParseRequestTarget("GET", "/healthz"));

  std::vector<EndpointResult> results;
  results.push_back(DriveEndpoint(service, "/v1/query", query_targets,
                                  requests, threads));
  results.push_back(DriveEndpoint(service, "/v1/topic", topic_targets,
                                  requests, threads));
  results.push_back(
      DriveEndpoint(service, "/v1/item", item_targets, requests, threads));
  results.push_back(DriveEndpoint(service, "/healthz", health_targets,
                                  requests, threads));

  std::printf("%-10s %9s %7s %12s %9s %9s %9s %9s %9s\n", "endpoint",
              "requests", "errors", "qps", "p50_us", "p90_us", "p95_us",
              "p99_us", "p999_us");
  for (const auto& r : results) {
    std::printf("%-10s %9zu %7zu %12.0f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
                r.name.c_str(), r.requests, r.errors, r.qps, r.p50_us,
                r.p90_us, r.p95_us, r.p99_us, r.p999_us);
  }

  // Install-time bench: how long until a freshly published file is
  // servable. Copy validates and memcpys the image; mmap binds the mapping
  // and validates — with the CRC off this is O(1) in index size, the
  // swap cost a production publisher pays.
  struct InstallResult {
    const char* name;
    double micros;
  };
  std::vector<InstallResult> installs;
  size_t index_file_bytes = 0;
  {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        util::StringPrintf("shoal_bench_install_%d",
                           static_cast<int>(::getpid()));
    std::error_code ec;
    fs::create_directories(dir, ec);
    SHOAL_CHECK(!ec) << ec.message();
    const std::string v2_path = (dir / "v2.idx").string();
    SHOAL_CHECK(serve::WriteServingIndexFile(v2_path, *compiled).ok());
    index_file_bytes = static_cast<size_t>(fs::file_size(v2_path, ec));
    auto time_load = [](const std::string& path,
                        serve::LoadOptions options) {
      double best = 1e300;
      for (int rep = 0; rep < 5; ++rep) {
        util::Stopwatch timer;
        auto loaded = serve::ReadServingIndexFile(path, options);
        const double micros = timer.ElapsedSeconds() * 1e6;
        SHOAL_CHECK(loaded.ok()) << loaded.status().ToString();
        SHOAL_CHECK(loaded->version() > 0);
        best = std::min(best, micros);
      }
      return best;
    };
    serve::LoadOptions copy_options;
    copy_options.use_mmap = false;
    serve::LoadOptions mmap_nocrc;
    mmap_nocrc.verify_crc = false;
    installs.push_back({"install/v2_copy", time_load(v2_path, copy_options)});
    installs.push_back({"install/v2_mmap_crc", time_load(v2_path, {})});
    installs.push_back(
        {"install/v2_mmap_nocrc", time_load(v2_path, mmap_nocrc)});
    fs::remove_all(dir, ec);
  }
  std::printf("install (best of 5, %zu-byte v2 image):\n", index_file_bytes);
  for (const auto& r : installs) {
    std::printf("  %-24s %10.1f us\n", r.name, r.micros);
  }

  // Index-acquisition microbench: the mutex-guarded shared_ptr copy the
  // service used before vs the RCU cell it uses now, at this run's
  // thread count.
  auto drive_acquire = [&](auto&& snapshot) {
    constexpr size_t kOps = 1 << 20;
    std::atomic<uint64_t> sink{0};
    std::vector<std::thread> workers;
    util::Stopwatch timer;
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        uint64_t local = 0;
        for (size_t i = 0; i < kOps; ++i) local += snapshot()->version();
        sink.fetch_add(local);
      });
    }
    for (auto& worker : workers) worker.join();
    const double seconds = timer.ElapsedSeconds();
    SHOAL_CHECK(sink.load() == kOps * threads);
    return seconds * 1e9 / static_cast<double>(kOps * threads);
  };
  double acquire_mutex_ns = 0.0;
  double acquire_rcu_ns = 0.0;
  {
    std::mutex mu;
    std::shared_ptr<const serve::ServingIndex> guarded = index;
    acquire_mutex_ns = drive_acquire([&] {
      std::lock_guard<std::mutex> lock(mu);
      return guarded;
    });
  }
  {
    util::RcuCell<const serve::ServingIndex> cell(index);
    acquire_rcu_ns = drive_acquire([&] { return cell.Read(); });
  }
  std::printf("acquire: mutex %.1f ns/op, rcu %.1f ns/op (%zu threads)\n",
              acquire_mutex_ns, acquire_rcu_ns, threads);

  // Open-loop passes over real sockets (coordinated-omission-safe
  // tails), one per --rate ladder entry; the last entry is the headline
  // `open_loop` row perf_diff.py gates on.
  std::vector<OpenLoopResult> ladder;
  if (flags.GetBool("socket")) {
    serve::HttpServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.threads =
        std::max<size_t>(2, static_cast<size_t>(
                                flags.GetInt64("connections")));
    serve::HttpServer server(&service, server_options);
    auto started = server.Start();
    SHOAL_CHECK(started.ok()) << started.ToString();

    std::vector<std::string> socket_targets;
    for (size_t q = 0; q < index->num_queries(); ++q) {
      socket_targets.push_back(
          "/v1/query?q=" + UrlEncode(std::string(index->query_text(q))) +
          "&k=5");
    }
    if (socket_targets.empty()) socket_targets.push_back("/healthz");

    const double duration = std::max(0.1, flags.GetDouble("duration"));
    const size_t connections = std::max<size_t>(
        1, static_cast<size_t>(flags.GetInt64("connections")));
    for (const std::string& token :
         util::Split(flags.GetString("rate"), ',')) {
      const std::string trimmed(util::Trim(token));
      if (trimmed.empty()) continue;
      const double rate = std::max(1.0, std::atof(trimmed.c_str()));
      const OpenLoopResult open_loop = DriveOpenLoop(
          server.host(), server.port(), socket_targets, rate, duration,
          connections);
      std::printf(
          "open-loop: rate %.0f/s for %.1fs over %zu conns -> "
          "%zu requests, %zu errors, achieved %.0f rps\n"
          "open-loop: p50 %.1fus p90 %.1fus p99 %.1fus p999 %.1fus "
          "max %.1fus (from intended send time)\n",
          open_loop.rate_per_sec, open_loop.duration_sec,
          open_loop.connections, open_loop.requests, open_loop.errors,
          open_loop.achieved_rps, open_loop.p50_us, open_loop.p90_us,
          open_loop.p99_us, open_loop.p999_us, open_loop.max_us);
      ladder.push_back(open_loop);
    }
    server.Stop();
  }

  const std::string& json_path = flags.GetString("json_out");
  if (!json_path.empty()) {
    util::JsonValue json = util::JsonValue::Object();
    json.Set("bench", util::JsonValue::Str("bench_serving"));
    json.Set("seed", util::JsonValue::Number(
                         static_cast<double>(flags.GetInt64("seed"))));
    json.Set("entities",
             util::JsonValue::Number(static_cast<double>(entities)));
    json.Set("threads",
             util::JsonValue::Number(static_cast<double>(threads)));
    json.Set("index_version", util::JsonValue::Number(
                                  static_cast<double>(index->version())));
    json.Set("index_queries", util::JsonValue::Number(
                                  static_cast<double>(index->num_queries())));
    util::JsonValue endpoints = util::JsonValue::Array();
    for (const auto& r : results) {
      util::JsonValue row = util::JsonValue::Object();
      row.Set("name", util::JsonValue::Str(r.name));
      row.Set("requests",
              util::JsonValue::Number(static_cast<double>(r.requests)));
      row.Set("errors",
              util::JsonValue::Number(static_cast<double>(r.errors)));
      row.Set("qps", util::JsonValue::Number(r.qps));
      row.Set("p50_us", util::JsonValue::Number(r.p50_us));
      row.Set("p90_us", util::JsonValue::Number(r.p90_us));
      row.Set("p95_us", util::JsonValue::Number(r.p95_us));
      row.Set("p99_us", util::JsonValue::Number(r.p99_us));
      row.Set("p999_us", util::JsonValue::Number(r.p999_us));
      endpoints.Append(std::move(row));
    }
    json.Set("endpoints", std::move(endpoints));
    util::JsonValue install_rows = util::JsonValue::Array();
    for (const auto& r : installs) {
      util::JsonValue row = util::JsonValue::Object();
      row.Set("name", util::JsonValue::Str(r.name));
      row.Set("micros", util::JsonValue::Number(r.micros));
      install_rows.Append(std::move(row));
    }
    json.Set("install", std::move(install_rows));
    json.Set("index_file_bytes", util::JsonValue::Number(
                                     static_cast<double>(index_file_bytes)));
    util::JsonValue acquire = util::JsonValue::Object();
    acquire.Set("threads",
                util::JsonValue::Number(static_cast<double>(threads)));
    acquire.Set("mutex_ns_per_op", util::JsonValue::Number(acquire_mutex_ns));
    acquire.Set("rcu_ns_per_op", util::JsonValue::Number(acquire_rcu_ns));
    json.Set("acquire", std::move(acquire));
    auto open_loop_json = [](const OpenLoopResult& open_loop) {
      util::JsonValue ol = util::JsonValue::Object();
      ol.Set("rate_per_sec", util::JsonValue::Number(open_loop.rate_per_sec));
      ol.Set("duration_sec", util::JsonValue::Number(open_loop.duration_sec));
      ol.Set("connections", util::JsonValue::Number(
                                static_cast<double>(open_loop.connections)));
      ol.Set("requests", util::JsonValue::Number(
                             static_cast<double>(open_loop.requests)));
      ol.Set("errors", util::JsonValue::Number(
                           static_cast<double>(open_loop.errors)));
      ol.Set("achieved_rps", util::JsonValue::Number(open_loop.achieved_rps));
      ol.Set("p50_us", util::JsonValue::Number(open_loop.p50_us));
      ol.Set("p90_us", util::JsonValue::Number(open_loop.p90_us));
      ol.Set("p99_us", util::JsonValue::Number(open_loop.p99_us));
      ol.Set("p999_us", util::JsonValue::Number(open_loop.p999_us));
      ol.Set("max_us", util::JsonValue::Number(open_loop.max_us));
      return ol;
    };
    if (!ladder.empty()) {
      util::JsonValue rungs = util::JsonValue::Array();
      for (const auto& rung : ladder) rungs.Append(open_loop_json(rung));
      json.Set("open_loop_ladder", std::move(rungs));
      json.Set("open_loop", open_loop_json(ladder.back()));
    }
    auto written = util::WriteJsonFile(json_path, json);
    SHOAL_CHECK(written.ok()) << written.ToString();
    std::printf("wrote %s\n", json_path.c_str());
  }
  const util::Status written = obs::WriteObservability(flags);
  SHOAL_CHECK(written.ok()) << written.ToString();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
