// The SHOAL benchmark binary: one workload per run, every metric printed
// by name with its unit, outputs checked along the way.
//
//   shoal_perfbench --workload=build|daemon|serve --seed=N --seconds=S
//                   --trace=0|1 --work-dir=DIR
//
// Workloads (inputs are generated from --seed; the program only sees the
// generated files):
//   build   catalog TSV -> ImportSearchLog -> MakeShoalInputFromLog ->
//           BuildShoal -> CompileServingIndex -> WriteServingIndexFile,
//           the `shoal_cli build --serving-index-out` path.
//   daemon  a drift log in the spool; each TaxonomyDaemon::RunOnce after
//           the 7-day window is full, day file -> index published +
//           snapshot committed.
//   serve   the build index loaded as shoal_serve loads it, an HttpServer
//           on loopback, and an open-loop generator at a fixed rate. Not
//           a workload of BENCHMARK.json: its CPU per request spread too
//           widely between runs to bound (perfbench/README.md). Its
//           layers are measured in every traced run.
//
// --trace=0 prints the end-to-end metrics of the workload's own path.
// --trace=1 runs all three paths with the benchmark's spans around every
// layer call (the workload's own path gets the full --seconds, the other
// two a quarter) and prints every per-layer metric. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/category_correlation.h"
#include "core/entity_graph.h"
#include "core/parallel_hac.h"
#include "core/query_search.h"
#include "core/shoal.h"
#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "daemon/daemon.h"
#include "data/dataset.h"
#include "data/drift_log.h"
#include "data/log_io.h"
#include "data/shoal_adapter.h"
#include "obs/trace.h"
#include "serve/http_message.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "serve/serving_index.h"
#include "text/word2vec.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/tsv.h"

namespace shoal::perfbench {
namespace {

namespace fs = std::filesystem;

// ---- workload sizes ---------------------------------------------------------
// Chosen so one build takes about 1.6 s and one daemon cycle about 0.2 s
// on a 4-vCPU Xeon VM: a run then holds enough builds, cycles and
// requests for a steady mean inside its time box, and set-up can be
// repeated several times.
constexpr size_t kBuildEntities = 3000;
constexpr size_t kDaemonEntities = 4000;
constexpr size_t kDaemonWindowDays = 7;
// The daemon runs in passes: each pass sets a daemon up afresh and lands
// the same measured days, so every pass repeats the same cycles and a
// run's cycles do not depend on its speed, only their number does.
constexpr size_t kDaemonPassDays = 40;
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMinSamples = 3;
// The per-operation time of a run is the mean of its operations after
// dropping this share at each end: host load on a shared VM drifts over
// seconds, which a mean over the whole run averages out and a median or
// quantile does not, and the trim drops single stalls.
constexpr double kTrimShare = 0.1;
// Pairs of (threads, one thread) calls behind each speed-up row.
constexpr size_t kSpeedupPairs = 3;
// Open loop: one fixed offered rate after a warm-up, over two keep-alive
// connections, against two reactors. 16k rps is about a quarter of the
// capacity measured on that VM, so queueing does not set the median.
constexpr double kServeRate = 16000.0;
constexpr double kServeWarmupSeconds = 1.0;
constexpr size_t kServeConnections = 2;
constexpr size_t kServeReactors = 2;
// A run whose generator ran later than this at its median is invalid:
// latency from the due time would then measure the generator.
constexpr double kMaxLateP50Us = 50.0;
constexpr size_t kBodySampleEvery = 256;
// Request mix. /v1/query is drawn by click count; of those, a share are
// case/space variants of a known query (normalized match) and a share
// are unseen queries (no match, never cacheable twice). The four shares
// are assumptions: the repository has no request log to derive them
// from. The --share-* flags override them; perfbench/README.md lists how
// the cache hit ratio and CPU per request move with each.
struct RequestMix {
  double topic = 0.10;
  double item = 0.10;
  double variant = 0.10;  // of /v1/query
  double unseen = 0.05;   // of /v1/query
};

size_t Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ---- measurement helpers ----------------------------------------------------
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpu() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

// Peak RSS since the last reset (VmHWM), reset through clear_refs.
void ResetPeakRss() {
  // Return freed heap first, or the reset peak is only retained memory.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// Mean of `values` without the lowest and highest `trim` share of them.
double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  const auto first = values.begin() + static_cast<std::ptrdiff_t>(cut);
  const auto last = values.end() - static_cast<std::ptrdiff_t>(cut);
  return std::accumulate(first, last, 0.0) / static_cast<double>(last - first);
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// The highest percentile with at least ten samples beyond it.
struct Tail {
  double percentile = 0.0;  // 0 when fewer than 20 samples
  double value = 0.0;
  size_t samples = 0;
};

Tail HighestTail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  for (double p : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999}) {
    if (n * (1.0 - p) >= 10.0) {
      tail.percentile = p * 100.0;
      tail.value = Quantile(values, p);
    }
  }
  return tail;
}

// Host CPU counters from /proc/stat: total and steal jiffies.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostCpu out;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) break;
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FileBytes(const std::string& path) {
  auto bytes = util::ReadTextFile(path);
  SHOAL_CHECK(bytes.ok()) << bytes.status().ToString();
  return std::move(bytes).value();
}

// CRC-32 chained over files, so a run can show which inputs it generated.
uint32_t FingerprintFiles(const std::vector<std::string>& paths) {
  uint32_t crc = 0;
  for (const std::string& path : paths) crc = util::Crc32(FileBytes(path), crc);
  return crc;
}

// ---- report -----------------------------------------------------------------
// Metrics in print order, plus the operation ledger behind `attempted`
// and `failed`: every build, cycle and request is one operation, and so
// is every output check that is not tied to one of them.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }

  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // One checked operation; a false `ok` is a failed one.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }

  std::string Json() const {
    util::JsonValue metrics = util::JsonValue::Object();
    for (const Metric& m : metrics_) {
      util::JsonValue row = util::JsonValue::Object();
      row.Set("value", util::JsonValue::Number(m.value));
      row.Set("unit", util::JsonValue::Str(m.unit));
      metrics.Set(m.name, std::move(row));
    }
    util::JsonValue out = util::JsonValue::Object();
    out.Set("correct", util::JsonValue::Bool(failed_ == 0 && attempted_ > 0));
    out.Set("attempted",
            util::JsonValue::Number(static_cast<double>(attempted_)));
    out.Set("failed", util::JsonValue::Number(static_cast<double>(failed_)));
    out.Set("metrics", std::move(metrics));
    return out.Dump();
  }

  void PrintTable() const {
    for (const auto& m : metrics_) {
      std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Fail(const std::string& what) {
    ++failed_;
    if (logged_ < 20) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
      ++logged_;
    }
  }

  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int logged_ = 0;
};

// Times one layer call: wall, process CPU, and peak RSS reset before and
// read after, inside a benchmark-owned span named after the layer.
struct LayerSample {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
};

template <typename Fn>
LayerSample TimeLayer(const std::string& name, Fn&& fn) {
  ResetPeakRss();
  LayerSample sample;
  const double cpu0 = ProcessCpu();
  const double t0 = Now();
  {
    obs::ScopedSpan span(name);
    fn();
  }
  sample.seconds = Now() - t0;
  sample.cpu_seconds = ProcessCpu() - cpu0;
  sample.peak_rss_mb = PeakRssMb();
  return sample;
}

// The share of the `root` spans' total time that the layer spans named
// in `names` do not cover.
double UnattributedShare(const std::string& root,
                         const std::vector<std::string>& names) {
  const auto events = obs::Tracer::Global().CollectEvents();
  double root_us = 0.0;
  double child_us = 0.0;
  for (const auto& e : events) {
    if (e.name == root) root_us += static_cast<double>(e.duration_us);
  }
  for (const auto& e : events) {
    if (std::find(names.begin(), names.end(), e.name) != names.end()) {
      child_us += static_cast<double>(e.duration_us);
    }
  }
  return root_us > 0.0 ? (root_us - child_us) / root_us : 0.0;
}

// ---- host reference ---------------------------------------------------------
// A shared VM's speed drifts with other tenants' load, and raw times
// follow it: on a 4-vCPU Xeon VM, ten 45 s runs of the daemon workload
// on one commit read 144-191 ms of CPU per cycle, a spread (quartile
// distance over median) of 0.21. So every timed operation is paired with
// units of a fixed reference computation, run right before it, and the
// gated times are scaled to the host speed at which one unit takes
// kRefUnitSeconds. The reference uses no SHOAL code, so a change to SHOAL
// moves the scaled times as it moves the raw ones. It runs in a helper
// process, so its memory stays out of the peak RSS.
constexpr double kRefUnitSeconds = 0.020;
constexpr uint32_t kRefUnitsPerCycle = 1;
constexpr uint32_t kRefUnitsPerBuild = 4;  // also per set-up and serve phase

struct RefSample {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

// The reference computation: random read-modify-writes over a 32 MB
// table, a sort and a floating-point loop, the mix of memory latency,
// branches and arithmetic that SHOAL's layers spend their time on.
class ReferenceWork {
 public:
  ReferenceWork() : table_(size_t{1} << 22), slice_(size_t{1} << 16) {
    for (uint64_t& v : table_) v = Next();
  }

  void RunUnit() {
    const uint64_t mask = table_.size() - 1;
    for (int i = 0; i < (1 << 18); ++i) {
      const uint64_t r = Next();
      table_[r & mask] += r;
    }
    const size_t from = Next() % (table_.size() - slice_.size());
    std::copy_n(table_.begin() + static_cast<std::ptrdiff_t>(from),
                slice_.size(), slice_.begin());
    std::sort(slice_.begin(), slice_.end());
    double f = 0.0;
    for (int i = 0; i < (1 << 20); ++i) {
      f += std::sqrt(static_cast<double>(i) + f * 1e-9);
    }
    sink_ = sink_ + f + static_cast<double>(slice_[slice_.size() / 2] & 0xff);
  }

 private:
  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<uint64_t> table_;
  std::vector<uint64_t> slice_;
  uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  volatile double sink_ = 0.0;
};

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t size) {
  auto* out = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, out, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

template <typename T>
bool SendValue(int fd, const T& value) {
  return SendAll(fd, std::string(reinterpret_cast<const char*>(&value), sizeof value));
}

// The helper process that runs the reference. Construct while this
// process has one thread; the destructor ends the helper and waits for it.
class HostReference {
 public:
  HostReference() {
    int fds[2];
    SHOAL_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0)
        << "socketpair failed";
    std::fflush(nullptr);
    pid_ = ::fork();
    SHOAL_CHECK(pid_ >= 0) << "fork failed";
    if (pid_ == 0) {
      ::close(fds[0]);
      Serve(fds[1]);
    }
    ::close(fds[1]);
    fd_ = fds[0];
  }

  ~HostReference() {
    ::close(fd_);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  // Runs `units` reference units in the helper; returns their time.
  RefSample Measure(uint32_t units) {
    RefSample sample;
    SHOAL_CHECK(SendValue(fd_, units) && ReadFull(fd_, &sample, sizeof sample))
        << "reference helper failed";
    return sample;
  }

  // Factors that scale a time measured next to `sample` to the reference
  // speed.
  static double CpuScale(const RefSample& sample, uint32_t units) {
    return kRefUnitSeconds * units / sample.cpu_s;
  }
  static double WallScale(const RefSample& sample, uint32_t units) {
    return kRefUnitSeconds * units / sample.wall_s;
  }

 private:
  [[noreturn]] static void Serve(int fd) {
    ReferenceWork work;
    uint32_t units = 0;
    while (ReadFull(fd, &units, sizeof units)) {
      const double cpu0 = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
      const double t0 = Now();
      for (uint32_t u = 0; u < units; ++u) work.RunUnit();
      const RefSample sample{ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0,
                             Now() - t0};
      if (!SendValue(fd, sample)) break;
    }
    ::_exit(0);
  }

  pid_t pid_ = -1;
  int fd_ = -1;
};

// ---- build path -------------------------------------------------------------
struct BuildCatalog {
  std::string log_dir;
  size_t entities = 0;
  uint32_t fingerprint = 0;
  // Query text -> clicks, for the serve request mix.
  std::unordered_map<std::string, uint64_t> query_clicks;
};

// bench/bench_common.h's ScaledDataset shape at kBuildEntities. Copied
// rather than included: the benchmark's inputs change only with the
// benchmark.
BuildCatalog MakeBuildCatalog(uint64_t seed, const std::string& dir) {
  data::DatasetOptions options;
  options.num_entities = kBuildEntities;
  options.num_queries = std::max<size_t>(200, kBuildEntities * 3 / 4);
  options.num_clicks = kBuildEntities * 50;
  options.num_root_intents = std::max<size_t>(4, kBuildEntities / 180);
  options.children_per_root = 3;
  options.num_departments = std::max<size_t>(4, kBuildEntities / 500);
  options.leaves_per_department = 8;
  options.seed = seed;
  auto dataset = data::GenerateDataset(options);
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto status = data::ExportSearchLog(*dataset, dir);
  SHOAL_CHECK(status.ok()) << status.ToString();

  BuildCatalog catalog;
  catalog.log_dir = dir;
  catalog.entities = dataset->entities.size();
  catalog.fingerprint = FingerprintFiles(
      {dir + "/items.tsv", dir + "/queries.tsv", dir + "/clicks.tsv"});
  std::vector<uint64_t> clicks(dataset->queries.size(), 0);
  for (const auto& click : dataset->clicks) ++clicks[click.query];
  for (const auto& query : dataset->queries) {
    catalog.query_clicks[query.text] += clicks[query.id];
  }
  return catalog;
}

core::ShoalOptions BuildOptions(size_t threads) {
  core::ShoalOptions options;
  options.num_threads = threads;
  return options;
}

core::DescriberInput DescribeInputOf(const core::ShoalInput& input,
                                     const core::Taxonomy* taxonomy) {
  core::DescriberInput describe;
  describe.taxonomy = taxonomy;
  describe.query_item_graph = input.query_item_graph;
  describe.query_words = input.query_words;
  describe.query_texts = input.query_texts;
  describe.entity_title_words = input.entity_title_words;
  return describe;
}

// One untraced build through the public entry points, as
// `shoal_cli build --serving-index-out` runs it.
util::Status RunBuild(const std::string& log_dir,
                      const std::string& index_path, size_t threads) {
  auto log = data::ImportSearchLog(log_dir);
  if (!log.ok()) return log.status();
  auto bundle = data::MakeShoalInputFromLog(*log);
  const core::ShoalInput input = bundle.View();
  auto model = core::BuildShoal(input, BuildOptions(threads));
  if (!model.ok()) return model.status();
  auto index = serve::CompileServingIndex(
      model->taxonomy(), DescribeInputOf(input, &model->taxonomy()),
      core::DescriberOptions(), input.entity_categories,
      serve::CompileOptions());
  if (!index.ok()) return index.status();
  return serve::WriteServingIndexFile(index_path, *index);
}

// RunBuild in a child process, for the serve workload: shoal_serve never
// builds, so neither should the serving process's memory hold what a
// build leaves behind. Returns the child's CPU seconds. Call only while
// this process has one thread.
util::Result<double> RunBuildInChild(const std::string& log_dir,
                                     const std::string& index_path) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return util::Status::Internal("fork failed");
  if (pid == 0) {
    const util::Status status = RunBuild(log_dir, index_path, Threads());
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::fflush(nullptr);
    ::_exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  rusage usage{};
  while (::wait4(pid, &wstatus, 0, &usage) < 0) {
    if (errno != EINTR) return util::Status::Internal("wait4 failed");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return util::Status::Internal("build child failed");
  }
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The build output check: the index loads with CRC on and has one entry
// per catalog entity.
bool IndexCoversCatalog(const std::string& index_path, size_t entities) {
  serve::LoadOptions load;
  load.verify_crc = true;
  auto index = serve::ReadServingIndexFile(index_path, load);
  return index.ok() && index->num_entities() == entities &&
         index->num_topics() > 0 && index->num_queries() > 0;
}

const std::vector<std::string> kBuildLayers = {
    "data.import",  "data.input",      "text.word2vec",      "core.entity_graph",
    "core.hac",     "core.taxonomy",   "core.describe",      "core.correlation",
    "core.search_index", "serve.compile", "serve.write"};

struct TracedBuild {
  std::map<std::string, LayerSample> layers;
  core::EntityGraphStats entity_graph;
  core::ParallelHacStats hac;
  double total_seconds = 0.0;
  double peak_rss_mb = 0.0;
  // One-thread time over `threads` time, median over kSpeedupPairs pairs.
  double entity_graph_speedup = 0.0;
  double hac_speedup = 0.0;
  bool one_thread_identical = true;
};

bool SameGraph(const graph::WeightedGraph& a, const graph::WeightedGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  const auto ea = a.AllEdges();
  const auto eb = b.AllEdges();
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].u != eb[i].u || ea[i].v != eb[i].v ||
        ea[i].weight != eb[i].weight) {
      return false;
    }
  }
  return true;
}

bool SameDendrogram(const core::Dendrogram& a, const core::Dendrogram& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (uint32_t i = 0; i < a.num_nodes(); ++i) {
    const auto& x = a.node(i);
    const auto& y = b.node(i);
    if (x.parent != y.parent || x.left != y.left || x.right != y.right ||
        x.size != y.size || x.merge_similarity != y.merge_similarity) {
      return false;
    }
  }
  return true;
}

// The build again, one layer call at a time in BuildShoal's order, each
// inside its own span. With `speedup_pairs`, the entity graph and HAC are
// then timed again for the speed-up rows: at `threads` and at one thread,
// bare and back to back, so both calls of a pair run under the same
// conditions; the rows are the median ratio over the pairs.
util::Result<TracedBuild> RunTracedBuild(const std::string& log_dir,
                                         const std::string& index_path,
                                         size_t threads,
                                         bool speedup_pairs) {
  TracedBuild out;
  // Resolve num_threads per stage as BuildShoal does.
  core::ShoalOptions options = BuildOptions(threads);
  options.entity_graph.num_threads = threads;
  options.hac.num_threads = threads;

  util::Status failure;
  const double t0 = Now();
  obs::ScopedSpan root("bench.build");
  util::Result<data::SearchLog> log = util::Status::Internal("unset");
  out.layers["data.import"] =
      TimeLayer("data.import", [&] { log = data::ImportSearchLog(log_dir); });
  if (!log.ok()) return log.status();
  data::ShoalInputBundle bundle;
  out.layers["data.input"] = TimeLayer(
      "data.input", [&] { bundle = data::MakeShoalInputFromLog(*log); });
  const core::ShoalInput input = bundle.View();
  const auto& qi = *input.query_item_graph;

  std::optional<text::Word2Vec> word2vec;
  out.layers["text.word2vec"] = TimeLayer("text.word2vec", [&] {
    std::vector<std::vector<uint32_t>> corpus;
    corpus.reserve(input.entity_title_words->size() + input.query_words->size());
    for (const auto& title : *input.entity_title_words) corpus.push_back(title);
    for (const auto& words : *input.query_words) corpus.push_back(words);
    auto trained = text::Word2Vec::Train(*input.vocab, corpus, options.word2vec);
    if (trained.ok()) {
      word2vec.emplace(std::move(trained).value());
    } else {
      failure = trained.status();
    }
  });
  if (!word2vec) return failure;

  util::Result<graph::WeightedGraph> entity_graph =
      util::Status::Internal("unset");
  out.layers["core.entity_graph"] = TimeLayer("core.entity_graph", [&] {
    entity_graph =
        core::BuildEntityGraph(qi, *input.entity_title_words,
                               word2vec->vectors(), options.entity_graph,
                               &out.entity_graph);
  });
  if (!entity_graph.ok()) return entity_graph.status();

  util::Result<core::Dendrogram> dendrogram = util::Status::Internal("unset");
  out.layers["core.hac"] = TimeLayer("core.hac", [&] {
    dendrogram = core::ParallelHac(*entity_graph, options.hac, &out.hac);
  });
  if (!dendrogram.ok()) return dendrogram.status();

  core::Taxonomy taxonomy;
  out.layers["core.taxonomy"] = TimeLayer("core.taxonomy", [&] {
    taxonomy = core::Taxonomy::Build(*dendrogram, *input.entity_categories,
                                     options.taxonomy);
  });
  const core::DescriberInput describe_input = DescribeInputOf(input, &taxonomy);
  out.layers["core.describe"] = TimeLayer("core.describe", [&] {
    auto rankings =
        core::TopicDescriber::Describe(taxonomy, describe_input,
                                       options.describer);
    if (!rankings.ok()) failure = rankings.status();
  });
  if (!failure.ok()) return failure;
  out.layers["core.correlation"] = TimeLayer("core.correlation", [&] {
    auto correlations =
        core::CategoryCorrelation::Mine(taxonomy, options.correlation);
    (void)correlations;
  });
  out.layers["core.search_index"] = TimeLayer("core.search_index", [&] {
    auto search = core::QueryTopicIndex::Build(
        taxonomy, *input.entity_title_words, input.vocab, options.search);
    if (!search.ok()) failure = search.status();
  });
  if (!failure.ok()) return failure;

  util::Result<serve::ServingIndexData> compiled =
      util::Status::Internal("unset");
  out.layers["serve.compile"] = TimeLayer("serve.compile", [&] {
    compiled = serve::CompileServingIndex(taxonomy, describe_input,
                                          core::DescriberOptions(),
                                          input.entity_categories,
                                          serve::CompileOptions());
  });
  if (!compiled.ok()) return compiled.status();
  out.layers["serve.write"] = TimeLayer("serve.write", [&] {
    failure = serve::WriteServingIndexFile(index_path, *compiled);
  });
  if (!failure.ok()) return failure;
  root.End();
  out.total_seconds = Now() - t0;
  for (const auto& [name, layer] : out.layers) {
    out.peak_rss_mb = std::max(out.peak_rss_mb, layer.peak_rss_mb);
  }

  if (speedup_pairs) {
    core::EntityGraphOptions eg1 = options.entity_graph;
    eg1.num_threads = 1;
    core::ParallelHacOptions hac1 = options.hac;
    hac1.num_threads = 1;
    // Seconds of one call, which must reproduce the traced call's result.
    auto time_graph = [&](const core::EntityGraphOptions& eg) {
      const double t = Now();
      auto graph = core::BuildEntityGraph(qi, *input.entity_title_words,
                                          word2vec->vectors(), eg);
      const double seconds = Now() - t;
      out.one_thread_identical = out.one_thread_identical && graph.ok() &&
                                 SameGraph(*graph, *entity_graph);
      return seconds;
    };
    auto time_hac = [&](const core::ParallelHacOptions& hac) {
      const double t = Now();
      auto result = core::ParallelHac(*entity_graph, hac);
      const double seconds = Now() - t;
      out.one_thread_identical = out.one_thread_identical && result.ok() &&
                                 SameDendrogram(*result, *dendrogram);
      return seconds;
    };
    std::vector<double> graph_ratios, hac_ratios;
    for (size_t pair = 0; pair < kSpeedupPairs; ++pair) {
      const double graph_n = time_graph(options.entity_graph);
      graph_ratios.push_back(Share(time_graph(eg1), graph_n));
      const double hac_n = time_hac(options.hac);
      hac_ratios.push_back(Share(time_hac(hac1), hac_n));
    }
    out.entity_graph_speedup = Median(graph_ratios);
    out.hac_speedup = Median(hac_ratios);
  }
  return out;
}

struct BuildRun {
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
  std::vector<double> ref_seconds;  // scaled to the reference speed
  std::vector<double> ref_cpu_seconds;
  std::vector<double> peak_rss_mb;  // per build, reset before each
};

// Repeated untraced builds for `seconds` (at least kMinSamples), each
// checked and each after kRefUnitsPerBuild reference units; returns
// per-build wall and CPU time, raw and scaled.
BuildRun MeasureBuilds(const BuildCatalog& catalog, const std::string& index_path,
                       double seconds, HostReference& host, Report& report) {
  BuildRun run;
  std::string first_bytes;
  const double start = Now();
  while (Now() - start < seconds || run.seconds.size() < kMinSamples) {
    const RefSample ref = host.Measure(kRefUnitsPerBuild);
    ResetPeakRss();
    const double cpu0 = ProcessCpu();
    const double t0 = Now();
    const util::Status status = RunBuild(catalog.log_dir, index_path, Threads());
    const double elapsed = Now() - t0;
    const double cpu = ProcessCpu() - cpu0;
    run.peak_rss_mb.push_back(PeakRssMb());
    bool ok = status.ok() && IndexCoversCatalog(index_path, catalog.entities);
    if (ok) {
      // Builds of one catalog are deterministic: every index is the same.
      if (first_bytes.empty()) {
        first_bytes = FileBytes(index_path);
      } else {
        ok = FileBytes(index_path) == first_bytes;
      }
    }
    report.Check(ok, "build: " + (status.ok() ? std::string("wrong index")
                                              : status.ToString()));
    run.seconds.push_back(elapsed);
    run.cpu_seconds.push_back(cpu);
    run.ref_seconds.push_back(elapsed *
                              HostReference::WallScale(ref, kRefUnitsPerBuild));
    run.ref_cpu_seconds.push_back(cpu *
                                  HostReference::CpuScale(ref, kRefUnitsPerBuild));
  }
  return run;
}

// ---- daemon path ------------------------------------------------------------
data::DriftOptions DaemonWorkload(uint64_t seed) {
  // bench_incremental's TierWorkload shape at kDaemonEntities, copied for
  // the same reason as the build catalog's.
  const size_t n = kDaemonEntities;
  data::DriftOptions options;
  options.catalog.num_entities = n;
  options.catalog.num_queries = std::max<size_t>(200, n * 3 / 4);
  options.catalog.num_root_intents = std::max<size_t>(4, n / 180);
  options.catalog.children_per_root = 3;
  options.catalog.num_departments = std::max<size_t>(4, n / 500);
  options.catalog.leaves_per_department = 8;
  options.catalog.seed = seed;
  options.num_days = kDaemonWindowDays + kDaemonPassDays;
  options.background_pairs = n * 3;
  options.drift_clicks_per_day = std::max<size_t>(500, n / 4);
  options.click_noise = 0.002;
  return options;
}

// The drift log written out once per run: catalog plus every day file in
// a staging directory. The log itself is dropped afterwards, so the
// daemon's memory is measured without the benchmark's input in it.
struct DriftInputs {
  std::string staging;
  size_t num_days = 0;
  uint32_t fingerprint = 0;
};

data::DriftLog MakeDriftLog(uint64_t seed) {
  auto log = data::GenerateDriftLog(DaemonWorkload(seed));
  SHOAL_CHECK(log.ok()) << log.status().ToString();
  return std::move(log).value();
}

DriftInputs MakeDriftInputs(uint64_t seed, const std::string& staging) {
  const data::DriftLog log = MakeDriftLog(seed);
  fs::remove_all(staging);
  fs::create_directories(staging);
  auto status = data::ExportDriftCatalog(log, staging);
  SHOAL_CHECK(status.ok()) << status.ToString();
  std::vector<std::string> window = {staging + "/items.tsv",
                                     staging + "/queries.tsv"};
  for (size_t d = 0; d < log.days.size(); ++d) {
    status = data::ExportDriftDay(log, d, staging);
    SHOAL_CHECK(status.ok()) << status.ToString();
    if (d < kDaemonWindowDays) {
      window.push_back(staging + "/" + data::DriftDayFileName(d));
    }
  }
  return DriftInputs{staging, log.days.size(), FingerprintFiles(window)};
}

struct DaemonState {
  const DriftInputs* inputs = nullptr;
  daemon::DaemonOptions options;
  std::unique_ptr<daemon::TaxonomyDaemon> daemon;
  size_t next_day = 0;
};

// Copies a day file from staging into the spool: the day "lands".
util::Status LandDay(const DriftInputs& inputs, size_t day,
                     const std::string& spool) {
  const std::string name = data::DriftDayFileName(day);
  std::error_code ec;
  fs::copy_file(inputs.staging + "/" + name, spool + "/" + name,
                fs::copy_options::overwrite_existing, ec);
  return ec ? util::Status::IoError("cannot land " + name + ": " + ec.message())
            : util::Status::OK();
}

// Writes the spool, starts a daemon and fills the window: the daemon
// workload's set-up.
util::Result<std::unique_ptr<DaemonState>> SetUpDaemon(
    const DriftInputs& inputs, const std::string& dir) {
  auto state = std::make_unique<DaemonState>();
  state->inputs = &inputs;
  fs::remove_all(dir);
  const std::string spool = dir + "/spool";
  fs::create_directories(spool);
  for (const char* name : {"items.tsv", "queries.tsv"}) {
    std::error_code ec;
    fs::copy_file(inputs.staging + "/" + name, spool + "/" + name, ec);
    if (ec) return util::Status::IoError(ec.message());
  }
  for (size_t d = 0; d < kDaemonWindowDays; ++d) {
    SHOAL_RETURN_IF_ERROR(LandDay(inputs, d, spool));
  }
  state->options.spool_dir = spool;
  state->options.index_path = dir + "/published.idx";
  state->options.snapshot_path = dir + "/daemon.snapshot";
  state->options.window_days = kDaemonWindowDays;
  state->options.num_threads = Threads();
  auto created = daemon::TaxonomyDaemon::Create(state->options);
  if (!created.ok()) return created.status();
  state->daemon = std::move(created).value();
  for (size_t d = 0; d < kDaemonWindowDays; ++d) {
    auto cycle = state->daemon->RunOnce();
    if (!cycle.ok()) return cycle.status();
    if (!cycle->has_value()) {
      return util::Status::Internal("daemon found no day file to fill");
    }
  }
  state->next_day = kDaemonWindowDays;
  return state;
}

struct CycleSample {
  daemon::CycleReport report;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

// The CycleReport phases, reported as `daemon.<phase>_s`.
constexpr std::pair<const char*, double daemon::CycleReport::*> kCyclePhases[] = {
    {"ingest", &daemon::CycleReport::ingest_seconds},
    {"graph", &daemon::CycleReport::graph_seconds},
    {"cluster", &daemon::CycleReport::cluster_seconds},
    {"describe", &daemon::CycleReport::describe_seconds},
    {"publish", &daemon::CycleReport::publish_seconds},
    {"snapshot", &daemon::CycleReport::snapshot_seconds}};

template <typename Fn>
double MedianOf(const std::vector<CycleSample>& samples, Fn field) {
  std::vector<double> values;
  for (const auto& s : samples) values.push_back(field(s));
  return Median(values);
}

// Lands the next day file in the spool (untimed), then runs and checks
// one cycle: a new version one above the last, an index that loads.
std::optional<CycleSample> RunCycle(DaemonState& state, Report& report) {
  if (state.next_day >= state.inputs->num_days) return std::nullopt;
  const util::Status landed =
      LandDay(*state.inputs, state.next_day, state.options.spool_dir);
  if (!landed.ok()) {
    report.Check(false, "daemon: " + landed.ToString());
    return std::nullopt;
  }
  ++state.next_day;
  const uint64_t before = state.daemon->published_version();
  CycleSample sample;
  const double cpu0 = ProcessCpu();
  const double t0 = Now();
  util::Result<std::optional<daemon::CycleReport>> cycle =
      util::Status::Internal("unset");
  {
    obs::ScopedSpan span("bench.daemon.cycle");
    cycle = state.daemon->RunOnce();
  }
  sample.seconds = Now() - t0;
  sample.cpu_seconds = ProcessCpu() - cpu0;
  bool ok = cycle.ok() && cycle->has_value();
  if (ok) {
    sample.report = **cycle;
    serve::LoadOptions load;
    load.verify_crc = true;
    auto index = serve::ReadServingIndexFile(state.options.index_path, load);
    ok = !sample.report.full_rebuild &&
         sample.report.published_version == before + 1 && index.ok() &&
         index->version() == before + 1;
  }
  report.Check(ok, "daemon cycle " + std::to_string(state.next_day - 1) +
                       (cycle.ok() ? "" : ": " + cycle.status().ToString()));
  return sample;
}

// ---- serve path -------------------------------------------------------------
enum class Kind : uint8_t { kQuery, kVariant, kUnseen, kTopic, kItem };

struct PlannedRequest {
  // For kUnseen, a prefix: the request index is appended, so an unseen
  // query never repeats.
  std::string target;
  Kind kind = Kind::kQuery;
  // Known queries: the index's first posting, which must come back as
  // the top-1 result. kNoTopic otherwise.
  uint32_t expect_topic = core::kNoTopic;
};

// The request sequence cycles through one plan of this many entries, so
// the generator's memory does not grow with the run length.
constexpr size_t kPlanSize = 1 << 16;

std::string UrlEncode(std::string_view text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

// The request mix, drawn from the seed: /v1/query by click count with
// variant and unseen shares, plus /v1/topic and /v1/item.
std::vector<PlannedRequest> PlanRequests(const serve::ServingIndex& index,
                                         const BuildCatalog& catalog,
                                         const RequestMix& mix, uint64_t seed) {
  util::Rng rng(seed ^ 0x5e7e5e7eull);
  std::vector<double> cumulative;
  cumulative.reserve(index.num_queries());
  double total = 0.0;
  for (uint32_t q = 0; q < index.num_queries(); ++q) {
    auto it = catalog.query_clicks.find(std::string(index.query_text(q)));
    total += 1.0 + (it == catalog.query_clicks.end()
                        ? 0.0
                        : static_cast<double>(it->second));
    cumulative.push_back(total);
  }
  std::vector<PlannedRequest> plan;
  plan.reserve(kPlanSize);
  for (size_t i = 0; i < kPlanSize; ++i) {
    PlannedRequest request;
    const double u = rng.UniformDouble();
    if (u < mix.topic) {
      request.kind = Kind::kTopic;
      request.target = "/v1/topic/" + std::to_string(rng.Uniform(
                                          static_cast<uint64_t>(index.num_topics())));
    } else if (u < mix.topic + mix.item) {
      request.kind = Kind::kItem;
      request.target = "/v1/item/" + std::to_string(rng.Uniform(
                                         static_cast<uint64_t>(index.num_entities())));
    } else {
      const double v = rng.UniformDouble();
      if (v < mix.unseen) {
        request.kind = Kind::kUnseen;
        request.target = "/v1/query?q=unseen%20query%20" + std::to_string(seed) +
                         "%20";
      } else {
        const double pick = rng.UniformDouble() * total;
        const uint32_t q = static_cast<uint32_t>(
            std::upper_bound(cumulative.begin(), cumulative.end(), pick) -
            cumulative.begin());
        const uint32_t query = std::min<uint32_t>(q, index.num_queries() - 1);
        std::string text(index.query_text(query));
        request.kind = Kind::kQuery;
        if (v < mix.unseen + mix.variant) {
          // Case and spacing variants normalize to the same query.
          request.kind = Kind::kVariant;
          if (rng.Uniform(2) == 0) {
            for (char& c : text) c = static_cast<char>(std::toupper(c));
          } else {
            text = "  " + text + " ";
          }
        }
        request.target = "/v1/query?q=" + UrlEncode(text);
        // Resolve the text the way the index does: a dictionary may hold
        // one text under several query ids.
        const serve::ServingIndex::Lookup lookup = index.Find(text);
        if (lookup.query != serve::kNoQuery) {
          const auto postings = index.postings(lookup.query);
          if (!postings.empty()) request.expect_topic = postings.topic(0);
        }
      }
    }
    plan.push_back(std::move(request));
  }
  return plan;
}

const PlannedRequest& PlanEntry(const std::vector<PlannedRequest>& plan,
                                uint64_t request) {
  return plan[request % plan.size()];
}

void AppendTarget(const std::vector<PlannedRequest>& plan, uint64_t request,
                  std::string& out) {
  const PlannedRequest& entry = PlanEntry(plan, request);
  out += entry.target;
  if (entry.kind == Kind::kUnseen) out += std::to_string(request);
}

// Share of the first `total` requests whose target was sent before: the
// traffic an unbounded response cache could answer.
double RepeatShare(const std::vector<PlannedRequest>& plan, size_t total) {
  std::unordered_set<std::string_view> seen;
  size_t repeats = 0;
  for (size_t i = 0; i < total; ++i) {
    const PlannedRequest& entry = PlanEntry(plan, i);
    if (entry.kind != Kind::kUnseen && !seen.insert(entry.target).second) {
      ++repeats;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(repeats) / static_cast<double>(total);
}

// Checks a sampled response body: valid JSON and, for a known query,
// the top-1 topic equal to the index's first posting.
bool BodyIsCorrect(uint32_t expect_topic, std::string_view body) {
  auto parsed = util::JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) return false;
  if (expect_topic == core::kNoTopic) return true;
  const util::JsonValue* results = parsed->Find("results");
  if (results == nullptr || !results->is_array() || results->items().empty()) {
    return false;
  }
  const util::JsonValue* topic = results->items()[0].Find("topic");
  return topic != nullptr && topic->is_number() &&
         static_cast<uint32_t>(topic->number()) == expect_topic;
}

struct InstalledService {
  std::shared_ptr<const serve::ServingIndex> index;
  std::unique_ptr<serve::ServingService> service;
};

// shoal_serve's install: mmap + CRC, then a service with default options.
util::Result<InstalledService> Install(const std::string& index_path) {
  serve::LoadOptions load;
  load.use_mmap = true;
  load.verify_crc = true;
  auto loaded = serve::ReadServingIndexFile(index_path, load);
  if (!loaded.ok()) return loaded.status();
  InstalledService out;
  out.index =
      std::make_shared<const serve::ServingIndex>(std::move(loaded).value());
  serve::ServiceOptions options;
  options.index_path = index_path;
  options.load_options = load;
  out.service = std::make_unique<serve::ServingService>(out.index, options);
  return out;
}

// In-flight request, matched to its response in FIFO order.
struct Pending {
  double due = 0.0;
  uint64_t request = 0;  // index in the run's request sequence
  bool measured = false;
};

struct Connection {
  int fd = -1;
  std::mutex mu;
  std::deque<Pending> fifo;  // guarded by mu
  std::string inbuf;         // receiver thread only
};

// What one open-loop run leaves: aggregates plus the samples the
// percentiles need. The receiver thread fills the response side, the
// sending thread the send side; the caller reads both after the join.
struct LoadResult {
  // Response side.
  std::vector<float> query_us;  // measured /v1/query latency from due time
  size_t completed = 0;
  size_t sampled_bodies = 0;
  size_t bad_bodies = 0;
  size_t non_2xx = 0;
  size_t measured_completed = 0;
  double measured_body_bytes = 0.0;
  // Send side.
  std::vector<float> late_us;  // measured sends
  size_t sent = 0;
  size_t measured_sent = 0;
  // Whole run.
  double measured_seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU minus the generator threads
  double peak_rss_mb = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  bool transport_ok = true;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Parses complete responses off `conn.inbuf` into `result`; returns false
// on a malformed stream.
bool DrainResponses(Connection& conn, double now,
                    const std::vector<PlannedRequest>& plan,
                    LoadResult& result) {
  size_t offset = 0;
  while (true) {
    const size_t header_end = conn.inbuf.find("\r\n\r\n", offset);
    if (header_end == std::string::npos) break;
    const std::string_view head(conn.inbuf.data() + offset, header_end - offset);
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return false;
    const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
    size_t content_length = 0;
    bool has_length = false;
    size_t line = head.find("\r\n");
    while (line != std::string_view::npos) {
      const size_t next = head.find("\r\n", line + 2);
      std::string_view field = head.substr(
          line + 2, (next == std::string_view::npos ? head.size() : next) -
                        line - 2);
      const size_t colon = field.find(':');
      if (colon != std::string_view::npos) {
        std::string name(field.substr(0, colon));
        for (char& c : name) c = static_cast<char>(std::tolower(c));
        if (name == "content-length") {
          content_length = std::strtoull(
              std::string(field.substr(colon + 1)).c_str(), nullptr, 10);
          has_length = true;
        }
      }
      line = next;
    }
    if (!has_length) return false;
    const size_t body_begin = header_end + 4;
    if (conn.inbuf.size() < body_begin + content_length) break;
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (conn.fifo.empty()) return false;
      pending = conn.fifo.front();
      conn.fifo.pop_front();
    }
    ++result.completed;
    if (status < 200 || status >= 300) ++result.non_2xx;
    if (pending.measured) {
      ++result.measured_completed;
      result.measured_body_bytes += static_cast<double>(content_length);
      const Kind kind = PlanEntry(plan, pending.request).kind;
      if (kind == Kind::kQuery || kind == Kind::kVariant ||
          kind == Kind::kUnseen) {
        result.query_us.push_back(static_cast<float>((now - pending.due) * 1e6));
      }
    }
    if (pending.request % kBodySampleEvery == 0) {
      ++result.sampled_bodies;
      const std::string_view body(conn.inbuf.data() + body_begin,
                                  content_length);
      if (!BodyIsCorrect(PlanEntry(plan, pending.request).expect_topic, body)) {
        ++result.bad_bodies;
      }
    }
    offset = body_begin + content_length;
  }
  conn.inbuf.erase(0, offset);
  return true;
}

// The open-loop generator. The calling thread sends every request at its
// due time (absolute sleeps, 1 ns timer slack), never waiting for a
// response; a second thread receives on both connections and matches
// responses FIFO. Latency is measured from the due time, so a stall also
// delays every request due behind it.
LoadResult DriveOpenLoop(uint16_t port, const serve::ServingService& service,
                         const std::vector<PlannedRequest>& plan, double rate,
                         double warmup_seconds, double seconds) {
  LoadResult result;
  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t i = 0; i < kServeConnections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->fd = ConnectLoopback(port);
    if (conn->fd < 0) {
      result.transport_ok = false;
      for (auto& c : conns) ::close(c->fd);
      return result;
    }
    conns.push_back(std::move(conn));
  }
  // Cleared by either thread on a broken stream; stops both.
  std::atomic<bool> transport_ok{true};
  const size_t total = static_cast<size_t>((warmup_seconds + seconds) * rate);
  const size_t warmup = static_cast<size_t>(warmup_seconds * rate);
  // Fault the generator's buffers in before the measured phase, so the
  // phase's peak RSS shows the server's growth, not the generator's.
  result.query_us.resize(total);
  result.query_us.clear();
  result.late_us.resize(total);
  result.late_us.clear();

  std::atomic<size_t> sent_total{0};
  std::atomic<bool> sending_done{false};
  std::atomic<double> receiver_cpu{0.0};
  std::atomic<double> measure_end{0.0};
  clockid_t receiver_clock{};
  std::atomic<bool> receiver_clock_ready{false};
  std::thread receiver([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    pthread_getcpuclockid(pthread_self(), &receiver_clock);
    receiver_clock_ready.store(true);
    const int ep = epoll_create1(0);
    for (size_t i = 0; i < conns.size(); ++i) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      epoll_ctl(ep, EPOLL_CTL_ADD, conns[i]->fd, &ev);
    }
    double deadline = 0.0;
    char buffer[1 << 16];
    while (transport_ok.load()) {
      if (sending_done.load()) {
        if (result.completed >= sent_total.load()) break;
        if (deadline == 0.0) deadline = Now() + 5.0;
        if (Now() > deadline) {
          transport_ok.store(false);
          break;
        }
      }
      epoll_event events[4];
      const int n = epoll_wait(ep, events, 4, 50);
      for (int e = 0; e < n; ++e) {
        Connection& conn = *conns[events[e].data.u64];
        const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          transport_ok.store(false);
          break;
        }
        const double now = Now();
        conn.inbuf.append(buffer, static_cast<size_t>(got));
        const size_t measured_before = result.measured_completed;
        if (!DrainResponses(conn, now, plan, result)) transport_ok.store(false);
        if (result.measured_completed != measured_before) measure_end.store(now);
      }
    }
    ::close(ep);
    receiver_cpu.store(ClockSeconds(receiver_clock));
  });
  while (!receiver_clock_ready.load()) std::this_thread::yield();

  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  clockid_t sender_clock{};
  pthread_getcpuclockid(pthread_self(), &sender_clock);
  const double start = Now() + 0.01;
  double measure_start = 0.0;
  double cpu_at_start = 0.0, sender_cpu_at_start = 0.0,
         receiver_cpu_at_start = 0.0;
  uint64_t hits0 = 0, misses0 = 0;
  std::string wire;
  for (size_t i = 0; i < total && transport_ok.load(); ++i) {
    const double due = start + static_cast<double>(i) / rate;
    if (i == warmup) {
      // Measured phase begins: reset the RSS peak, take CPU baselines.
      ResetPeakRss();
      measure_start = due;
      cpu_at_start = ProcessCpu();
      sender_cpu_at_start = ClockSeconds(sender_clock);
      receiver_cpu_at_start = ClockSeconds(receiver_clock);
      if (service.cache() != nullptr) {
        hits0 = service.cache()->hits();
        misses0 = service.cache()->misses();
      }
    }
    double now = Now();
    if (due > now) {
      // Absolute sleep on the steady clock (CLOCK_MONOTONIC).
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(due);
      ts.tv_nsec = static_cast<long>((due - static_cast<double>(ts.tv_sec)) * 1e9);
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
      now = Now();
    }
    Connection& conn = *conns[i % conns.size()];
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.fifo.push_back(Pending{due, i, i >= warmup});
    }
    wire = "GET ";
    AppendTarget(plan, i, wire);
    wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!SendAll(conn.fd, wire)) {
      transport_ok.store(false);
      break;
    }
    if (i >= warmup) {
      result.late_us.push_back(static_cast<float>((now - due) * 1e6));
      ++result.measured_sent;
    }
    sent_total.fetch_add(1);
  }
  result.sent = sent_total.load();
  const double sender_cpu_end = ClockSeconds(sender_clock);
  sending_done.store(true);
  receiver.join();
  result.transport_ok = transport_ok.load();
  const double cpu_end = ProcessCpu();
  result.peak_rss_mb = PeakRssMb();
  if (service.cache() != nullptr) {
    result.cache_hits = service.cache()->hits() - hits0;
    result.cache_misses = service.cache()->misses() - misses0;
  }
  for (auto& conn : conns) ::close(conn->fd);
  result.measured_seconds =
      std::max(1e-9, measure_end.load() - measure_start);
  result.cpu_seconds = (cpu_end - cpu_at_start) -
                       (sender_cpu_end - sender_cpu_at_start) -
                       (receiver_cpu.load() - receiver_cpu_at_start);
  return result;
}

std::vector<double> AsDoubles(const std::vector<float>& values) {
  return std::vector<double>(values.begin(), values.end());
}

// Counts every request as one operation (a non-2xx or unanswered one
// fails) and every sampled body as another (unparseable JSON or a wrong
// top-1 topic fails).
void CheckLoad(const LoadResult& load, Report& report) {
  const size_t missing =
      load.sent > load.completed ? load.sent - load.completed : 0;
  report.Count(load.sent, load.non_2xx + missing);
  report.Check(load.transport_ok, "serve: connection error");
  report.Count(load.sampled_bodies, load.bad_bodies);
}

double MeanBodyBytes(const LoadResult& load) {
  return Share(load.measured_body_bytes,
               static_cast<double>(load.measured_completed));
}

struct ServeServer {
  InstalledService installed;
  std::unique_ptr<serve::HttpServer> server;
};

util::Result<ServeServer> StartServer(const std::string& index_path) {
  ServeServer out;
  auto installed = Install(index_path);
  if (!installed.ok()) return installed.status();
  out.installed = std::move(installed).value();
  serve::HttpServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.threads = kServeReactors;
  out.server = std::make_unique<serve::HttpServer>(
      out.installed.service.get(), options);
  SHOAL_RETURN_IF_ERROR(out.server->Start());
  return out;
}

// In-process pass over the same mix: per-endpoint Handle latency. Each
// Handle call sits in a `bench.handle` span under one `bench.serve` span
// (both inactive unless the tracer is on).
struct HandleStats {
  std::vector<double> query_us, topic_us, item_us;
  double seconds = 0.0;
};

HandleStats HandlePass(serve::ServingService& service,
                       const std::vector<PlannedRequest>& plan, size_t count,
                       Report& report) {
  HandleStats stats;
  size_t failed = 0;
  const double start = Now();
  obs::ScopedSpan pass_span("bench.serve");
  std::string target;
  for (size_t i = 0; i < count; ++i) {
    const PlannedRequest& request = PlanEntry(plan, i);
    target.clear();
    AppendTarget(plan, i, target);
    serve::HttpRequest http = serve::ParseRequestTarget("GET", target);
    const double t0 = Now();
    serve::HttpResponse response;
    {
      obs::ScopedSpan span("bench.handle");
      response = service.Handle(http);
    }
    const double us = (Now() - t0) * 1e6;
    if (response.status < 200 || response.status >= 300) ++failed;
    if (i % kBodySampleEvery == 0 &&
        !BodyIsCorrect(request.expect_topic, response.body)) {
      ++failed;
    }
    switch (request.kind) {
      case Kind::kTopic: stats.topic_us.push_back(us); break;
      case Kind::kItem: stats.item_us.push_back(us); break;
      default: stats.query_us.push_back(us); break;
    }
  }
  pass_span.End();
  stats.seconds = Now() - start;
  report.Count(count, failed);
  return stats;
}

// ---- workloads --------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  RequestMix mix;
};

void PrintInputs(const std::string& what, uint32_t fingerprint) {
  std::printf("inputs %s crc32=%08x\n", what.c_str(), fingerprint);
}

// Set-up cost per repetition. setup_s is its CPU time (this process plus
// any child it waited for), scaled by reference units measured right
// before it: on a shared VM, host steal moves wall-clock set-up time by
// tens of percent between runs, CPU time far less. The raw CPU and wall
// times are printed alongside.
struct SetupCost {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> ref_cpu_s;

  // Times one set-up, `fn`, after kRefUnitsPerBuild reference units; `fn`
  // returns the CPU seconds of any child process it waited for.
  template <typename Fn>
  void Time(HostReference& host, Fn&& fn) {
    const RefSample ref = host.Measure(kRefUnitsPerBuild);
    const double cpu0 = ProcessCpu();
    const double t0 = Now();
    const double child_cpu = fn();
    const double cpu = ProcessCpu() - cpu0 + child_cpu;
    cpu_s.push_back(cpu);
    wall_s.push_back(Now() - t0);
    ref_cpu_s.push_back(cpu * HostReference::CpuScale(ref, kRefUnitsPerBuild));
  }

  void Report(perfbench::Report& report) const {
    std::printf("setup: median %.4f s CPU (%.4f s at the reference speed), "
                "%.4f s wall over %zu set-ups\n",
                Median(cpu_s), Median(ref_cpu_s), Median(wall_s), cpu_s.size());
    report.Set("setup_s", Median(ref_cpu_s), "s");
  }
};

void RunBuildWorkload(const Args& args, HostReference& host, Report& report) {
  SetupCost setup;
  BuildCatalog catalog;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    setup.Time(host, [&] {
      catalog = MakeBuildCatalog(args.seed, args.work_dir + "/catalog");
      return 0.0;
    });
  }
  PrintInputs("build", catalog.fingerprint);
  const BuildRun run = MeasureBuilds(catalog, args.work_dir + "/build.idx",
                                     args.seconds, host, report);
  std::printf("build: %zu builds, trimmed mean %.4f s wall, %.4f s CPU "
              "(%.4f s and %.4f s at the reference speed), median %.4f s "
              "wall\n",
              run.seconds.size(), TrimmedMean(run.seconds, kTrimShare),
              TrimmedMean(run.cpu_seconds, kTrimShare),
              TrimmedMean(run.ref_seconds, kTrimShare),
              TrimmedMean(run.ref_cpu_seconds, kTrimShare), Median(run.seconds));
  report.Set("ref_cpu_ms_per_op",
             TrimmedMean(run.ref_cpu_seconds, kTrimShare) * 1e3, "ms");
  report.Set("ref_wall_ms_per_op",
             TrimmedMean(run.ref_seconds, kTrimShare) * 1e3, "ms");
  report.Set("peak_rss_mb", Median(run.peak_rss_mb), "MB");
  setup.Report(report);
}

// Whole daemon passes until `seconds` have passed (at least `min_passes`).
// Each pass sets a daemon up afresh (timed into `setup`), resets the peak
// RSS, and runs one cycle per measured day through `cycle`, which returns
// false to end the run. Returns the last pass's daemon and appends each
// finished pass's peak RSS to `peak_rss_mb`.
template <typename Fn>
std::unique_ptr<DaemonState> RunDaemonPasses(const DriftInputs& inputs,
                                             const std::string& dir,
                                             double seconds, size_t min_passes,
                                             HostReference& host,
                                             SetupCost& setup,
                                             std::vector<double>& peak_rss_mb,
                                             Fn&& cycle) {
  std::unique_ptr<DaemonState> state;
  const double start = Now();
  for (size_t pass = 0; pass < min_passes || Now() - start < seconds; ++pass) {
    state.reset();
    setup.Time(host, [&] {
      auto set_up = SetUpDaemon(inputs, dir);
      SHOAL_CHECK(set_up.ok()) << set_up.status().ToString();
      state = std::move(set_up).value();
      return 0.0;
    });
    ResetPeakRss();
    while (state->next_day < inputs.num_days) {
      if (!cycle(*state)) return state;
    }
    peak_rss_mb.push_back(PeakRssMb());
  }
  return state;
}

void RunDaemonWorkload(const Args& args, HostReference& host, Report& report) {
  const DriftInputs inputs =
      MakeDriftInputs(args.seed, args.work_dir + "/drift");
  PrintInputs("daemon", inputs.fingerprint);
  SetupCost setup;
  std::vector<CycleSample> samples;
  std::vector<double> peaks, ref_cycle_s, ref_cycle_cpu_s;
  RunDaemonPasses(
      inputs, args.work_dir + "/daemon", args.seconds, kSetupRepeats, host,
      setup, peaks, [&](DaemonState& state) {
        const RefSample ref = host.Measure(kRefUnitsPerCycle);
        auto sample = RunCycle(state, report);
        if (!sample) return false;
        samples.push_back(*sample);
        ref_cycle_s.push_back(sample->seconds *
                              HostReference::WallScale(ref, kRefUnitsPerCycle));
        ref_cycle_cpu_s.push_back(
            sample->cpu_seconds * HostReference::CpuScale(ref, kRefUnitsPerCycle));
        return true;
      });
  SHOAL_CHECK(!samples.empty()) << "no daemon cycle ran";
  std::printf("daemon phases (median s):");
  for (const auto& [phase, field] : kCyclePhases) {
    std::printf(" %s=%.6f", phase, MedianOf(samples, [field](const CycleSample& c) {
                  return c.report.*field;
                }));
  }
  std::vector<double> cycle_s, cycle_cpu_s;
  for (const auto& c : samples) {
    cycle_s.push_back(c.seconds);
    cycle_cpu_s.push_back(c.cpu_seconds);
  }
  const Tail tail = HighestTail(cycle_s);
  std::printf("\ndaemon: %zu cycles in %zu passes, trimmed mean %.4f s wall, "
              "%.4f s CPU (%.4f s and %.4f s at the reference speed), median "
              "%.4f s wall, p%g %.4f s wall (%zu samples)\n",
              cycle_s.size(), setup.cpu_s.size(),
              TrimmedMean(cycle_s, kTrimShare),
              TrimmedMean(cycle_cpu_s, kTrimShare),
              TrimmedMean(ref_cycle_s, kTrimShare),
              TrimmedMean(ref_cycle_cpu_s, kTrimShare), Median(cycle_s),
              tail.percentile, tail.value, tail.samples);
  report.Set("ref_cpu_ms_per_op",
             TrimmedMean(ref_cycle_cpu_s, kTrimShare) * 1e3, "ms");
  report.Set("ref_wall_ms_per_op", TrimmedMean(ref_cycle_s, kTrimShare) * 1e3,
             "ms");
  report.Set("peak_rss_mb", peaks.empty() ? PeakRssMb() : Median(peaks), "MB");
  setup.Report(report);
}

void RunServeWorkload(const Args& args, HostReference& host, Report& report) {
  SetupCost setup;
  BuildCatalog catalog;
  std::optional<ServeServer> server;
  const std::string index_path = args.work_dir + "/serve.idx";
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (server) server->server->Stop();
    server.reset();
    setup.Time(host, [&] {
      catalog = MakeBuildCatalog(args.seed, args.work_dir + "/catalog");
      const util::Result<double> child_cpu =
          RunBuildInChild(catalog.log_dir, index_path);
      SHOAL_CHECK(child_cpu.ok()) << child_cpu.status().ToString();
      auto started = StartServer(index_path);
      SHOAL_CHECK(started.ok()) << started.status().ToString();
      server.emplace(std::move(started).value());
      return *child_cpu;
    });
  }
  const auto plan =
      PlanRequests(*server->installed.index, catalog, args.mix, args.seed);
  PrintInputs("serve",
              util::Crc32(plan[kPlanSize / 2].target, catalog.fingerprint));
  const size_t total =
      static_cast<size_t>((kServeWarmupSeconds + args.seconds) * kServeRate);
  std::printf("serve: mix topic %.3f item %.3f, of /v1/query variant %.3f "
              "unseen %.3f; repeat share %.4f (requests whose target was "
              "sent before; every /v1/* GET passes through the cache)\n",
              args.mix.topic, args.mix.item, args.mix.variant, args.mix.unseen,
              RepeatShare(plan, total));
  const RefSample before = host.Measure(kRefUnitsPerBuild);
  const LoadResult load = DriveOpenLoop(server->server->port(),
                                        *server->installed.service, plan,
                                        kServeRate, kServeWarmupSeconds,
                                        args.seconds);
  const RefSample after = host.Measure(kRefUnitsPerBuild);
  server->server->Stop();
  const RefSample ref{(before.cpu_s + after.cpu_s) / 2.0,
                      (before.wall_s + after.wall_s) / 2.0};
  CheckLoad(load, report);
  const std::vector<double> query_us = AsDoubles(load.query_us);
  const double late_p50 = Median(AsDoubles(load.late_us));
  report.Check(late_p50 <= kMaxLateP50Us,
               "serve: generator late p50 " + std::to_string(late_p50) + " us");
  const Tail tail = HighestTail(query_us);
  std::printf("serve: %zu sent, %zu completed, query p50 %.2f us, p%g %.2f us "
              "(%zu samples), late p50 %.2f us, offered %.0f rps, achieved "
              "%.0f rps, cache hit ratio %.4f\n",
              load.sent, load.completed, Median(query_us), tail.percentile,
              tail.value, tail.samples, late_p50, kServeRate,
              static_cast<double>(load.measured_sent) / load.measured_seconds,
              Share(static_cast<double>(load.cache_hits),
                    static_cast<double>(load.cache_hits + load.cache_misses)));
  report.Set("ref_cpu_ms_per_op",
             Share(load.cpu_seconds * 1e3,
                   static_cast<double>(load.measured_sent)) *
                 HostReference::CpuScale(ref, kRefUnitsPerBuild),
             "ms");
  report.Set("ref_wall_ms_per_op",
             Median(query_us) * 1e-3 *
                 HostReference::WallScale(ref, kRefUnitsPerBuild),
             "ms");
  report.Set("peak_rss_mb", load.peak_rss_mb, "MB");
  setup.Report(report);
}

// ---- traced run ---------------------------------------------------------------

struct TracedOverhead {
  double overhead_share = 0.0;
  double unattributed_share = 0.0;
};

// Build layers: traced builds alternate with untraced ones for the
// overhead; layer rows are medians over the traced builds.
TracedOverhead TraceBuildPath(const Args& args, double seconds,
                              const BuildCatalog& catalog,
                              const std::string& index_path, Report& report) {
  const std::string plain_path = args.work_dir + "/plain.idx";
  std::vector<TracedBuild> builds;
  std::vector<double> plain_s;
  auto& tracer = obs::Tracer::Global();
  const double start = Now();
  while (Now() - start < seconds || builds.size() < kMinSamples) {
    tracer.Disable();
    const double t0 = Now();
    const util::Status plain = RunBuild(catalog.log_dir, plain_path, Threads());
    plain_s.push_back(Now() - t0);
    report.Check(plain.ok() && IndexCoversCatalog(plain_path, catalog.entities),
                 "build (untraced reference)");
    tracer.Enable();
    auto traced =
        RunTracedBuild(catalog.log_dir, index_path, Threads(), builds.empty());
    tracer.Disable();
    if (!report.Check(traced.ok(), "traced build")) break;
    // The traced path must produce the untraced path's index, byte for byte.
    report.Check(FileBytes(index_path) == FileBytes(plain_path),
                 "traced build index differs from the untraced one");
    report.Check(IndexCoversCatalog(index_path, catalog.entities),
                 "traced build index");
    builds.push_back(std::move(traced).value());
  }
  SHOAL_CHECK(!builds.empty()) << "no traced build succeeded";
  const TracedBuild& first = builds.front();
  report.Check(first.one_thread_identical,
               "entity graph / HAC differ at one thread");
  auto layer_median = [&](const std::string& name,
                          double LayerSample::*field) {
    std::vector<double> values;
    for (const auto& b : builds) values.push_back(b.layers.at(name).*field);
    return Median(values);
  };
  std::vector<double> totals;
  for (const auto& b : builds) totals.push_back(b.total_seconds);
  for (const std::string& layer : kBuildLayers) {
    report.Set(layer + "_s", layer_median(layer, &LayerSample::seconds), "s");
    report.Set(layer + ".peak_rss_mb",
               layer_median(layer, &LayerSample::peak_rss_mb), "MB");
  }
  const size_t threads = Threads();
  auto cpu_util = [&](const std::string& layer) {
    return Share(layer_median(layer, &LayerSample::cpu_seconds),
                 layer_median(layer, &LayerSample::seconds) *
                     static_cast<double>(threads));
  };
  const auto& eg = first.entity_graph;
  report.Set("core.entity_graph.candidate_s", eg.candidate_seconds, "s");
  report.Set("core.entity_graph.scoring_s", eg.scoring_seconds, "s");
  report.Set("core.entity_graph.degree_cap_s", eg.degree_cap_seconds, "s");
  report.Set("core.entity_graph.candidate_pairs",
             static_cast<double>(eg.candidate_pairs), "count");
  report.Set("core.entity_graph.kept_edges", static_cast<double>(eg.kept_edges),
             "count");
  report.Set("core.entity_graph.cpu_util", cpu_util("core.entity_graph"), "ratio");
  report.Set("core.entity_graph.speedup_1to4t", first.entity_graph_speedup,
             "ratio");
  const auto& hac = first.hac;
  report.Set("core.hac.rounds", static_cast<double>(hac.rounds), "count");
  report.Set("core.hac.merges", static_cast<double>(hac.total_merges), "count");
  report.Set("core.hac.supersteps", static_cast<double>(hac.total_supersteps),
             "count");
  report.Set("core.hac.messages", static_cast<double>(hac.total_messages),
             "count");
  report.Set("core.hac.accept_ratio",
             Share(static_cast<double>(hac.total_merges),
                   static_cast<double>(hac.total_candidates)),
             "ratio");
  report.Set("core.hac.cpu_util", cpu_util("core.hac"), "ratio");
  report.Set("core.hac.speedup_1to4t", first.hac_speedup, "ratio");
  std::vector<double> peaks;
  for (const auto& b : builds) peaks.push_back(b.peak_rss_mb);
  report.Set("build.bytes_per_entity",
             Median(peaks) * 1024.0 * 1024.0 /
                 static_cast<double>(catalog.entities),
             "B");
  report.Set("serve.index_bytes",
             static_cast<double>(fs::file_size(index_path)), "B");
  report.Set("build.traced_builds", static_cast<double>(builds.size()), "count");
  report.Set("build.wall_p50_s", Median(plain_s), "s");
  TracedOverhead overhead;
  overhead.overhead_share = Median(totals) / Median(plain_s) - 1.0;
  overhead.unattributed_share = UnattributedShare("bench.build", kBuildLayers);
  return overhead;
}

TracedOverhead TraceDaemonPath(const Args& args, double seconds,
                               HostReference& host, Report& report) {
  const DriftInputs inputs =
      MakeDriftInputs(args.seed, args.work_dir + "/drift");
  auto& tracer = obs::Tracer::Global();
  std::vector<CycleSample> traced, plain;
  SetupCost setup;
  std::vector<double> peaks;
  // Traced and untraced passes alternate, so both replay the same cycles.
  const std::unique_ptr<DaemonState> last = RunDaemonPasses(
      inputs, args.work_dir + "/daemon", seconds, 2, host, setup, peaks,
      [&](DaemonState& state) {
        const size_t pass = (traced.size() + plain.size()) / kDaemonPassDays;
        const bool trace_this = pass % 2 == 0;
        if (trace_this) tracer.Enable();
        auto sample = RunCycle(state, report);
        tracer.Disable();
        if (sample) (trace_this ? traced : plain).push_back(*sample);
        return sample.has_value();
      });
  const DaemonState& state = *last;
  for (const auto& [phase, field] : kCyclePhases) {
    report.Set(std::string("daemon.") + phase + "_s",
               MedianOf(traced, [field](const CycleSample& c) {
                 return c.report.*field;
               }),
               "s");
  }
  report.Set("daemon.delta_entries", MedianOf(traced, [](const CycleSample& c) {
               return static_cast<double>(c.report.delta.delta_entries);
             }),
             "count");
  report.Set("daemon.dirty_fraction", MedianOf(traced, [](const CycleSample& c) {
               return c.report.dirty_fraction;
             }),
             "ratio");
  report.Set("daemon.touched_share", MedianOf(traced, [](const CycleSample& c) {
               return Share(static_cast<double>(c.report.touched_topics),
                            static_cast<double>(c.report.num_topics));
             }),
             "ratio");
  std::vector<double> all_cycles, traced_s, plain_s;
  for (const auto& s : traced) traced_s.push_back(s.seconds);
  for (const auto& s : plain) plain_s.push_back(s.seconds);
  all_cycles = traced_s;
  all_cycles.insert(all_cycles.end(), plain_s.begin(), plain_s.end());
  const Tail tail = HighestTail(all_cycles);
  report.Set("daemon.cycle_tail_s", tail.value, "s");
  report.Set("daemon.cycle_tail_pct", tail.percentile, "%");
  report.Set("daemon.cycles", static_cast<double>(all_cycles.size()), "count");
  report.Set("daemon.cycle_p50_s", Median(plain_s), "s");

  // The maintained graph equals a from-scratch build over the final window.
  const size_t end = state.next_day;
  const graph::BipartiteGraph window = data::BuildWindowGraph(
      MakeDriftLog(args.seed), end - kDaemonWindowDays, end);
  auto scratch = core::BuildEntityGraph(window, state.daemon->title_words(),
                                        state.daemon->word_vectors(),
                                        state.options.entity_graph);
  auto maintained = state.daemon->graph().Materialize();
  report.Check(scratch.ok() && maintained.ok() && SameGraph(*scratch, *maintained),
               "daemon graph differs from a from-scratch build of its window");

  TracedOverhead overhead;
  overhead.overhead_share =
      plain_s.empty() ? 0.0 : Median(traced_s) / Median(plain_s) - 1.0;
  double span_total = 0.0, phase_total = 0.0;
  for (const auto& c : traced) {
    span_total += c.seconds;
    for (const auto& [phase, field] : kCyclePhases) phase_total += c.report.*field;
  }
  overhead.unattributed_share = Share(span_total - phase_total, span_total);
  return overhead;
}

TracedOverhead TraceServePath(const Args& args, double seconds,
                              const BuildCatalog& catalog,
                              const std::string& index_path, Report& report) {
  auto& tracer = obs::Tracer::Global();
  // Install: load with mmap + CRC and construct the service.
  std::vector<double> install_us;
  for (size_t i = 0; i < 5; ++i) {
    const double t0 = Now();
    auto installed = Install(index_path);
    install_us.push_back((Now() - t0) * 1e6);
    report.Check(installed.ok(), "serve install");
  }
  report.Set("serve.install_us", Median(install_us), "us");

  auto started = StartServer(index_path);
  SHOAL_CHECK(started.ok()) << started.status().ToString();
  ServeServer server = std::move(started).value();
  const auto plan =
      PlanRequests(*server.installed.index, catalog, args.mix, args.seed);

  // In-process pass on a fresh service, same mix: untraced for the layer
  // rows, then traced for the overhead.
  const size_t handle_count = 50000;
  auto fresh = Install(index_path);
  SHOAL_CHECK(fresh.ok());
  const HandleStats plain = HandlePass(*fresh->service, plan, handle_count, report);
  auto fresh_traced = Install(index_path);
  SHOAL_CHECK(fresh_traced.ok());
  tracer.Enable();
  const HandleStats traced_pass =
      HandlePass(*fresh_traced->service, plan, handle_count, report);
  tracer.Disable();
  report.Set("serve.handle.query_p50_us", Median(plain.query_us), "us");
  report.Set("serve.handle.topic_p50_us", Median(plain.topic_us), "us");
  report.Set("serve.handle.item_p50_us", Median(plain.item_us), "us");

  const LoadResult load =
      DriveOpenLoop(server.server->port(), *server.installed.service, plan,
                    kServeRate, kServeWarmupSeconds, seconds);
  server.server->Stop();
  CheckLoad(load, report);
  const std::vector<double> query_us = AsDoubles(load.query_us);
  const std::vector<double> late_us = AsDoubles(load.late_us);
  const double socket_p50 = Median(query_us);
  report.Set("serve.transport_p50_us", socket_p50 - Median(plain.query_us), "us");
  report.Set("serve.cache_hit_ratio",
             Share(static_cast<double>(load.cache_hits),
                   static_cast<double>(load.cache_hits + load.cache_misses)),
             "ratio");
  report.Set("serve.body_bytes", MeanBodyBytes(load), "B");
  report.Set("serve.query_p50_us", socket_p50, "us");
  report.Set("serve.query_p99_us", Quantile(query_us, 0.99), "us");
  report.Set("serve.query_p999_us", Quantile(query_us, 0.999), "us");
  report.Set("serve.query_samples", static_cast<double>(query_us.size()),
             "count");
  report.Set("serve.achieved_rps",
             static_cast<double>(load.measured_sent) / load.measured_seconds,
             "1/s");
  report.Set("serve.cpu_us_per_request",
             Share(load.cpu_seconds * 1e6,
                   static_cast<double>(load.measured_sent)),
             "us");
  report.Set("loadgen.late_p50_us", Median(late_us), "us");
  report.Set("loadgen.late_p99_us", Quantile(late_us, 0.99), "us");
  report.Check(Median(late_us) <= kMaxLateP50Us, "serve: generator late");

  TracedOverhead overhead;
  overhead.overhead_share = traced_pass.seconds / plain.seconds - 1.0;
  overhead.unattributed_share =
      UnattributedShare("bench.serve", {"bench.handle"});
  return overhead;
}

void RunTraced(const Args& args, HostReference& host, Report& report) {
  auto& tracer = obs::Tracer::Global();
  const double own = args.seconds;
  const double other = std::max(1.0, args.seconds / 4.0);
  auto budget = [&](const char* path) { return args.workload == path ? own : other; };

  BuildCatalog catalog = MakeBuildCatalog(args.seed, args.work_dir + "/catalog");
  PrintInputs("catalog", catalog.fingerprint);
  const std::string index_path = args.work_dir + "/traced.idx";
  tracer.Clear();
  const TracedOverhead build =
      TraceBuildPath(args, budget("build"), catalog, index_path, report);
  tracer.Clear();
  const TracedOverhead serve =
      TraceServePath(args, budget("serve"), catalog, index_path, report);
  tracer.Clear();
  const TracedOverhead daemon =
      TraceDaemonPath(args, budget("daemon"), host, report);
  tracer.Clear();

  const TracedOverhead& mine = args.workload == "build"   ? build
                               : args.workload == "serve" ? serve
                                                          : daemon;
  report.Set("trace.overhead_share", mine.overhead_share, "ratio");
  report.Set("trace.unattributed_share", mine.unattributed_share, "ratio");
  const RefSample ref = host.Measure(kRefUnitsPerBuild);
  report.Set("host.ref_unit_ms", ref.cpu_s / kRefUnitsPerBuild * 1e3, "ms");
}

int Main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("workload", "", "build, daemon or serve");
  flags.AddInt64("seed", 1, "input seed");
  flags.AddDouble("seconds", 10.0, "measured seconds per run");
  flags.AddInt64("trace", 0, "1: traced run, per-layer metrics");
  flags.AddString("work-dir", "", "scratch directory for generated inputs");
  const RequestMix mix;
  flags.AddDouble("share-topic", mix.topic,
                  "serve: share of /v1/topic requests");
  flags.AddDouble("share-item", mix.item, "serve: share of /v1/item requests");
  flags.AddDouble("share-variant", mix.variant,
                  "serve: share of /v1/query that are case/space variants");
  flags.AddDouble("share-unseen", mix.unseen,
                  "serve: share of /v1/query that are unseen queries");
  const util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;
  Args args;
  args.workload = flags.GetString("workload");
  args.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  args.seconds = flags.GetDouble("seconds");
  args.trace = flags.GetInt64("trace") != 0;
  args.work_dir = flags.GetString("work-dir");
  args.mix.topic = flags.GetDouble("share-topic");
  args.mix.item = flags.GetDouble("share-item");
  args.mix.variant = flags.GetDouble("share-variant");
  args.mix.unseen = flags.GetDouble("share-unseen");
  auto is_share = [](double x) { return x >= 0.0 && x <= 1.0; };
  const RequestMix& m = args.mix;
  const bool mix_ok = is_share(m.topic) && is_share(m.item) &&
                      is_share(m.topic + m.item) && is_share(m.variant) &&
                      is_share(m.unseen) && is_share(m.variant + m.unseen);
  if ((args.workload != "build" && args.workload != "daemon" &&
       args.workload != "serve") ||
      args.work_dir.empty() || !(args.seconds > 0.0) || !mix_ok) {
    std::fprintf(stderr, "need --workload=build|daemon|serve, --seconds > 0, "
                         "--work-dir and shares in [0, 1]\n");
    return 2;
  }
  util::SetLogLevel(util::LogLevel::kWarning);
  fs::create_directories(args.work_dir);

  Report report;
  HostReference host;
  const HostCpu host0 = ReadHostCpu();
  if (args.trace) {
    RunTraced(args, host, report);
  } else if (args.workload == "build") {
    RunBuildWorkload(args, host, report);
  } else if (args.workload == "daemon") {
    RunDaemonWorkload(args, host, report);
  } else {
    RunServeWorkload(args, host, report);
  }
  const HostCpu host1 = ReadHostCpu();
  const double steal_share =
      Share(host1.steal - host0.steal, host1.total - host0.total);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("run_record nproc=%u threads_used=%zu cpu_model=\"%s\" "
              "steal_share=%.5f workload=%s seed=%llu seconds=%g trace=%d\n",
              nproc, Threads(), CpuModel().c_str(), steal_share,
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  if (args.trace) {
    report.Set("host.steal_share", steal_share, "ratio");
    report.Set("host.nproc", static_cast<double>(nproc), "count");
  }
  report.PrintTable();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace shoal::perfbench

int main(int argc, char** argv) { return shoal::perfbench::Main(argc, argv); }
