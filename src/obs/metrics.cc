#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace shoal::obs {

namespace {

// Relaxed add for atomic<double> (fetch_add on floating atomics is
// C++20 but not universally lock-free; the CAS loop is portable and
// contention is bounded by the per-thread sharding).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (v < current &&
         !target.compare_exchange_weak(current, v,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (v > current &&
         !target.compare_exchange_weak(current, v,
                                       std::memory_order_relaxed)) {
  }
}

// The shard the calling thread records into. Assigned round-robin at
// first use; shared across every histogram so one thread always owns
// the same shard index.
size_t ThreadShard(size_t num_shards) {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned % num_shards;
}

// Formats a double for Prometheus sample / le values: shortest form
// that round-trips the bucket geometry (bounds differ by >= 15%, so 12
// significant digits are far more than enough to keep them distinct
// and monotone after printing).
std::string PromNumber(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return util::StringPrintf("%.12g", v);
}

}  // namespace

void Gauge::Set(double v) {
  value_.store(v, std::memory_order_relaxed);
  double current = max_.load(std::memory_order_relaxed);
  while (v > current &&
         !max_.compare_exchange_weak(current, v,
                                     std::memory_order_relaxed)) {
  }
}

void Gauge::Reset() {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

BucketLayout BucketLayout::Log(double lo, double hi, double base) {
  SHOAL_CHECK(lo > 0.0 && hi > lo && base > 1.0)
      << "log bucket layout needs 0 < lo < hi and base > 1";
  BucketLayout layout;
  layout.lo = lo;
  layout.hi = hi;
  layout.base = base;
  // Bounds at lo * base^i until hi is covered. Computed with pow(i)
  // rather than repeated multiplication so the geometry is bit-stable
  // regardless of how it is rebuilt.
  layout.bounds.push_back(lo);
  for (size_t i = 1;; ++i) {
    const double bound = lo * std::pow(base, static_cast<double>(i));
    if (layout.bounds.back() >= hi) break;
    layout.bounds.push_back(bound);
    SHOAL_CHECK(layout.bounds.size() < 100000)
        << "log bucket layout out of control (base too close to 1?)";
  }
  return layout;
}

BucketLayout BucketLayout::DefaultLog() {
  // One shared geometry (~230 buckets): 1µs..60s latencies in
  // microseconds land in [1, 6e7], the same latencies recorded in
  // seconds land in [1e-6, 60], and per-round counters fit below 6e7.
  static const BucketLayout layout = Log(1e-6, 6e7, 1.15);
  return layout;
}

size_t BucketLayout::BucketOf(double sample) const {
  // First bound greater than the sample: bucket i holds
  // [bounds[i-1], bounds[i]), index 0 is (-inf, bounds[0]).
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), sample) -
      bounds.begin());
}

double BucketLayout::UpperBound(size_t i) const {
  if (i >= bounds.size()) return std::numeric_limits<double>::infinity();
  return bounds[i];
}

double BucketLayout::LowerBound(size_t i) const {
  if (i == 0) return -std::numeric_limits<double>::infinity();
  return bounds[i - 1];
}

bool BucketLayout::operator==(const BucketLayout& other) const {
  return lo == other.lo && hi == other.hi && base == other.base &&
         bounds == other.bounds;
}

double HistogramSnapshot::stddev() const {
  if (count < 2) return 0.0;
  const double n = static_cast<double>(count);
  // Sample variance from the raw moments, clamped against the tiny
  // negative values cancellation can produce.
  const double var =
      std::max(0.0, (sumsq - sum * sum / n) / (n - 1.0));
  return std::sqrt(var);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  // The extremes are tracked exactly; don't pay bucket resolution there.
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  q = std::min(1.0, std::max(0.0, q));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    seen += counts[i];
    if (seen < rank) continue;
    double lower = layout.LowerBound(i);
    double upper = layout.UpperBound(i);
    // Open-ended edge buckets interpolate against the observed extremes
    // instead of +-inf.
    if (i == 0) lower = std::min(min, upper);
    if (!std::isfinite(upper)) upper = std::max(max, lower);
    // Also clamp to the observed range so a single-bucket distribution
    // reports a value that was actually seen.
    lower = std::max(lower, min);
    upper = std::min(upper, max);
    if (upper <= lower) return lower;
    const uint64_t into = rank - (seen - counts[i]);
    const double frac =
        static_cast<double>(into) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * frac;
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  SHOAL_CHECK(layout == other.layout)
      << "cannot merge histogram snapshots with different bucket layouts";
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  if (other.count > 0) {
    min = count > 0 ? std::min(min, other.min) : other.min;
    max = count > 0 ? std::max(max, other.max) : other.max;
  }
  count += other.count;
  non_finite += other.non_finite;
  sum += other.sum;
  sumsq += other.sumsq;
}

util::JsonValue HistogramSnapshot::ToJson() const {
  util::JsonValue out = util::JsonValue::Object();
  out.Set("count",
          util::JsonValue::Number(static_cast<double>(count)));
  out.Set("mean", util::JsonValue::Number(mean()));
  out.Set("stddev", util::JsonValue::Number(stddev()));
  out.Set("min", util::JsonValue::Number(count > 0 ? min : 0.0));
  out.Set("max", util::JsonValue::Number(count > 0 ? max : 0.0));
  out.Set("sum", util::JsonValue::Number(sum));
  if (non_finite > 0) {
    out.Set("non_finite",
            util::JsonValue::Number(static_cast<double>(non_finite)));
  }
  // Sparse bucket table: only occupied bins, as (lower bound, count)
  // columns — the default log layout has ~230 bins and latency
  // distributions occupy a handful.
  util::JsonValue edges = util::JsonValue::Array();
  util::JsonValue bins = util::JsonValue::Array();
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double lower = layout.LowerBound(i);
    edges.Append(util::JsonValue::Number(
        std::isfinite(lower) ? lower : layout.lo));
    bins.Append(util::JsonValue::Number(static_cast<double>(counts[i])));
  }
  out.Set("bucket_lo", std::move(edges));
  out.Set("bucket_counts", std::move(bins));
  out.Set("p50", util::JsonValue::Number(Quantile(0.5)));
  out.Set("p90", util::JsonValue::Number(Quantile(0.9)));
  out.Set("p99", util::JsonValue::Number(Quantile(0.99)));
  out.Set("p999", util::JsonValue::Number(Quantile(0.999)));
  return out;
}

HistogramMetric::HistogramMetric()
    : HistogramMetric(BucketLayout::DefaultLog()) {}

HistogramMetric::HistogramMetric(BucketLayout layout)
    : layout_(std::move(layout)), shards_(kNumShards) {
  for (Shard& shard : shards_) {
    shard.buckets =
        std::make_unique<std::atomic<uint64_t>[]>(layout_.num_buckets());
    for (size_t i = 0; i < layout_.num_buckets(); ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

void HistogramMetric::Record(double sample) {
  Shard& shard = shards_[ThreadShard(kNumShards)];
  if (!std::isfinite(sample)) {
    // A poisoned sample must not poison the moments; it is counted
    // separately instead.
    shard.non_finite.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.buckets[layout_.BucketOf(sample)].fetch_add(
      1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(shard.sum, sample);
  AtomicAdd(shard.sumsq, sample * sample);
  AtomicMin(shard.min, sample);
  AtomicMax(shard.max, sample);
}

HistogramSnapshot HistogramMetric::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.layout = layout_;
  snapshot.counts.assign(layout_.num_buckets(), 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < layout_.num_buckets(); ++i) {
      snapshot.counts[i] +=
          shard.buckets[i].load(std::memory_order_relaxed);
    }
    snapshot.count += shard.count.load(std::memory_order_relaxed);
    snapshot.non_finite +=
        shard.non_finite.load(std::memory_order_relaxed);
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
    snapshot.sumsq += shard.sumsq.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  snapshot.min = snapshot.count > 0 ? min : 0.0;
  snapshot.max = snapshot.count > 0 ? max : 0.0;
  return snapshot;
}

void HistogramMetric::Reset() {
  for (Shard& shard : shards_) {
    for (size_t i = 0; i < layout_.num_buckets(); ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.non_finite.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.sumsq.store(0.0, std::memory_order_relaxed);
    shard.min.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SHOAL_CHECK(!gauges_.contains(name) && !histograms_.contains(name))
      << "metric '" << name << "' already registered with another kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SHOAL_CHECK(!counters_.contains(name) && !histograms_.contains(name))
      << "metric '" << name << "' already registered with another kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SHOAL_CHECK(!counters_.contains(name) && !gauges_.contains(name))
      << "metric '" << name << "' already registered with another kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

util::JsonValue MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::JsonValue out = util::JsonValue::Object();
  util::JsonValue counters = util::JsonValue::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, util::JsonValue::Number(
                           static_cast<double>(counter->value())));
  }
  out.Set("counters", std::move(counters));
  util::JsonValue gauges = util::JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) {
    util::JsonValue g = util::JsonValue::Object();
    g.Set("value", util::JsonValue::Number(gauge->value()));
    g.Set("max", util::JsonValue::Number(gauge->max()));
    gauges.Set(name, std::move(g));
  }
  out.Set("gauges", std::move(gauges));
  util::JsonValue histograms = util::JsonValue::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms.Set(name, histogram->ToJson());
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

std::string MetricsRegistry::ToJsonString(int indent) const {
  return ToJson().Dump(indent);
}

void RecordThreadPoolStats(const std::string& prefix,
                           const util::ThreadPoolStats& stats) {
  auto& metrics = MetricsRegistry::Global();
  metrics.GetGauge(prefix + ".queue_depth")
      .Set(static_cast<double>(stats.queue_depth));
  metrics.GetGauge(prefix + ".peak_queue_depth")
      .Set(static_cast<double>(stats.peak_queue_depth));
  metrics.GetGauge(prefix + ".tasks_executed")
      .Set(static_cast<double>(stats.tasks_executed));
  metrics.GetHistogram(prefix + ".task_seconds")
      .Record(stats.tasks_executed > 0
                  ? stats.total_task_seconds /
                        static_cast<double>(stats.tasks_executed)
                  : 0.0);
}

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  auto family = [&out](const std::string& name, const std::string& raw,
                       const char* kind) {
    out += "# HELP " + name + " shoal metric " + raw + "\n";
    out += "# TYPE " + name + " " + kind + "\n";
  };
  for (const auto& [raw, counter] : counters_) {
    const std::string name = SanitizeMetricName(raw);
    family(name, raw, "counter");
    out += name + " " +
           util::StringPrintf("%llu",
                              static_cast<unsigned long long>(
                                  counter->value())) +
           "\n";
  }
  for (const auto& [raw, gauge] : gauges_) {
    const std::string name = SanitizeMetricName(raw);
    family(name, raw, "gauge");
    out += name + " " + PromNumber(gauge->value()) + "\n";
    family(name + "_max", raw + " high-water mark", "gauge");
    out += name + "_max " + PromNumber(gauge->max()) + "\n";
  }
  for (const auto& [raw, histogram] : histograms_) {
    const std::string name = SanitizeMetricName(raw);
    const HistogramSnapshot snapshot = histogram->Snapshot();
    family(name, raw, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snapshot.counts.size(); ++i) {
      if (snapshot.counts[i] == 0) continue;
      cumulative += snapshot.counts[i];
      const double upper = snapshot.layout.UpperBound(i);
      if (!std::isfinite(upper)) break;  // folded into +Inf below
      out += name + "_bucket{le=\"" + PromNumber(upper) + "\"} " +
             util::StringPrintf(
                 "%llu", static_cast<unsigned long long>(cumulative)) +
             "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           util::StringPrintf(
               "%llu",
               static_cast<unsigned long long>(snapshot.count)) +
           "\n";
    out += name + "_sum " + PromNumber(snapshot.sum) + "\n";
    out += name + "_count " +
           util::StringPrintf(
               "%llu",
               static_cast<unsigned long long>(snapshot.count)) +
           "\n";
  }
  return out;
}

}  // namespace shoal::obs
