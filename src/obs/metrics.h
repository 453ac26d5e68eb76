#ifndef SHOAL_OBS_METRICS_H_
#define SHOAL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace shoal::util {
struct ThreadPoolStats;
}  // namespace shoal::util

namespace shoal::obs {

// Monotonic event count. Thread-safe; one relaxed atomic add per
// increment.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written level plus the high-water mark since the last reset
// (e.g. thread-pool queue depth). Thread-safe.
class Gauge {
 public:
  void Set(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

// Bucket geometry shared by HistogramMetric and its snapshots:
// HDR-style geometric buckets, bound i at lo * base^i, covering [lo, hi)
// plus an underflow bucket (< lo, including zero and negatives) and an
// overflow bucket (>= hi). The default layout spans 1e-6 .. 6e7 at base
// 1.15 — wide enough that one layout serves microsecond latencies
// recorded in either seconds or microseconds, and message/merge counts
// up to tens of millions, with every in-range quantile accurate to one
// bucket's ~15% relative width.
struct BucketLayout {
  static BucketLayout Log(double lo, double hi, double base);
  // The process-wide default: Log(1e-6, 6e7, 1.15).
  static BucketLayout DefaultLog();

  // Index of the bucket `sample` falls into; 0 is underflow, back() is
  // overflow. `sample` must be finite.
  size_t BucketOf(double sample) const;

  // Inclusive upper bound of bucket i (the Prometheus `le` value);
  // +inf for the overflow bucket.
  double UpperBound(size_t i) const;
  // Lower bound of bucket i; -inf for the underflow bucket.
  double LowerBound(size_t i) const;

  size_t num_buckets() const { return bounds.size() + 1; }
  bool operator==(const BucketLayout& other) const;

  double lo = 0.0;
  double hi = 0.0;
  double base = 0.0;
  // Sorted inner bucket boundaries: bucket i covers
  // [bounds[i-1], bounds[i]), the underflow bucket is (-inf, bounds[0])
  // and the overflow bucket [bounds.back(), +inf).
  std::vector<double> bounds;
};

// A coherent point-in-time copy of one histogram: merged across all
// recording shards, safe to query, merge and serialize without touching
// the live metric. Mean/stddev come from (sum, sumsq), so they match
// the recorded samples exactly when the metric is quiescent and are a
// benign near-miss when snapshotted mid-record.
struct HistogramSnapshot {
  BucketLayout layout;
  std::vector<uint64_t> counts;  // one per layout bucket
  uint64_t count = 0;            // finite samples
  uint64_t non_finite = 0;       // NaN / +-Inf samples rejected by Record
  double sum = 0.0;
  double sumsq = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  double stddev() const;

  // Quantile estimate from the bucket counts: the value at rank
  // ceil(q * count), linearly interpolated inside its bucket. Exact to
  // within one bucket's width (~15% relative for the default log
  // layout). Underflow clamps to the layout's lo, overflow to the
  // largest observed sample. 0 when empty.
  double Quantile(double q) const;

  // Accumulates `other` (same layout required) into this snapshot, e.g.
  // to aggregate per-shard or per-process histograms.
  void Merge(const HistogramSnapshot& other);

  util::JsonValue ToJson() const;
};

// Sample distribution with quantile support. Recording is lock-free and
// thread-sharded: each thread is assigned one of a fixed set of shards,
// and Record does a handful of relaxed atomic updates on that shard's
// cache lines (bucket count, total, sum/sumsq, min/max) — no mutex, so
// the serving hot path can record per-request latencies at millions of
// QPS without contention. Snapshot() merges the shards.
class HistogramMetric {
 public:
  // Default: the log-bucketed layout (BucketLayout::DefaultLog()), so
  // every histogram is quantile-capable unless explicitly shaped.
  HistogramMetric();
  explicit HistogramMetric(BucketLayout layout);

  HistogramMetric(const HistogramMetric&) = delete;
  HistogramMetric& operator=(const HistogramMetric&) = delete;

  void Record(double sample);

  HistogramSnapshot Snapshot() const;
  // Convenience: Snapshot().Quantile(q).
  double Quantile(double q) const { return Snapshot().Quantile(q); }

  void Reset();

  const BucketLayout& layout() const { return layout_; }

  util::JsonValue ToJson() const { return Snapshot().ToJson(); }

 private:
  // Enough shards to keep a few serving worker threads off each other's
  // cache lines; threads are assigned round-robin.
  static constexpr size_t kNumShards = 8;

  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> non_finite{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> sumsq{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
  };

  BucketLayout layout_;
  std::vector<Shard> shards_;
};

// Process-wide registry of named metrics. Handles returned by the
// Get* functions are stable for the registry's lifetime, so call sites
// look a metric up once and keep the reference. Disabled by default;
// instrumentation sites check `enabled()` (one relaxed atomic load)
// before recording, keeping the compiled-in-but-off cost near zero.
//
// Naming convention (see DESIGN.md "Observability"): dotted lowercase
// paths, `<stage>.<object>.<measure>`, e.g. `hac.round.merges`,
// `hac.pool.peak_queue_depth`.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Returns the named metric, creating it on first use. A name is bound
  // to its first-seen kind; asking for the same name as a different
  // kind is a programmer error (SHOAL_CHECK).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // Default log-bucketed layout — quantile-capable out of the box.
  HistogramMetric& GetHistogram(const std::string& name);

  // Zeroes every registered metric. Handles stay valid.
  void Reset();

  // Snapshot as {"counters": {...}, "gauges": {...}, "histograms":
  // {...}} with names sorted (map order).
  util::JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const;

  // Prometheus text exposition format 0.0.4: every counter, gauge
  // (plus a `<name>_max` gauge for the high-water mark) and histogram
  // (`_bucket` series with cumulative `le` labels, `_sum`, `_count`).
  // Dotted names are sanitized to [a-zA-Z0-9_:] with HELP/TYPE lines
  // per family; empty bins are elided (the remaining cumulative series
  // plus the mandatory `+Inf` bucket are a valid exposition).
  std::string RenderPrometheus() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Bridges a worker pool's execution statistics into the global registry
// (util cannot depend on obs): `<prefix>.queue_depth`,
// `<prefix>.peak_queue_depth` and `<prefix>.tasks_executed` gauges, and
// the mean task latency into the `<prefix>.task_seconds` histogram.
void RecordThreadPoolStats(const std::string& prefix,
                           const util::ThreadPoolStats& stats);

// `name` rewritten to the Prometheus metric-name alphabet: characters
// outside [a-zA-Z0-9_:] become '_', and a leading digit gets a '_'
// prefix. Exposed for tests and the exposition renderer.
std::string SanitizeMetricName(const std::string& name);

}  // namespace shoal::obs

#endif  // SHOAL_OBS_METRICS_H_
