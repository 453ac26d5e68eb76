#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"

namespace shoal::obs {
namespace {

// Deterministic SplitMix64 stream for reproducible sample sets.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1).
double NextUnit(uint64_t* state) {
  return static_cast<double>(NextRand(state) >> 11) * 0x1.0p-53;
}

// The exact quantile the histogram estimate is judged against:
// the sample at rank ceil(q * n) of the sorted set.
double ExactQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, TracksLastValueAndHighWaterMark) {
  Gauge g;
  g.Set(3.0);
  g.Set(9.0);
  g.Set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(HistogramMetricTest, RecordsMoments) {
  HistogramMetric h;
  h.Record(1.0);
  h.Record(3.0);
  auto snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 3.0);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(HistogramMetricTest, DefaultConstructionIsLogBucketed) {
  // The no-arg histogram — what GetHistogram(name) hands out — must be
  // quantile-capable, not the old single-stats fallback.
  HistogramMetric h;
  EXPECT_EQ(h.layout(), BucketLayout::DefaultLog());
  EXPECT_GT(h.layout().num_buckets(), 100u);
  for (int i = 0; i < 1000; ++i) h.Record(static_cast<double>(i + 1));
  // Quantiles resolve instead of collapsing to min/max.
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 300.0);
  EXPECT_LT(p50, 700.0);
  EXPECT_GT(p99, p50);
}

TEST(HistogramMetricTest, QuantilesTrackExactValuesAcrossSixDecades) {
  // Latency-shaped samples spanning 1us .. 10s (in microseconds): the
  // log-bucketed estimate must stay within one bucket's relative width
  // (base 1.15 -> 15%, plus interpolation slack) of the exact
  // sorted-sample quantile at every probed q.
  HistogramMetric h;
  std::vector<double> samples;
  uint64_t state = 0x5ca1ab1e;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [1, 1e7): decade u*7, mantissa via a second draw.
    const double sample = std::pow(10.0, NextUnit(&state) * 7.0);
    samples.push_back(sample);
    h.Record(sample);
  }
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
    const double exact = ExactQuantile(samples, q);
    const double estimate = h.Quantile(q);
    EXPECT_NEAR(estimate, exact, exact * 0.16)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramMetricTest, QuantileEdgesClampToObservedExtremes) {
  HistogramMetric h;
  h.Record(250.0);
  h.Record(500.0);
  h.Record(1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 250.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_LE(h.Quantile(0.5), 1000.0);
  EXPECT_GE(h.Quantile(0.5), 250.0);
}

TEST(HistogramMetricTest, UnderflowAndOverflowSamplesStayBounded) {
  HistogramMetric h;  // default layout covers [1e-6, 6e7)
  h.Record(0.0);      // underflow bucket
  h.Record(1e9);      // overflow bucket
  h.Record(-5.0);     // negative -> underflow
  auto snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_DOUBLE_EQ(snapshot.min, -5.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 1e9);
  // Overflow quantiles clamp to the observed max, not +inf.
  EXPECT_LE(h.Quantile(0.999), 1e9);
  EXPECT_TRUE(std::isfinite(h.Quantile(0.999)));
}

TEST(HistogramMetricTest, NonFiniteSamplesAreCountedNotRecorded) {
  HistogramMetric h;
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  h.Record(2.0);
  auto snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_EQ(snapshot.non_finite, 2u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 2.0);
}

TEST(HistogramMetricTest, ConcurrentShardedRecordingIsExact) {
  // Counts and sums are exact under concurrency (every Record lands in
  // exactly one shard; the snapshot merges all of them).
  HistogramMetric h;
  constexpr int kThreads = 8;
  constexpr int kSamples = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kSamples; ++i) {
        h.Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto snapshot = h.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<uint64_t>(kThreads) * kSamples);
  // Sum of t+1 for t in [0,8) is 36, times kSamples.
  EXPECT_DOUBLE_EQ(snapshot.sum, 36.0 * kSamples);
  EXPECT_DOUBLE_EQ(snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 8.0);
}

TEST(HistogramSnapshotTest, MergeAccumulatesAcrossHistograms) {
  HistogramMetric a;
  HistogramMetric b;
  for (int i = 0; i < 100; ++i) a.Record(10.0);
  for (int i = 0; i < 100; ++i) b.Record(1000.0);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 200u);
  EXPECT_DOUBLE_EQ(merged.min, 10.0);
  EXPECT_DOUBLE_EQ(merged.max, 1000.0);
  EXPECT_NEAR(merged.Quantile(0.25), 10.0, 10.0 * 0.16);
  EXPECT_NEAR(merged.Quantile(0.75), 1000.0, 1000.0 * 0.16);
}

TEST(HistogramSnapshotTest, JsonCarriesQuantilesAndSparseBuckets) {
  HistogramMetric h;
  for (int i = 0; i < 1000; ++i) h.Record(100.0);
  auto parsed = util::JsonValue::Parse(h.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("count")->number(), 1000.0);
  ASSERT_NE(parsed->Find("p50"), nullptr);
  ASSERT_NE(parsed->Find("p999"), nullptr);
  EXPECT_NEAR(parsed->Find("p50")->number(), 100.0, 16.0);
  // Sparse emission: one occupied bucket, not ~230 zeros.
  const util::JsonValue* bucket_counts = parsed->Find("bucket_counts");
  ASSERT_NE(bucket_counts, nullptr);
  EXPECT_EQ(bucket_counts->items().size(), 1u);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x.count");
  Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  Gauge& g1 = registry.GetGauge("x.depth");
  Gauge& g2 = registry.GetGauge("x.depth");
  EXPECT_EQ(&g1, &g2);
  HistogramMetric& h1 = registry.GetHistogram("x.latency");
  HistogramMetric& h2 = registry.GetHistogram("x.latency");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromEightThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread looks the metrics up itself, racing the map
      // creation path on top of the increments.
      Counter& counter = registry.GetCounter("race.count");
      Gauge& gauge = registry.GetGauge("race.depth");
      HistogramMetric& hist = registry.GetHistogram("race.latency");
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        gauge.Set(static_cast<double>(i));
        hist.Record(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("race.count").value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(registry.GetHistogram("race.latency").Snapshot().count,
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(registry.GetGauge("race.depth").max(), kIncrements - 1);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("a.count");
  counter.Increment(7);
  registry.GetGauge("a.depth").Set(4.0);
  registry.GetHistogram("a.latency").Record(2.0);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("a.depth").value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("a.latency").Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, ToJsonParsesBackWithAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("stage.events").Increment(5);
  registry.GetGauge("stage.depth").Set(2.0);
  registry.GetHistogram("stage.latency").Record(0.25);
  auto parsed = util::JsonValue::Parse(registry.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const util::JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("stage.events"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("stage.events")->number(), 5.0);
  const util::JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const util::JsonValue* depth = gauges->Find("stage.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->Find("value")->number(), 2.0);
  EXPECT_DOUBLE_EQ(depth->Find("max")->number(), 2.0);
  const util::JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const util::JsonValue* latency = histograms->Find("stage.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("count")->number(), 1.0);
  EXPECT_DOUBLE_EQ(latency->Find("mean")->number(), 0.25);
}

TEST(MetricsRegistryTest, EnableDisableFlag) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  registry.Enable();
  EXPECT_TRUE(registry.enabled());
  registry.Disable();
  EXPECT_FALSE(registry.enabled());
}

}  // namespace
}  // namespace shoal::obs
