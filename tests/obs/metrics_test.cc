// The metrics registry contract: stable handles (cached references survive
// Reset), first-registration-wins kinds, thread-safe accumulation, the
// deterministic/wall-clock segregation in snapshots and digests, and the
// Prometheus text exposition.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace proxdet {
namespace obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreStableAcrossReset) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("x.count");
  c.Inc(3);
  EXPECT_EQ(c.value(), 3u);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);  // Zeroed, but the handle stays live.
  c.Inc();
  EXPECT_EQ(registry.GetCounter("x.count").value(), 1u);
  // Re-registering the same name returns the same object.
  EXPECT_EQ(&registry.GetCounter("x.count"), &c);
}

TEST(MetricsRegistryTest, FirstRegistrationKindWins) {
  MetricsRegistry registry;
  registry.GetCounter("det", Kind::kDeterministic).Inc();
  registry.GetCounter("det", Kind::kWallClock);  // Ignored.
  registry.GetCounter("wall", Kind::kWallClock).Inc();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("det").first, Kind::kDeterministic);
  EXPECT_EQ(snap.counters.at("wall").first, Kind::kWallClock);
  // The digest covers deterministic entries only.
  const std::string digest = snap.DeterministicDigest();
  EXPECT_NE(digest.find("counter det = 1"), std::string::npos);
  EXPECT_EQ(digest.find("wall"), std::string::npos);
  // So do the deterministic counters.
  EXPECT_EQ(snap.DeterministicCounters().count("det"), 1u);
  EXPECT_EQ(snap.DeterministicCounters().count("wall"), 0u);
}

TEST(MetricsRegistryTest, HistogramBoundsFirstRegistrationWins) {
  MetricsRegistry registry;
  HistogramMetric& h =
      registry.GetHistogram("h", {1.0, 2.0}, Kind::kDeterministic);
  h.Record(1.5);
  // A second registration with different bounds must not clobber the data.
  registry.GetHistogram("h", {10.0});
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(snap.count(), 1u);
}

TEST(MetricsRegistryTest, GaugeAccumulation) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("g");
  g.Set(2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.MaxOf(1.0);  // Below current: no-op.
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.MaxOf(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("hot");
  QuantileMetric& q = registry.GetQuantile("samples");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &q] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
        q.Record(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(q.snapshot().count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotCoversAllMetricTypes) {
  MetricsRegistry registry;
  registry.GetCounter("c").Inc(5);
  registry.GetGauge("g").Set(1.25);
  registry.GetHistogram("h", {1.0}).Record(0.5);
  registry.GetQuantile("q").Record(2.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c").second, 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g").second, 1.25);
  EXPECT_EQ(snap.histograms.at("h").value.count(), 1u);
  EXPECT_EQ(snap.quantiles.at("q").value.count(), 1u);
}

TEST(MetricsRegistryTest, DigestIsValueSensitive) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("d", Kind::kDeterministic);
  c.Inc();
  const std::string one = registry.Snapshot().DeterministicDigest();
  c.Inc();
  const std::string two = registry.Snapshot().DeterministicDigest();
  EXPECT_NE(one, two);
  registry.Reset();
  c.Inc();
  EXPECT_EQ(registry.Snapshot().DeterministicDigest(), one);
}

TEST(MetricsRegistryTest, DigestIgnoresEmptyRegistrations) {
  // Reset() keeps registrations, so a metric another run registered must
  // not change the digest while it holds nothing.
  MetricsRegistry registry;
  registry.GetCounter("d", Kind::kDeterministic).Inc(2);
  const std::string before = registry.Snapshot().DeterministicDigest();
  registry.GetCounter("empty.counter", Kind::kDeterministic);
  registry.GetGauge("empty.gauge", Kind::kDeterministic);
  registry.GetHistogram("empty.histogram", {1.0, 2.0}, Kind::kDeterministic);
  registry.GetQuantile("empty.quantile", Kind::kDeterministic);
  EXPECT_EQ(registry.Snapshot().DeterministicDigest(), before);
}

TEST(MetricsRegistryTest, PrometheusDumpFormat) {
  MetricsRegistry registry;
  registry.GetCounter("engine.reports").Inc(7);
  registry.GetGauge("pool.busy").Set(0.5);
  HistogramMetric& h = registry.GetHistogram("stripe.m", {1.0, 2.0});
  h.Record(0.5);
  h.Record(1.5);
  h.Record(9.0);
  registry.GetQuantile("wait").Record(4.0);
  const std::string dump = registry.PrometheusDump();
  // Names are sanitized to [a-zA-Z0-9_] and prefixed.
  EXPECT_NE(dump.find("# TYPE proxdet_engine_reports counter"),
            std::string::npos);
  EXPECT_NE(dump.find("proxdet_engine_reports 7"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE proxdet_pool_busy gauge"), std::string::npos);
  // Histogram buckets are cumulative with an explicit +Inf bucket.
  EXPECT_NE(dump.find("proxdet_stripe_m_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(dump.find("proxdet_stripe_m_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(dump.find("proxdet_stripe_m_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(dump.find("proxdet_stripe_m_count 3"), std::string::npos);
  // Quantile sketches export as summaries.
  EXPECT_NE(dump.find("# TYPE proxdet_wait summary"), std::string::npos);
  EXPECT_NE(dump.find("proxdet_wait{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(dump.find("proxdet_wait_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsASingleRegistry) {
  EXPECT_EQ(&MetricsRegistry::Global(), &Metrics());
  // Use a test-scoped name so the global registry's state from other tests
  // (the engine instrumentation) is irrelevant.
  Counter& c = Metrics().GetCounter("metrics_test.global_probe");
  const uint64_t before = c.value();
  c.Inc();
  EXPECT_EQ(Metrics().GetCounter("metrics_test.global_probe").value(),
            before + 1);
}

}  // namespace
}  // namespace obs
}  // namespace proxdet
