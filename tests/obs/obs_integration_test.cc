// End-to-end observability: a transported run with the tracer armed must
// produce (a) epoch-phase, wire-codec and SimNet-delivery spans, (b) a
// metrics snapshot whose engine/net counters reconcile with the run's
// CommStats and NetRunStats to the unit, and (c) a RunReport that carries
// the reconciliation verdict — all without perturbing the engine's
// deterministic outputs.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bench_support/obs_artifacts.h"
#include "core/simulation.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {
namespace {

WorkloadConfig TinyConfig() {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = 30;
  config.epochs = 40;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 6000.0;
  config.seed = 4242;
  config.training_users = 10;
  config.training_epochs = 60;
  return config;
}

const Workload& SharedWorkload() {
  static const Workload workload = BuildWorkload(TinyConfig());
  return workload;
}

std::set<std::string> SpanNames(const obs::Tracer& tracer) {
  std::set<std::string> names;
  for (const obs::TraceEvent& e : tracer.snapshot()) names.insert(e.name);
  return names;
}

TEST(ObsIntegrationTest, TransportedRunEmitsAllSpanFamilies) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  obs::Metrics().Reset();
  const net::TransportedRunResult result =
      net::RunTransportedMethod(Method::kStripeKf, SharedWorkload(), {});
  tracer.Disable();
  ASSERT_TRUE(result.run.alerts_exact);
  ASSERT_GT(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::set<std::string> names = SpanNames(tracer);
  // Epoch phases of the region engine (pair_check is FMD/CMD-only: static
  // stripe shapes need no per-epoch region-pair re-check).
  for (const char* phase :
       {"graph_updates", "match_region", "exit_scan", "resolve"}) {
    EXPECT_TRUE(names.count(phase)) << "missing engine span: " << phase;
  }
  // Cost-model / stripe construction spans (Stripe+KF builds regions).
  EXPECT_TRUE(names.count("predict"));
  EXPECT_TRUE(names.count("stripe_build"));
  // Wire codec and simulated-network delivery spans.
  for (const char* wire : {"wire_encode", "wire_decode", "simnet_delivery"}) {
    EXPECT_TRUE(names.count(wire)) << "missing net span: " << wire;
  }
  // The export is consumable Chrome trace JSON.
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exit_scan\""), std::string::npos);

  // A moving-region method covers the remaining phase.
  tracer.Clear();
  tracer.Enable();
  net::RunTransportedMethod(Method::kCmd, SharedWorkload(), {});
  tracer.Disable();
  EXPECT_TRUE(SpanNames(tracer).count("pair_check"));
  tracer.Clear();
}

TEST(ObsIntegrationTest, CountersReconcileWithCommStats) {
  obs::Metrics().Reset();
  const net::TransportedRunResult result =
      net::RunTransportedMethod(Method::kStripeKf, SharedWorkload(), {});
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();

  std::string error;
  EXPECT_TRUE(ReconcileWithCommStats(snap, result.run.stats, &error)) << error;

  // Spot-check the exact identities behind the reconciliation: the engine
  // counters are incremented at the same serial-commit sites that mutate
  // CommStats, and the net byte counters attribute by direction exactly
  // like TransportLink::Stats().
  const CommStats& s = result.run.stats;
  EXPECT_EQ(snap.counters.at("engine.reports").second, s.reports);
  EXPECT_EQ(snap.counters.at("engine.probes").second, s.probes);
  EXPECT_EQ(snap.counters.at("engine.alerts").second, s.alerts);
  EXPECT_EQ(snap.counters.at("engine.region_installs").second,
            s.region_installs);
  EXPECT_EQ(snap.counters.at("engine.match_installs").second,
            s.match_installs);
  EXPECT_EQ(snap.counters.at("net.bytes_up").second, s.bytes_up);
  EXPECT_EQ(snap.counters.at("net.bytes_down").second, s.bytes_down);
  EXPECT_GT(s.bytes_up, 0u);

  // A report built from this run records the verdict.
  obs::RunReport report = MakeRunReport("obs_integration", s);
  std::string mismatch;
  const bool ok = ReconcileWithCommStats(report.metrics(), s, &mismatch);
  EXPECT_TRUE(ok) << mismatch;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"engine.reports\": " + std::to_string(s.reports)),
            std::string::npos);
}

TEST(ObsIntegrationTest, PairCheckCandidatesReconcileWithBatchHistogram) {
  obs::Metrics().Reset();
  // CMD installs only circle-form regions, so every region-pair predicate
  // the edge scan evaluates is one lane of the batched pair-check kernel:
  // index_stats().candidates must equal the lanes the histogram recorded.
  std::unique_ptr<Detector> detector =
      MakeDetector(Method::kCmd, SharedWorkload());
  detector->Run(SharedWorkload().world);
  const auto* rd = dynamic_cast<const RegionDetector*>(detector.get());
  ASSERT_NE(rd, nullptr);
  const SpatialIndexStats& stats = rd->index_stats();
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.cells_probed, 0u);

  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  const obs::Histogram& lanes =
      snap.histograms.at("simd.batch.pair_check").value;
  EXPECT_EQ(static_cast<uint64_t>(lanes.sum()), stats.candidates);
}

TEST(ObsIntegrationTest, ReconciliationDetectsTampering) {
  obs::Metrics().Reset();
  const net::TransportedRunResult result =
      net::RunTransportedMethod(Method::kCmd, SharedWorkload(), {});
  CommStats tampered = result.run.stats;
  tampered.reports += 1;
  std::string error;
  EXPECT_FALSE(
      ReconcileWithCommStats(obs::Metrics().Snapshot(), tampered, &error));
  EXPECT_NE(error.find("engine.reports"), std::string::npos);
}

net::NetConfig NetConfigLossy() {
  net::NetConfig config;
  config.up.latency_s = 0.01;
  config.up.drop_rate = 0.10;
  config.up.dup_rate = 0.05;
  config.down.latency_s = 0.01;
  config.down.drop_rate = 0.10;
  config.down.dup_rate = 0.05;
  config.seed = 99;
  return config;
}

TEST(ObsIntegrationTest, NetCountersTrackDropsDupsAndRetransmits) {
  obs::Metrics().Reset();
  const net::TransportedRunResult result =
      net::RunTransportedMethod(Method::kCmd, SharedWorkload(),
                                NetConfigLossy());
  ASSERT_TRUE(result.run.alerts_exact);
  ASSERT_FALSE(result.net.failed);
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  EXPECT_EQ(snap.counters.at("net.retransmits").second,
            result.net.retransmits);
  EXPECT_EQ(snap.counters.at("net.drops").second, result.net.drops);
  EXPECT_EQ(snap.counters.at("net.dups").second, result.net.duplicates);
  EXPECT_EQ(snap.counters.at("net.dedup_discards").second,
            result.net.dedup_discards);
  EXPECT_GT(result.net.retransmits, 0u);
  // Per-kind wire accounting sums to the direction totals.
  uint64_t kind_bytes = 0;
  for (const auto& [name, entry] : snap.counters) {
    if (name.rfind("net.bytes.", 0) == 0) kind_bytes += entry.second;
  }
  EXPECT_EQ(kind_bytes, result.net.bytes_up + result.net.bytes_down);
}

}  // namespace
}  // namespace proxdet
