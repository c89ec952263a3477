// The network layer's keystone contract: a transported run over a
// zero-latency, zero-loss link is bit-exact with the in-process engine —
// same alerts, same message counts, same rebuild counts — for every paper
// method; and under injected loss/duplication the client-observed alert
// stream still equals the ground truth exactly.

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "net/transport.h"

namespace proxdet {
namespace net {
namespace {

WorkloadConfig TinyConfig() {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = 40;
  config.epochs = 50;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 6000.0;
  config.seed = 1234;
  config.training_users = 12;
  config.training_epochs = 60;
  return config;
}

const Workload& SharedWorkload() {
  static const Workload workload = BuildWorkload(TinyConfig());
  return workload;
}

NetConfig Perfect() { return NetConfig{}; }

NetConfig Lossy(double drop_rate, uint64_t seed) {
  NetConfig config;
  config.up.latency_s = 0.01;
  config.up.jitter_s = 0.02;
  config.up.drop_rate = drop_rate;
  config.up.dup_rate = 0.05;
  config.down.latency_s = 0.015;
  config.down.jitter_s = 0.02;
  config.down.drop_rate = drop_rate;
  config.down.dup_rate = 0.05;
  config.seed = seed;
  return config;
}

class TransportedMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(TransportedMethodTest, PerfectLinkIsBitExactWithInProcess) {
  const Method method = GetParam();
  const Workload& workload = SharedWorkload();
  const RunResult direct = RunMethod(method, workload);
  const TransportedRunResult transported =
      RunTransportedMethod(method, workload, Perfect());

  // Alerts: the client-observed stream equals ground truth, which the
  // in-process run matches too — so both streams are identical.
  EXPECT_TRUE(direct.alerts_exact);
  EXPECT_TRUE(transported.run.alerts_exact);
  EXPECT_EQ(transported.run.alert_count, direct.alert_count);

  // Message counts and rebuild counts: bit-exact with the in-process run.
  EXPECT_TRUE(transported.run.stats.SameMessageCounts(direct.stats))
      << MethodName(method) << ": transported " << transported.run.stats
      << " diverged from direct " << direct.stats;
  EXPECT_EQ(transported.run.rebuild_count, direct.rebuild_count);

  // The transported run actually used the wire.
  EXPECT_GT(transported.run.stats.bytes_up, 0u);
  EXPECT_GT(transported.run.stats.bytes_down, 0u);
  EXPECT_EQ(direct.stats.bytes_up, 0u);  // In-process: no wire, no bytes.
  EXPECT_TRUE(transported.net.codec_exact);
  EXPECT_FALSE(transported.net.failed);
  EXPECT_EQ(transported.net.retransmits, 0u);
  EXPECT_EQ(transported.net.drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, TransportedMethodTest,
                         ::testing::ValuesIn(PaperMethodSet()),
                         [](const auto& info) {
                           std::string name = MethodName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(TransportTest, LossyLinkStillMatchesGroundTruthExactly) {
  const Workload& workload = SharedWorkload();
  // ISSUE contract: alerts == ground truth at 0%, 5% and 20% drop.
  for (const double drop : {0.0, 0.05, 0.20}) {
    const TransportedRunResult result =
        RunTransportedMethod(Method::kCmd, workload, Lossy(drop, 77));
    EXPECT_TRUE(result.run.alerts_exact) << "drop=" << drop;
    EXPECT_TRUE(result.net.codec_exact) << "drop=" << drop;
    EXPECT_FALSE(result.net.failed) << "drop=" << drop;
    if (drop > 0.0) {
      EXPECT_GT(result.net.retransmits, 0u) << "drop=" << drop;
      EXPECT_GT(result.net.drops, 0u) << "drop=" << drop;
    }
  }
  // Same for a stripe method, whose installs carry full polyline payloads.
  const TransportedRunResult stripe =
      RunTransportedMethod(Method::kStripeKf, workload, Lossy(0.20, 78));
  EXPECT_TRUE(stripe.run.alerts_exact);
  EXPECT_TRUE(stripe.net.codec_exact);
  EXPECT_FALSE(stripe.net.failed);
}

TEST(TransportTest, LossInjectionIsDeterministicPerSeed) {
  const Workload& workload = SharedWorkload();
  const TransportedRunResult first =
      RunTransportedMethod(Method::kFmd, workload, Lossy(0.20, 911));
  const TransportedRunResult second =
      RunTransportedMethod(Method::kFmd, workload, Lossy(0.20, 911));
  // Same seed: byte-identical delivery schedule, hence identical hashes,
  // byte totals and retry counts.
  EXPECT_EQ(first.net.schedule_hash, second.net.schedule_hash);
  EXPECT_EQ(first.net.bytes_up, second.net.bytes_up);
  EXPECT_EQ(first.net.bytes_down, second.net.bytes_down);
  EXPECT_EQ(first.net.retransmits, second.net.retransmits);
  EXPECT_EQ(first.net.drops, second.net.drops);
  EXPECT_EQ(first.net.virtual_seconds, second.net.virtual_seconds);

  // A different transport seed reshuffles the wire (different schedule)
  // but is invisible to the engine: same message counts, same alerts.
  const TransportedRunResult other =
      RunTransportedMethod(Method::kFmd, workload, Lossy(0.20, 912));
  EXPECT_NE(other.net.schedule_hash, first.net.schedule_hash);
  EXPECT_TRUE(other.run.stats.SameMessageCounts(first.run.stats))
      << "seed 912 " << other.run.stats << " vs seed 911 " << first.run.stats;
  EXPECT_TRUE(other.run.alerts_exact);
}

TEST(TransportTest, LatencyShapesVirtualTimeNotSemantics) {
  const Workload& workload = SharedWorkload();
  NetConfig slow;
  slow.up.latency_s = 0.5;
  slow.down.latency_s = 0.5;
  const TransportedRunResult fast =
      RunTransportedMethod(Method::kStatic, workload, Perfect());
  const TransportedRunResult lagged =
      RunTransportedMethod(Method::kStatic, workload, slow);
  EXPECT_GT(lagged.net.virtual_seconds, fast.net.virtual_seconds);
  EXPECT_TRUE(lagged.run.alerts_exact);
  EXPECT_TRUE(lagged.run.stats.SameMessageCounts(fast.run.stats))
      << "lagged " << lagged.run.stats << " vs fast " << fast.run.stats;
}

TEST(TransportTest, DeliveryFailureIsSurfacedNotSilent) {
  const Workload& workload = SharedWorkload();
  NetConfig dead;
  dead.up.drop_rate = 1.0;
  dead.down.drop_rate = 1.0;
  const TransportedRunResult result =
      RunTransportedMethod(Method::kNaive, workload, dead);
  EXPECT_TRUE(result.net.failed);
}

TEST(TransportTest, TransportedDetectorReportsMergedStats) {
  const Workload& workload = SharedWorkload();
  TransportedDetector detector(MakeDetector(Method::kCmd, workload),
                               Perfect());
  EXPECT_EQ(detector.name(), "Transported(CMD)");
  detector.Run(workload.world);
  EXPECT_EQ(detector.stats().bytes_up, detector.net_stats().bytes_up);
  EXPECT_EQ(detector.stats().bytes_down, detector.net_stats().bytes_down);
  EXPECT_GT(detector.stats().TotalBytes(), 0u);
  // CommStats::operator== covers counts and bytes: a transported run equals
  // itself, and differs from the byte-free in-process run.
  EXPECT_TRUE(detector.stats() == detector.stats());
  std::unique_ptr<Detector> direct = MakeDetector(Method::kCmd, workload);
  direct->Run(workload.world);
  EXPECT_TRUE(detector.stats() != direct->stats());
  EXPECT_TRUE(detector.stats().SameMessageCounts(direct->stats()))
      << "transported " << detector.stats() << " vs direct "
      << direct->stats();
}

}  // namespace
}  // namespace net
}  // namespace proxdet
