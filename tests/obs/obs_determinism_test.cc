// The observability determinism contract: every metric registered as
// Kind::kDeterministic is a pure function of (workload seed, transport
// seed) — the deterministic digest is byte-identical across repeated
// same-seed runs and across PROXDET_THREADS values, with instrumentation
// fully enabled.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace proxdet {
namespace {

WorkloadConfig TinyConfig(uint64_t seed) {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = 30;
  config.epochs = 40;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 6000.0;
  config.seed = seed;
  config.training_users = 10;
  config.training_epochs = 60;
  return config;
}

std::string DigestOfRun(Method method, const Workload& workload) {
  obs::Metrics().Reset();
  const RunResult result = RunMethod(method, workload);
  EXPECT_TRUE(result.alerts_exact);
  return obs::Metrics().Snapshot().DeterministicDigest();
}

// Every paper method plus Stripe+Linear. The five Stripe methods build
// their regions speculatively on a multi-thread pool (RegionDetector's
// speculative resolve) and record their stripe.* samples at commit; 3
// threads gives a window that is not a power of two.
TEST(ObsDeterminismTest, DigestIsIdenticalAcrossThreadCounts) {
  const Workload workload = BuildWorkload(TinyConfig(321));
  std::vector<Method> methods = PaperMethodSet();
  methods.push_back(Method::kStripeLinear);
  for (const Method method : methods) {
    ThreadPool::SetGlobalThreads(1);
    const std::string serial = DigestOfRun(method, workload);
    ASSERT_FALSE(serial.empty());
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
      ThreadPool::SetGlobalThreads(threads);
      const std::string parallel = DigestOfRun(method, workload);
      EXPECT_EQ(serial, parallel)
          << MethodName(method) << ": deterministic metrics diverged between "
          << "1 and " << threads << " threads";
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
}

// The speculative resolve on the transported plane: every link call stays
// in the serial commit, in queue order, so the wire schedule itself
// (schedule_hash), not just the engine's view of it, is thread-count
// invariant — sharded, batched and compressed.
TEST(ObsDeterminismTest, TransportedStripeIdenticalAcrossThreadCounts) {
  const Workload workload = BuildWorkload(TinyConfig(555));
  for (const int shards : {1, 2}) {
    net::NetConfig config;
    config.shards = shards;
    config.batch_downlink = true;
    config.compress_installs = true;
    auto run = [&](unsigned threads, std::string* digest) {
      ThreadPool::SetGlobalThreads(threads);
      obs::Metrics().Reset();
      const net::TransportedRunResult result =
          net::RunTransportedMethod(Method::kStripeKf, workload, config);
      *digest = obs::Metrics().Snapshot().DeterministicDigest();
      return result;
    };
    std::string serial_digest, parallel_digest;
    const net::TransportedRunResult serial = run(1, &serial_digest);
    const net::TransportedRunResult parallel = run(4, &parallel_digest);
    EXPECT_TRUE(serial.run.alerts_exact) << shards << " shards";
    EXPECT_TRUE(parallel.run.alerts_exact) << shards << " shards";
    EXPECT_FALSE(parallel.net.failed) << shards << " shards";
    EXPECT_EQ(serial.run.alert_count, parallel.run.alert_count);
    EXPECT_EQ(serial.run.rebuild_count, parallel.run.rebuild_count);
    EXPECT_TRUE(serial.run.stats == parallel.run.stats)
        << shards << " shards: " << serial.run.stats << " vs "
        << parallel.run.stats;
    EXPECT_EQ(serial.net.schedule_hash, parallel.net.schedule_hash)
        << shards << " shards";
    EXPECT_EQ(serial_digest, parallel_digest) << shards << " shards";
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
}

TEST(ObsDeterminismTest, DigestIsIdenticalAcrossRepeatedSameSeedRuns) {
  const Workload workload = BuildWorkload(TinyConfig(654));
  const std::string first = DigestOfRun(Method::kStripeKf, workload);
  const std::string second = DigestOfRun(Method::kStripeKf, workload);
  EXPECT_EQ(first, second);
  // The digest actually covers the engine counters (not vacuously equal).
  EXPECT_NE(first.find("counter engine.reports = "), std::string::npos);
  EXPECT_NE(first.find("quantile stripe.radius"), std::string::npos);
}

TEST(ObsDeterminismTest, TransportedDigestIsIdenticalPerTransportSeed) {
  const Workload workload = BuildWorkload(TinyConfig(987));
  net::NetConfig lossy;
  lossy.up.latency_s = 0.01;
  lossy.up.drop_rate = 0.10;
  lossy.down.latency_s = 0.01;
  lossy.down.drop_rate = 0.10;
  lossy.seed = 1337;

  auto transported_digest = [&] {
    obs::Metrics().Reset();
    const net::TransportedRunResult result =
        net::RunTransportedMethod(Method::kCmd, workload, lossy);
    EXPECT_TRUE(result.run.alerts_exact);
    EXPECT_FALSE(result.net.failed);
    return obs::Metrics().Snapshot().DeterministicDigest();
  };
  const std::string first = transported_digest();
  const std::string second = transported_digest();
  EXPECT_EQ(first, second);
  // The transported digest includes the wire counters, so the equality
  // above covers drops, retransmissions and per-kind byte accounting.
  EXPECT_NE(first.find("counter net.drops = "), std::string::npos);
  EXPECT_NE(first.find("counter net.retransmits = "), std::string::npos);
}

TEST(ObsDeterminismTest, DifferentSeedsProduceDifferentDigests) {
  const Workload a = BuildWorkload(TinyConfig(111));
  const Workload b = BuildWorkload(TinyConfig(222));
  EXPECT_NE(DigestOfRun(Method::kStripeKf, a),
            DigestOfRun(Method::kStripeKf, b));
}

}  // namespace
}  // namespace proxdet
