// The sharded serving plane's contract: for ANY partition count, with
// batching and install compression on or off, over perfect or lossy links,
// the transported run stays bit-exact with the single-server transported
// run and with the in-process engine — same client-observed alerts, same
// message counts, same rebuild counts — while cross-shard pairs flow
// through the consistent-hash owner rule and forwarded location digests.

#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/obs_artifacts.h"
#include "core/simulation.h"
#include "net/shard.h"
#include "net/transport.h"
#include "obs/metrics.h"

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

NetConfig Sharded(int shards, bool batch, bool compress) {
  NetConfig config;
  config.shards = shards;
  config.batch_downlink = batch;
  config.compress_installs = compress;
  return config;
}

NetConfig LossySharded(int shards, bool batch, double drop_rate,
                       uint64_t seed) {
  NetConfig config = Sharded(shards, batch, batch);
  config.up.latency_s = 0.01;
  config.up.jitter_s = 0.02;
  config.up.drop_rate = drop_rate;
  config.up.dup_rate = 0.05;
  config.down.latency_s = 0.015;
  config.down.jitter_s = 0.02;
  config.down.drop_rate = drop_rate;
  config.down.dup_rate = 0.05;
  // The mesh is impaired too: digest forwarding and relays must survive
  // loss, duplication and reordering like any other traffic.
  config.mesh.latency_s = 0.002;
  config.mesh.jitter_s = 0.005;
  config.mesh.drop_rate = drop_rate;
  config.mesh.dup_rate = 0.05;
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, DeterministicAndCoversAllShards) {
  const HashRing a(8, 16);
  const HashRing b(8, 16);
  std::vector<int> population(8, 0);
  for (UserId u = 0; u < 1000; ++u) {
    const int shard = a.ShardOf(u);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, b.ShardOf(u));  // Pure function of (shards, vnodes).
    population[shard] += 1;
  }
  for (int s = 0; s < 8; ++s) {
    EXPECT_GT(population[s], 0) << "shard " << s << " got no users";
  }
  const HashRing single(1, 16);
  for (UserId u = 0; u < 100; ++u) EXPECT_EQ(single.ShardOf(u), 0);
}

TEST(HashRingTest, OwnerRuleIsSmallerEndpointsHome) {
  const HashRing ring(5, 16);
  for (UserId a = 0; a < 60; ++a) {
    for (UserId b = a + 1; b < 60; ++b) {
      EXPECT_EQ(ring.OwnerOf(a, b), ring.ShardOf(a));
      EXPECT_EQ(ring.OwnerOf(b, a), ring.ShardOf(a));  // Symmetric.
    }
  }
}

TEST(HashRingTest, AddingShardOnlyMovesKeysToTheNewShard) {
  const HashRing before(7, 16);
  const HashRing after(8, 16);
  int moved = 0;
  for (UserId u = 0; u < 2000; ++u) {
    const int old_shard = before.ShardOf(u);
    const int new_shard = after.ShardOf(u);
    if (new_shard != old_shard) {
      EXPECT_EQ(new_shard, 7) << "user " << u
                              << " moved between pre-existing shards";
      moved += 1;
    }
  }
  // The new shard takes roughly 1/8 of the keys, never none, never most.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 1000);
}

// ---------------------------------------------------------------------------
// DigestLedger

LocationReportMsg Digest(UserId user, int32_t epoch, double x, double y) {
  LocationReportMsg digest;
  digest.user = user;
  digest.epoch = epoch;
  digest.position = {x, y};
  return digest;
}

TEST(DigestLedgerTest, EachDigestIsAcceptedExactlyOncePerKey) {
  DigestLedger ledger;
  const LocationReportMsg a = Digest(3, 7, 10.0, 20.0);
  const LocationReportMsg b = Digest(5, 7, -4.0, 8.5);
  ledger.Expect(1, a);
  ledger.Expect(1, b);
  ledger.Expect(2, a);
  EXPECT_EQ(ledger.outstanding(), 3u);
  ASSERT_TRUE(ledger.Consume(1, a));
  // A repeat of a consumed digest is rejected even though other digests
  // (b at shard 1, a at shard 2) are still outstanding.
  EXPECT_FALSE(ledger.Consume(1, a));
  // Wrong owner shard, wrong epoch, a position off by one ulp: all rejected
  // without consuming the real entry.
  EXPECT_FALSE(ledger.Consume(3, b));
  EXPECT_FALSE(ledger.Consume(1, Digest(5, 8, -4.0, 8.5)));
  EXPECT_FALSE(
      ledger.Consume(1, Digest(5, 7, std::nextafter(-4.0, 0.0), 8.5)));
  EXPECT_EQ(ledger.outstanding(), 2u);
  EXPECT_TRUE(ledger.Consume(1, b));
  EXPECT_TRUE(ledger.Consume(2, a));
  EXPECT_EQ(ledger.outstanding(), 0u);
  EXPECT_FALSE(ledger.Consume(2, a));
}

// ---------------------------------------------------------------------------
// Cross-shard parity: shard counts x drop rates against the single-server
// baseline (the ISSUE's property test).

class ShardCountParityTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardCountParityTest, MatchesSingleServerAtEveryDropRate) {
  const int shards = GetParam();
  const Workload& workload = SharedWorkload();
  for (const Method method : {Method::kCmd, Method::kStripeKf}) {
    for (const double drop : {0.0, 0.05, 0.20}) {
      const NetConfig base = drop == 0.0 ? Sharded(1, false, false)
                                         : LossySharded(1, false, drop, 99);
      NetConfig sharded = base;
      sharded.shards = shards;
      const TransportedRunResult single =
          RunTransportedMethod(method, workload, base);
      const TransportedRunResult multi =
          RunTransportedMethod(method, workload, sharded);

      EXPECT_TRUE(single.run.alerts_exact)
          << MethodName(method) << " drop=" << drop;
      EXPECT_TRUE(multi.run.alerts_exact)
          << MethodName(method) << " shards=" << shards << " drop=" << drop;
      EXPECT_EQ(multi.run.alert_count, single.run.alert_count);
      EXPECT_TRUE(multi.run.stats.SameMessageCounts(single.run.stats))
          << MethodName(method) << " shards=" << shards << " drop=" << drop
          << ": " << multi.run.stats << " vs " << single.run.stats;
      EXPECT_EQ(multi.run.rebuild_count, single.run.rebuild_count);
      EXPECT_TRUE(multi.net.codec_exact);
      EXPECT_FALSE(multi.net.failed);
      if (shards > 1) {
        EXPECT_GT(multi.net.bytes_xshard, 0u)
            << "no cross-shard traffic despite " << shards << " shards";
      }
      // Client-facing traffic is partition-independent in the unbatched
      // discipline on a perfect link: same frames, same bytes.
      if (drop == 0.0) {
        EXPECT_EQ(multi.net.bytes_down, single.net.bytes_down);
        EXPECT_EQ(multi.net.bytes_up, single.net.bytes_up);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountParityTest,
                         ::testing::Values(2, 3, 8));

// ---------------------------------------------------------------------------
// Batched + compressed, every paper method, shards=3: bit-exact with the
// in-process engine.

class BatchedShardedMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(BatchedShardedMethodTest, BitExactWithInProcess) {
  const Method method = GetParam();
  const Workload& workload = SharedWorkload();
  const RunResult direct = RunMethod(method, workload);
  const TransportedRunResult transported =
      RunTransportedMethod(method, workload, Sharded(3, true, true));

  EXPECT_TRUE(direct.alerts_exact);
  EXPECT_TRUE(transported.run.alerts_exact);
  EXPECT_EQ(transported.run.alert_count, direct.alert_count);
  EXPECT_TRUE(transported.run.stats.SameMessageCounts(direct.stats))
      << MethodName(method) << ": transported " << transported.run.stats
      << " diverged from direct " << direct.stats;
  EXPECT_EQ(transported.run.rebuild_count, direct.rebuild_count);
  EXPECT_TRUE(transported.net.codec_exact);
  EXPECT_FALSE(transported.net.failed);
  EXPECT_EQ(transported.net.compress_mismatch, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, BatchedShardedMethodTest,
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

// ---------------------------------------------------------------------------
// Batching and compression actually shrink the downlink.

TEST(ShardBatchingTest, BatchingAndCompressionReduceDownlink) {
  const Workload& workload = SharedWorkload();
  const TransportedRunResult plain =
      RunTransportedMethod(Method::kStripeKf, workload, Sharded(1, false, false));
  const TransportedRunResult optimized =
      RunTransportedMethod(Method::kStripeKf, workload, Sharded(1, true, true));

  EXPECT_TRUE(optimized.run.alerts_exact);
  EXPECT_TRUE(optimized.run.stats.SameMessageCounts(plain.run.stats));
  EXPECT_LT(optimized.net.bytes_down, plain.net.bytes_down);
  EXPECT_LT(optimized.net.frames_down, plain.net.frames_down);
  EXPECT_GT(optimized.net.batch_frames, 0u);
  EXPECT_GT(optimized.net.batch_messages, optimized.net.batch_frames);
  EXPECT_GT(optimized.net.batch_saved_bytes, 0u);
  // Grid-snapped stripe anchors make every stripe install compressible and
  // the guard (decode-own-encoding, compare bit-exact) never trips.
  EXPECT_GT(optimized.net.compressed_installs, 0u);
  EXPECT_GT(optimized.net.compress_saved_bytes, 0u);
  EXPECT_EQ(optimized.net.compress_mismatch, 0u);
  EXPECT_EQ(plain.net.batch_frames, 0u);
  EXPECT_EQ(plain.net.compressed_installs, 0u);
  // CommStats carries the savings for reporting.
  EXPECT_EQ(optimized.run.stats.batch_saved_bytes,
            optimized.net.batch_saved_bytes);
}

// ---------------------------------------------------------------------------
// Per-shard accounting sums to the global direction totals.

TEST(ShardStatsTest, PerShardSumsEqualGlobals) {
  const Workload& workload = SharedWorkload();
  const TransportedRunResult r =
      RunTransportedMethod(Method::kStripeKf, workload, Sharded(3, true, true));
  ASSERT_EQ(r.net.shards.size(), 3u);
  uint64_t users = 0;
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t bytes_xshard = 0;
  uint64_t frames_up = 0;
  uint64_t frames_down = 0;
  uint64_t frames_xshard = 0;
  for (const ShardNetStats& s : r.net.shards) {
    users += s.users;
    bytes_up += s.bytes_up;
    bytes_down += s.bytes_down;
    bytes_xshard += s.bytes_xshard;
    frames_up += s.frames_up;
    frames_down += s.frames_down;
    frames_xshard += s.frames_xshard;
  }
  EXPECT_EQ(users, workload.world.user_count());
  EXPECT_EQ(bytes_up, r.net.bytes_up);
  EXPECT_EQ(bytes_down, r.net.bytes_down);
  EXPECT_EQ(bytes_xshard, r.net.bytes_xshard);
  EXPECT_EQ(frames_up, r.net.frames_up);
  EXPECT_EQ(frames_down, r.net.frames_down);
  EXPECT_EQ(frames_xshard, r.net.frames_xshard);
  EXPECT_GT(bytes_xshard, 0u);
  // CommStats mirrors the mesh total.
  EXPECT_EQ(r.run.stats.bytes_xshard, r.net.bytes_xshard);
  // Mesh traffic is server-internal: not part of the client I/O objective.
  EXPECT_EQ(r.run.stats.TotalBytes(), r.net.bytes_up + r.net.bytes_down);
}

// ---------------------------------------------------------------------------
// Batched + sharded over a hostile mesh (drop + dup + jitter): still exact.

TEST(ShardLossTest, BatchedShardedSurvivesLossDupAndReorder) {
  const Workload& workload = SharedWorkload();
  for (const double drop : {0.05, 0.20}) {
    const TransportedRunResult r = RunTransportedMethod(
        Method::kStripeKf, workload, LossySharded(3, true, drop, 4242));
    EXPECT_TRUE(r.run.alerts_exact) << "drop=" << drop;
    EXPECT_TRUE(r.net.codec_exact) << "drop=" << drop;
    EXPECT_FALSE(r.net.failed) << "drop=" << drop;
    EXPECT_GT(r.net.retransmits, 0u) << "drop=" << drop;
    EXPECT_GT(r.net.duplicates, 0u) << "drop=" << drop;
  }
}

// Same transport seed, same config => identical delivery schedule, even
// sharded and batched: the serving plane adds no hidden nondeterminism.
TEST(ShardDeterminismTest, ScheduleHashIsReproducible) {
  const Workload& workload = SharedWorkload();
  const NetConfig config = LossySharded(3, true, 0.05, 7);
  const TransportedRunResult a =
      RunTransportedMethod(Method::kCmd, workload, config);
  const TransportedRunResult b =
      RunTransportedMethod(Method::kCmd, workload, config);
  EXPECT_EQ(a.net.schedule_hash, b.net.schedule_hash);
  EXPECT_EQ(a.net.bytes_up, b.net.bytes_up);
  EXPECT_EQ(a.net.bytes_down, b.net.bytes_down);
  EXPECT_EQ(a.net.bytes_xshard, b.net.bytes_xshard);
}

// ---------------------------------------------------------------------------
// RunReport + registry reconciliation for a sharded run: summed per-shard
// byte counters equal the global direction counters equal CommStats.

TEST(ShardObsTest, ShardedRunReportReconciles) {
  obs::Metrics().Reset();
  const Workload& workload = SharedWorkload();
  const TransportedRunResult r =
      RunTransportedMethod(Method::kStripeKf, workload, Sharded(2, true, true));
  obs::RunReport report = MakeRunReport("shard_test:sharded", r.run.stats);
  AddShardNetSections(&report, r.net);
  std::string error;
  EXPECT_TRUE(ReconcileWithCommStats(report.metrics(), r.run.stats, &error))
      << error;
  obs::Metrics().Reset();
}

}  // namespace
}  // namespace net
}  // namespace proxdet
