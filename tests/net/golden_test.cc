// Golden pin of the transported plane's wire outcomes. Every value below is
// a pure function of (workload seed, transport seed, NetConfig): the
// delivery-schedule hash, the per-direction frame and byte totals, the
// reliability decisions, the engine's CommStats and the deterministic obs
// digest. Any change to the framing, the SimNet event order, the Rng draw
// sequence, the retry/dedup state machine or the batching rules moves at
// least one of them — so a refactor of the transport's internals that keeps
// this table green has provably not changed a wire byte.
//
// On a mismatch the test prints the observed row in table syntax; a
// deliberate wire change regenerates the table from that output.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace proxdet {
namespace net {
namespace {

WorkloadConfig GoldenConfig() {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = 80;
  config.epochs = 60;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 9000.0;
  config.seed = 4242;
  config.training_users = 12;
  config.training_epochs = 60;
  return config;
}

const Workload& GoldenWorkload() {
  static const Workload workload = BuildWorkload(GoldenConfig());
  return workload;
}

/// `batch` turns batched downlink and install compression on together;
/// `lossy` impairs every direction with 5% drop and 2% duplication (plus
/// latency and jitter, so copies also reorder).
NetConfig GoldenNet(int shards, bool batch, bool lossy) {
  NetConfig config;
  config.shards = shards;
  config.batch_downlink = batch;
  config.compress_installs = batch;
  config.seed = 0x5eed0 + static_cast<uint64_t>(shards);
  if (lossy) {
    for (LinkModel* link : {&config.up, &config.down}) {
      link->latency_s = 0.01;
      link->jitter_s = 0.02;
      link->drop_rate = 0.05;
      link->dup_rate = 0.02;
    }
    config.mesh.latency_s = 0.002;
    config.mesh.jitter_s = 0.005;
    config.mesh.drop_rate = 0.05;
    config.mesh.dup_rate = 0.02;
  }
  return config;
}

struct GoldenRow {
  Method method;
  int shards;
  bool batch;
  bool lossy;
  uint64_t schedule_hash;
  uint64_t frames_up, bytes_up;
  uint64_t frames_down, bytes_down;
  uint64_t frames_xshard, bytes_xshard;
  uint64_t retransmits, dedup_discards;
  uint64_t reports, probes, alerts, region_installs, match_installs;
  uint64_t batch_saved_bytes;
  uint64_t digest_hash;  // DigestHash of the deterministic obs digest.
};

bool SameOutcome(const GoldenRow& a, const GoldenRow& b) {
  return a.schedule_hash == b.schedule_hash && a.frames_up == b.frames_up &&
         a.bytes_up == b.bytes_up && a.frames_down == b.frames_down &&
         a.bytes_down == b.bytes_down && a.frames_xshard == b.frames_xshard &&
         a.bytes_xshard == b.bytes_xshard && a.retransmits == b.retransmits &&
         a.dedup_discards == b.dedup_discards && a.reports == b.reports &&
         a.probes == b.probes && a.alerts == b.alerts &&
         a.region_installs == b.region_installs &&
         a.match_installs == b.match_installs &&
         a.batch_saved_bytes == b.batch_saved_bytes &&
         a.digest_hash == b.digest_hash;
}

std::string FormatRow(const GoldenRow& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{Method::%s, %d, %s, %s, 0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
      ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
      ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
      ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL},",
      r.method == Method::kStripeKf ? "kStripeKf" : "kCmd", r.shards,
      r.batch ? "true" : "false", r.lossy ? "true" : "false",
      r.schedule_hash, r.frames_up, r.bytes_up, r.frames_down, r.bytes_down,
      r.frames_xshard, r.bytes_xshard, r.retransmits, r.dedup_discards,
      r.reports, r.probes, r.alerts, r.region_installs, r.match_installs,
      r.batch_saved_bytes, r.digest_hash);
  return buf;
}

/// FNV-1a 64 over the digest.
uint64_t DigestHash(const std::string& digest) {
  uint64_t h = 14695981039346656037ULL;
  for (const char c : digest) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

GoldenRow Observe(Method method, int shards, bool batch, bool lossy) {
  obs::Metrics().Reset();
  const TransportedRunResult result = RunTransportedMethod(
      method, GoldenWorkload(), GoldenNet(shards, batch, lossy));
  EXPECT_TRUE(result.run.alerts_exact);
  EXPECT_FALSE(result.net.failed);
  EXPECT_TRUE(result.net.codec_exact);
  const CommStats& s = result.run.stats;
  GoldenRow row{};
  row.method = method;
  row.shards = shards;
  row.batch = batch;
  row.lossy = lossy;
  row.schedule_hash = result.net.schedule_hash;
  row.frames_up = result.net.frames_up;
  row.bytes_up = result.net.bytes_up;
  row.frames_down = result.net.frames_down;
  row.bytes_down = result.net.bytes_down;
  row.frames_xshard = result.net.frames_xshard;
  row.bytes_xshard = result.net.bytes_xshard;
  row.retransmits = result.net.retransmits;
  row.dedup_discards = result.net.dedup_discards;
  row.reports = s.reports;
  row.probes = s.probes;
  row.alerts = s.alerts;
  row.region_installs = s.region_installs;
  row.match_installs = s.match_installs;
  row.batch_saved_bytes = s.batch_saved_bytes;
  row.digest_hash =
      DigestHash(obs::Metrics().Snapshot().DeterministicDigest());
  return row;
}

// Captured from the map-based reliability layer (std::map pending and
// seen-window state, std::function retry timers, eager timer cancellation)
// before the allocation-free frame path replaced it.
// clang-format off
const GoldenRow kGolden[] = {
  {Method::kStripeKf, 1, false, false, 0x77d42a2e5f23ac61ULL, 804, 52071, 804, 49239, 0, 0, 0, 0, 351, 50, 14, 315, 74, 0, 0xd467140d261d84f0ULL},
  {Method::kStripeKf, 1, false, true, 0xc7dcedc64eba330cULL, 946, 63303, 960, 57263, 0, 0, 162, 136, 351, 50, 14, 315, 74, 0, 0x8a8248788d024bceULL},
  {Method::kStripeKf, 1, true, false, 0x57e882d12fd66b8cULL, 752, 51551, 752, 29213, 0, 0, 0, 0, 351, 50, 14, 315, 74, 826, 0xe5b3338a84653baeULL},
  {Method::kStripeKf, 1, true, true, 0x9c211b12954deb68ULL, 892, 61414, 903, 34131, 0, 0, 156, 135, 351, 50, 14, 315, 74, 826, 0x0debaedbf239ad61ULL},
  {Method::kStripeKf, 2, false, false, 0x9c69d3647104f299ULL, 804, 52071, 804, 49239, 600, 12522, 0, 0, 351, 50, 14, 315, 74, 0, 0xa35eea1dbee5bce5ULL},
  {Method::kStripeKf, 2, false, true, 0x59c4e2586c2fcfd3ULL, 965, 62882, 964, 59127, 642, 13496, 199, 164, 351, 50, 14, 315, 74, 0, 0x88dcdc1a71e1fefaULL},
  {Method::kStripeKf, 2, true, false, 0x525a0f78535034d1ULL, 752, 51551, 752, 29213, 206, 9115, 0, 0, 351, 50, 14, 315, 74, 4141, 0xed661eb32348a5e0ULL},
  {Method::kStripeKf, 2, true, true, 0xf470620c36443203ULL, 905, 62427, 908, 35673, 222, 9766, 178, 147, 351, 50, 14, 315, 74, 4141, 0x8bc465ec07b99697ULL},
  {Method::kStripeKf, 4, false, false, 0xc13a61b5a7868a51ULL, 804, 52071, 804, 49239, 1068, 22029, 0, 0, 351, 50, 14, 315, 74, 0, 0x11e853a38d5e5a00ULL},
  {Method::kStripeKf, 4, false, true, 0x0ba0652c1054f021ULL, 962, 62669, 958, 58530, 1163, 24102, 222, 185, 351, 50, 14, 315, 74, 0, 0x2750cd184b0ad973ULL},
  {Method::kStripeKf, 4, true, false, 0x6e7e2b7184842d8bULL, 752, 51551, 752, 29213, 616, 18350, 0, 0, 351, 50, 14, 315, 74, 4505, 0x9aa832fc390324f2ULL},
  {Method::kStripeKf, 4, true, true, 0x5b9161372aafb391ULL, 888, 59587, 900, 35256, 667, 20151, 184, 151, 351, 50, 14, 315, 74, 4505, 0x69be65ba5e279f8eULL},
  {Method::kCmd, 1, false, false, 0x80806cd78f10b472ULL, 1698, 121977, 1698, 53044, 0, 0, 0, 0, 807, 35, 14, 768, 74, 0, 0x2b568335eb98fe2dULL},
  {Method::kCmd, 1, false, true, 0x576a36b2e9c92c4cULL, 2002, 146237, 2004, 63262, 0, 0, 332, 278, 807, 35, 14, 768, 74, 0, 0x25365bf0f26f94b7ULL},
  {Method::kCmd, 1, true, false, 0x22cd682f191057d8ULL, 1649, 121487, 1649, 52745, 0, 0, 0, 0, 807, 35, 14, 768, 74, 789, 0x9ca4575a5f40c547ULL},
  {Method::kCmd, 1, true, true, 0x9a7afe277af58701ULL, 1943, 145383, 1941, 62558, 0, 0, 321, 265, 807, 35, 14, 768, 74, 789, 0x3b9697c2d92050ecULL},
  {Method::kCmd, 2, false, false, 0x3c9d21a05cac908dULL, 1698, 121977, 1698, 53044, 1228, 26024, 0, 0, 807, 35, 14, 768, 74, 0, 0x182471ca1aef9984ULL},
  {Method::kCmd, 2, false, true, 0xd0d84491a5f7da07ULL, 2019, 145766, 2016, 64156, 1340, 28497, 418, 333, 807, 35, 14, 768, 74, 0, 0x1d2393da8263aeb3ULL},
  {Method::kCmd, 2, true, false, 0xeac6eacee143588eULL, 1649, 121487, 1649, 52745, 238, 16741, 0, 0, 807, 35, 14, 768, 74, 9352, 0x1c1c6a7c41ca709bULL},
  {Method::kCmd, 2, true, true, 0x74894927c02e36e5ULL, 1958, 145983, 1960, 63186, 259, 17899, 352, 289, 807, 35, 14, 768, 74, 9352, 0xd96b3d410c757a44ULL},
  {Method::kCmd, 4, false, false, 0x9557d6e8e88cda96ULL, 1698, 121977, 1698, 53044, 2136, 44027, 0, 0, 807, 35, 14, 768, 74, 0, 0xaae05d3498291a3bULL},
  {Method::kCmd, 4, false, true, 0xfb750723a45b75e4ULL, 2025, 146660, 2020, 63795, 2313, 48053, 459, 367, 807, 35, 14, 768, 74, 0, 0xd4d296e9f2be59feULL},
  {Method::kCmd, 4, true, false, 0xd92ce85a1582b72eULL, 1649, 121487, 1649, 52745, 984, 34370, 0, 0, 807, 35, 14, 768, 74, 10342, 0x0145b9c4aa5e7137ULL},
  {Method::kCmd, 4, true, true, 0x9620aa0290b3ccf4ULL, 1934, 143575, 1939, 62470, 1077, 37957, 378, 290, 807, 35, 14, 768, 74, 10342, 0x3f7b614b14203031ULL},
};
// clang-format on

TEST(NetGoldenTest, WireOutcomesMatchPinnedValues) {
  int checked = 0;
  for (const Method method : {Method::kStripeKf, Method::kCmd}) {
    for (const int shards : {1, 2, 4}) {
      for (const bool batch : {false, true}) {
        for (const bool lossy : {false, true}) {
          const GoldenRow got = Observe(method, shards, batch, lossy);
          const GoldenRow* want = nullptr;
          for (const GoldenRow& row : kGolden) {
            if (row.method == method && row.shards == shards &&
                row.batch == batch && row.lossy == lossy) {
              want = &row;
            }
          }
          if (want == nullptr || !SameOutcome(*want, got)) {
            ADD_FAILURE() << "golden mismatch; observed row:\n  "
                          << FormatRow(got);
          }
          checked += 1;
        }
      }
    }
  }
  EXPECT_EQ(checked, 24);
}

}  // namespace
}  // namespace net
}  // namespace proxdet
