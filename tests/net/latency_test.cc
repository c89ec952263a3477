// The causal-tracing / latency-accounting plane: traced transported runs
// stay bit-exact with the in-process engine for every paper method, the
// per-alert detect->deliver tracker reconciles with CommStats alert counts
// to the unit, hop counts match the route (1 direct, 2 relayed) and are
// identical between batch disciplines, the SimNet virtual-time latency
// digest is invariant across thread AND shard counts, the live stats
// endpoint answers HTTP, and the flight recorder dumps a parseable
// post-mortem on an induced reliability give-up.

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "net/latency.h"
#include "net/socket/stats_server.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

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

NetConfig Traced(int shards, bool batch) {
  NetConfig config;
  config.shards = shards;
  config.batch_downlink = batch;
  config.compress_installs = batch;
  config.trace = true;
  return config;
}

/// One traced transported run with the link kept alive long enough to read
/// the latency tracker and the per-client trace contexts.
struct TracedRun {
  CommStats stats;
  std::vector<AlertEvent> alerts;      // Deduplicated client stream.
  std::vector<TraceCtx> alert_traces;  // Every delivered alert frame's ctx.
  uint64_t delivered = 0;
  uint64_t unmatched = 0;
  size_t outstanding = 0;
  bool failed = false;
  bool alerts_exact = false;
};

TracedRun RunTraced(Method method, const Workload& workload,
                    const NetConfig& config) {
  auto detector = MakeDetector(method, workload);
  TransportLink link(workload.world, config);
  detector->set_link(&link);
  detector->Run(workload.world);
  detector->set_link(nullptr);
  TracedRun out;
  out.stats = detector->stats();
  out.alerts = link.ClientAlerts();
  SortAlerts(&out.alerts);
  out.alerts_exact = out.alerts == workload.GroundTruth();
  for (UserId u = 0; u < static_cast<UserId>(workload.world.user_count());
       ++u) {
    const auto& traces = link.client(u).alert_traces();
    out.alert_traces.insert(out.alert_traces.end(), traces.begin(),
                            traces.end());
  }
  const AlertLatencyTracker* tracker = link.latency_tracker();
  EXPECT_NE(tracker, nullptr) << "trace=true run lost its tracker";
  if (tracker != nullptr) {
    out.delivered = tracker->delivered();
    out.unmatched = tracker->unmatched();
    out.outstanding = tracker->outstanding();
  }
  out.failed = link.Stats().failed;
  return out;
}

// ---------------------------------------------------------------------------
// AlertLatencyTracker unit semantics.

TEST(AlertLatencyTest, TrackerMatchesDetectsToDelivers) {
  obs::Metrics().Reset();
  SimNet net(1);
  AlertLatencyTracker tracker(&net, /*shard_count=*/2);
  TraceCtx ctx;
  ctx.origin_epoch = 5;
  ctx.event_id = AlertEventId(1, 1, 2, 5);
  ctx.hops = 1;
  tracker.RecordDetect(ctx.event_id, /*shard=*/0);
  EXPECT_EQ(tracker.outstanding(), 1u);
  tracker.RecordDeliver(ctx);
  EXPECT_EQ(tracker.delivered(), 1u);
  EXPECT_EQ(tracker.outstanding(), 0u);
  EXPECT_EQ(tracker.unmatched(), 0u);
  // A deliver with no pending detect is counted, never crashes.
  TraceCtx stray = ctx;
  stray.event_id = AlertEventId(9, 9, 10, 1);
  tracker.RecordDeliver(stray);
  EXPECT_EQ(tracker.unmatched(), 1u);
  EXPECT_EQ(tracker.delivered(), 1u);
  // SimNet latencies land in the deterministic virtual sketch only.
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  const auto it = snap.quantiles.find("net.latency.virtual_s");
  ASSERT_NE(it, snap.quantiles.end());
  EXPECT_EQ(it->second.value.count(), 1u);
  const auto wall = snap.quantiles.find("net.latency.wall_s");
  ASSERT_NE(wall, snap.quantiles.end());
  EXPECT_EQ(wall->second.value.count(), 0u);
  const auto counter = snap.counters.find("net.latency.delivered");
  ASSERT_NE(counter, snap.counters.end());
  EXPECT_EQ(counter->second.second, 1u);
}

// ---------------------------------------------------------------------------
// Traced runs stay bit-exact and reconcile to the unit, for every method.

class TracedMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(TracedMethodTest, BitExactAndReconciled) {
  const Method method = GetParam();
  const Workload& workload = SharedWorkload();
  obs::Metrics().Reset();
  const RunResult direct = RunMethod(method, workload);
  const TracedRun traced = RunTraced(method, workload, Traced(3, true));

  EXPECT_TRUE(direct.alerts_exact);
  EXPECT_TRUE(traced.alerts_exact)
      << MethodName(method) << ": tracing changed the alert stream";
  EXPECT_FALSE(traced.failed);
  EXPECT_TRUE(traced.stats.SameMessageCounts(direct.stats))
      << MethodName(method) << ": traced " << traced.stats
      << " diverged from direct " << direct.stats;

  // Reconciliation to the unit: every engine Alert() call produced exactly
  // one matched client delivery, and nothing is still in flight.
  EXPECT_EQ(traced.delivered, direct.stats.alerts);
  EXPECT_EQ(traced.alert_traces.size(), direct.stats.alerts);
  EXPECT_EQ(traced.unmatched, 0u);
  EXPECT_EQ(traced.outstanding, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, TracedMethodTest,
                         ::testing::ValuesIn(PaperMethodSet()),
                         [](const auto& info) {
                           std::string name = MethodName(info.param);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Hop semantics: 1 for a direct delivery, 2 for a relayed one, identical
// between batch disciplines and degenerate (all 1) at shards == 1.

std::vector<std::pair<uint64_t, int>> HopSet(const TracedRun& run) {
  std::vector<std::pair<uint64_t, int>> out;
  out.reserve(run.alert_traces.size());
  for (const TraceCtx& ctx : run.alert_traces) {
    out.emplace_back(ctx.event_id, ctx.hops);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AlertLatencyTest, HopCountsMatchRouteAndBatchModesAgree) {
  const Workload& workload = SharedWorkload();
  obs::Metrics().Reset();
  const TracedRun batched =
      RunTraced(Method::kCmd, workload, Traced(3, true));
  obs::Metrics().Reset();
  const TracedRun unbatched =
      RunTraced(Method::kCmd, workload, Traced(3, false));

  ASSERT_FALSE(batched.alert_traces.empty());
  int direct = 0, relayed = 0;
  for (const TraceCtx& ctx : batched.alert_traces) {
    ASSERT_TRUE(ctx.hops == 1 || ctx.hops == 2)
        << "impossible hop count " << int(ctx.hops);
    (ctx.hops == 1 ? direct : relayed) += 1;
  }
  // The ring splits 40 users over 3 shards: both route shapes must occur.
  EXPECT_GT(direct, 0);
  EXPECT_GT(relayed, 0);
  // The delivered (event id, hops) multiset is a route property, not a
  // batching property.
  EXPECT_EQ(HopSet(batched), HopSet(unbatched));

  obs::Metrics().Reset();
  const TracedRun single =
      RunTraced(Method::kCmd, workload, Traced(1, true));
  for (const TraceCtx& ctx : single.alert_traces) {
    EXPECT_EQ(ctx.hops, 1) << "single-shard alert took a relay";
  }
}

// ---------------------------------------------------------------------------
// Digest invariance: the deterministic latency metrics are a pure function
// of the workload — identical across thread counts AND shard counts.

std::string LatencyDigest(int threads, int shards) {
  ThreadPool::SetGlobalThreads(threads);
  obs::Metrics().Reset();
  const TracedRun run =
      RunTraced(Method::kStripeKf, SharedWorkload(), Traced(shards, true));
  EXPECT_TRUE(run.alerts_exact);
  const std::string digest = obs::Metrics().Snapshot().DeterministicDigest();
  // Keep only the latency plane's lines: per-shard byte counters naturally
  // differ across partition counts and are not part of this claim.
  std::string out;
  size_t pos = 0;
  while (pos < digest.size()) {
    size_t end = digest.find('\n', pos);
    if (end == std::string::npos) end = digest.size();
    const std::string line = digest.substr(pos, end - pos);
    if (line.find("net.latency.") != std::string::npos) out += line + "\n";
    pos = end + 1;
  }
  return out;
}

TEST(AlertLatencyTest, VirtualLatencyDigestInvariantAcrossThreadsAndShards) {
  const std::string reference = LatencyDigest(1, 1);
  ASSERT_NE(reference.find("net.latency.delivered"), std::string::npos);
  ASSERT_NE(reference.find("net.latency.virtual_s"), std::string::npos);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(LatencyDigest(threads, 1), reference)
        << "latency digest diverged at " << threads << " threads";
  }
  for (const int shards : {2, 4}) {
    EXPECT_EQ(LatencyDigest(1, shards), reference)
        << "latency digest diverged at " << shards << " shards";
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
}

// ---------------------------------------------------------------------------
// Live introspection endpoint.

#ifndef _WIN32
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}
#endif

TEST(StatsServerTest, ServesPrometheusAndJsonSnapshot) {
#ifdef _WIN32
  GTEST_SKIP() << "no sockets on this platform";
#else
  obs::Metrics().Reset();
  obs::Metrics().GetCounter("net.latency.delivered").Inc(7);
  StatsServer server(0);
  if (!server.ok()) GTEST_SKIP() << "cannot bind loopback TCP";
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("net_latency_delivered"), std::string::npos);

  const std::string snapshot = HttpGet(server.port(), "/snapshot");
  EXPECT_NE(snapshot.find("200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("\"counters\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"quantiles\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"flight_head\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"net.latency.delivered\": 7"), std::string::npos);

  // A /metrics-prefixed path that isn't /metrics gets the JSON fallback,
  // not the Prometheus dump.
  const std::string prefixed = HttpGet(server.port(), "/metricsfoo");
  EXPECT_NE(prefixed.find("application/json"), std::string::npos);
  EXPECT_NE(prefixed.find("\"counters\""), std::string::npos);
  // A query string still routes to the Prometheus dump.
  const std::string query = HttpGet(server.port(), "/metrics?x=1");
  EXPECT_NE(query.find("net_latency_delivered"), std::string::npos);
  EXPECT_GE(server.requests(), 4u);
#endif
}

TEST(StatsServerTest, TransportedRunExposesEphemeralPort) {
#ifdef _WIN32
  GTEST_SKIP() << "no sockets on this platform";
#else
  obs::Metrics().Reset();
  NetConfig config = Traced(2, true);
  config.stats_port = 0;  // Ephemeral.
  auto detector = MakeDetector(Method::kCmd, SharedWorkload());
  TransportLink link(SharedWorkload().world, config);
  if (link.stats_port() < 0) GTEST_SKIP() << "cannot bind loopback TCP";
  detector->set_link(&link);
  detector->Run(SharedWorkload().world);
  detector->set_link(nullptr);
  // The endpoint lives as long as the serving plane: still answering after
  // the run, with the run's metrics visible.
  const std::string metrics = HttpGet(link.stats_port(), "/metrics");
  EXPECT_NE(metrics.find("net_latency_delivered"), std::string::npos);
#endif
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorderTest, RingBoundsAndOrderedSnapshot) {
  obs::FlightRecorder& flight = obs::Flight();
  flight.Clear();
  flight.set_capacity(4);
  for (int shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < 6; ++i) {
      obs::FlightEvent event;
      event.kind = obs::FlightEventKind::kSend;
      event.shard = shard;
      event.src = i;
      event.seq = static_cast<uint64_t>(i);
      flight.Record(event);
    }
  }
  // Each shard ring kept only its most recent `capacity` events.
  const std::vector<obs::FlightEvent> all = flight.snapshot();
  ASSERT_EQ(all.size(), 8u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].id, all[i].id) << "merge order broke";
  }
  for (const obs::FlightEvent& event : all) {
    EXPECT_GE(event.seq, 2u) << "ring kept an event it should have evicted";
  }
  const std::vector<obs::FlightEvent> head = flight.Head(3);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head.back().id, all.back().id);
  const std::string json = flight.ToJson("unit test");
  EXPECT_NE(json.find("\"reason\": \"unit test\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"send\""), std::string::npos);
  flight.set_capacity(256);
  flight.Clear();
}

TEST(FlightRecorderTest, DumpsOnInducedReliabilityGiveUp) {
  obs::FlightRecorder& flight = obs::Flight();
  flight.Clear();
  const std::string path =
      ::testing::TempDir() + "/proxdet_flight_giveup.json";
  std::remove(path.c_str());
  flight.set_dump_path(path);

  // Total uplink loss: every report exhausts its retry budget and the
  // endpoint gives up, which must leave a dump at the configured path.
  NetConfig config;
  config.trace = true;
  config.up.drop_rate = 1.0;
  WorkloadConfig tiny = TinyConfig();
  tiny.num_users = 6;
  tiny.epochs = 3;
  const Workload workload = BuildWorkload(tiny);
  obs::Metrics().Reset();
  auto detector = MakeDetector(Method::kNaive, workload);
  TransportLink link(workload.world, config);
  detector->set_link(&link);
  detector->Run(workload.world);
  detector->set_link(nullptr);
  EXPECT_TRUE(link.Stats().failed) << "total loss should fail the run";

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "give-up produced no flight dump";
  std::string dump;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) dump.append(buf, n);
  std::fclose(f);
  EXPECT_NE(dump.find("\"reason\""), std::string::npos);
  EXPECT_NE(dump.find("give-up"), std::string::npos);
  EXPECT_NE(dump.find("\"events\""), std::string::npos);
  EXPECT_NE(dump.find("\"give_up\""), std::string::npos);

  flight.set_dump_path("");
  flight.Clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace net
}  // namespace proxdet
