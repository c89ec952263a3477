// The real-socket backend's contract: the TimerWheel never fires early and
// survives re-arming, the shared ReliabilityPolicy makes identical
// retry/dedup decisions for identical delivery traces no matter which
// backend replays them, malformed datagrams are rejected exactly like
// corrupted SimNet frames, and a transported run over UDP loopback stays
// bit-exact with the in-process engine — SimNet is the oracle, the kernel
// is just a different wire. Every socket-touching test skips gracefully
// where socket(2) is unavailable (sandboxes, seccomp).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "net/reliability.h"
#include "net/sim_net.h"
#include "net/socket/event_loop.h"
#include "net/socket/socket_server.h"
#include "net/socket/timer_wheel.h"
#include "net/socket/udp_net.h"
#include "net/transport.h"
#include "net/wire.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace proxdet {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// TimerWheel: the retransmit clock. "Never early" is the property the
// reliability layer leans on — a timer that fires before its deadline
// retransmits a frame whose ack is still legitimately in flight.

TEST(TimerWheelTest, FiresAtOrAfterDeadlineNeverBefore) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.Schedule(0.0, 0.010, [&] { fired.push_back(10); });
  wheel.Schedule(0.0, 0.050, [&] { fired.push_back(50); });
  wheel.Schedule(0.0, 0.002, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.size(), 3u);

  EXPECT_EQ(wheel.FireDue(0.001), 0);  // Nothing due yet.
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.FireDue(0.0049), 1);  // Only the 2ms timer.
  EXPECT_EQ(fired, std::vector<int>({2}));
  EXPECT_EQ(wheel.FireDue(0.060), 2);  // The rest, in deadline order.
  EXPECT_EQ(fired, std::vector<int>({2, 10, 50}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, RearmedTimerWaitsForTheNextFireDue) {
  // A retransmit timer re-arms itself from inside its own callback; the
  // wheel must park the new timer for a later FireDue even when the
  // requested deadline already passed — otherwise one FireDue call could
  // spin through every retry attempt at once.
  TimerWheel wheel;
  int fired = 0;
  std::function<void()> rearm = [&] {
    fired += 1;
    if (fired < 3) wheel.Schedule(1.0, 0.0, rearm);
  };
  wheel.Schedule(0.0, 0.001, rearm);
  EXPECT_EQ(wheel.FireDue(1.0), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.FireDue(2.0), 1);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(wheel.FireDue(3.0), 1);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, LongGapsFireEverythingExactlyOnce) {
  // A driver that slept past several full wheel revolutions must still
  // fire every armed timer exactly once.
  TimerWheel wheel;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    wheel.Schedule(0.0, 0.001 * (i + 1), [&] { fired += 1; });
  }
  EXPECT_EQ(wheel.FireDue(10.0), 64);
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(wheel.FireDue(20.0), 0);
}

// ---------------------------------------------------------------------------
// ReliabilityPolicy: the transport-agnostic decision machine. A "delivery
// trace" is the per-transmission fate the wire chose (delivered or lost,
// data and acks alike); replaying one trace through a fresh sender/receiver
// policy pair must reproduce byte-identical decisions — this is the
// structural property that lets SimNet stand as the UDP backend's oracle.

struct TraceDecisions {
  std::vector<std::string> log;  // One entry per decision, in order.
  uint64_t retransmits = 0;
  uint64_t dedup_discards = 0;
  uint64_t delivered = 0;
  bool delivery_failed = false;
};

/// Replays a synthetic exchange: `messages` payloads from a sender policy
/// to a receiver policy, where data_fate[i] tells whether the i-th data
/// transmission reaches the receiver and ack_fate[j] whether the j-th ack
/// reaches the sender (patterns repeat). Pure policy driving — no backend,
/// no clock; timers are modeled as "the retry fires iff the ack has not
/// landed", exactly the contract ReliableEndpoint implements.
TraceDecisions ReplayTrace(const std::vector<std::vector<uint8_t>>& messages,
                           const std::vector<bool>& data_fate,
                           const std::vector<bool>& ack_fate,
                           int max_retries) {
  ReliabilityPolicy sender(/*rto_s=*/0.05, max_retries);
  ReliabilityPolicy receiver(/*rto_s=*/0.05, max_retries);
  TraceDecisions out;
  size_t data_i = 0;
  size_t ack_i = 0;
  const int kDst = 1;
  for (const std::vector<uint8_t>& payload : messages) {
    const uint64_t seq = sender.Enqueue(kDst, MsgKind::kAlert, payload);
    for (int attempt = 0;; ++attempt) {
      ReliabilityPolicy::TransmitPlan plan =
          sender.PlanTransmit(kDst, seq, attempt);
      if (plan.verdict == ReliabilityPolicy::TransmitPlan::Verdict::kSkip) {
        out.log.push_back("skip");
        break;
      }
      if (plan.verdict == ReliabilityPolicy::TransmitPlan::Verdict::kGiveUp) {
        out.log.push_back("giveup");
        break;
      }
      out.log.push_back(plan.is_retransmit ? "retx" : "tx");
      const bool data_arrives = data_fate[data_i++ % data_fate.size()];
      if (!data_arrives) continue;  // Wire ate it; the timer will retry.
      Frame frame;
      ReliabilityPolicy::RxResult rx = receiver.OnDatagram(
          0, plan.frame->data(), plan.frame->size(), &frame);
      switch (rx.verdict) {
        case ReliabilityPolicy::RxResult::Verdict::kDeliver:
          out.log.push_back("deliver:" + std::to_string(frame.seq));
          out.delivered += 1;
          break;
        case ReliabilityPolicy::RxResult::Verdict::kDuplicate:
          out.log.push_back("dup:" + std::to_string(frame.seq));
          break;
        default:
          out.log.push_back("unexpected");
          break;
      }
      // Every copy is acked (kDeliver and kDuplicate alike).
      const std::vector<uint8_t> ack = EncodeFrame(MsgKind::kAck, frame.seq, {});
      const bool ack_arrives = ack_fate[ack_i++ % ack_fate.size()];
      if (!ack_arrives) continue;
      Frame ack_frame;
      ReliabilityPolicy::RxResult sx =
          sender.OnDatagram(kDst, ack.data(), ack.size(), &ack_frame);
      out.log.push_back(sx.acked_pending ? "acked" : "stale-ack");
      if (sx.acked_pending) break;  // Delivered; next message.
    }
  }
  out.retransmits = sender.retransmits();
  out.dedup_discards = receiver.dedup_discards();
  out.delivery_failed = sender.delivery_failed();
  return out;
}

std::vector<std::vector<uint8_t>> SomePayloads(size_t n) {
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < n; ++i) {
    AlertMsg msg;
    msg.user = static_cast<UserId>(i);
    msg.u = 1;
    msg.w = 2;
    msg.epoch = static_cast<int32_t>(i);
    payloads.push_back(Encode(msg));
  }
  return payloads;
}

TEST(ReliabilityPolicyTest, IdenticalTracesYieldIdenticalDecisions) {
  // Two independent policy pairs replaying the same delivery trace must
  // agree on every decision — transmit, retransmit, deliver, dedup, ack.
  // The trace mixes clean sends, lost data copies and lost acks (a lost
  // ack forces a retransmit whose copy the receiver must dedup).
  const auto payloads = SomePayloads(12);
  const std::vector<bool> data_fate = {true, false, true, true, false, true};
  const std::vector<bool> ack_fate = {true, true, false, true};
  const TraceDecisions a = ReplayTrace(payloads, data_fate, ack_fate, 16);
  const TraceDecisions b = ReplayTrace(payloads, data_fate, ack_fate, 16);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dedup_discards, b.dedup_discards);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivered, payloads.size());  // Exactly once each.
  EXPECT_GT(a.retransmits, 0u);
  EXPECT_GT(a.dedup_discards, 0u);  // Lost acks forced duplicate copies.
  EXPECT_FALSE(a.delivery_failed);
}

TEST(ReliabilityPolicyTest, PerfectTraceNeverRetransmits) {
  const auto payloads = SomePayloads(8);
  const TraceDecisions t = ReplayTrace(payloads, {true}, {true}, 3);
  EXPECT_EQ(t.retransmits, 0u);
  EXPECT_EQ(t.dedup_discards, 0u);
  EXPECT_EQ(t.delivered, payloads.size());
}

TEST(ReliabilityPolicyTest, TotalLossExhaustsRetriesAndLatchesFailure) {
  // Same pinned behavior sim_net_test checks through the endpoint: with
  // max_retries=3 a black-holed frame is attempted exactly 4 times
  // (original + 3 retries), then delivery_failed latches.
  const auto payloads = SomePayloads(1);
  const TraceDecisions t = ReplayTrace(payloads, {false}, {true}, 3);
  EXPECT_TRUE(t.delivery_failed);
  EXPECT_EQ(t.delivered, 0u);
  int transmissions = 0;
  for (const std::string& d : t.log) {
    if (d == "tx" || d == "retx") transmissions += 1;
  }
  EXPECT_EQ(transmissions, 4);
  EXPECT_EQ(t.log.back(), "giveup");
}

TEST(ReliabilityPolicyTest, CorruptBytesRejectedWithoutStateChange) {
  ReliabilityPolicy policy(0.05, 3);
  const std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00};
  Frame decoded;
  ReliabilityPolicy::RxResult rx =
      policy.OnDatagram(0, garbage.data(), garbage.size(), &decoded);
  EXPECT_EQ(rx.verdict, ReliabilityPolicy::RxResult::Verdict::kCorrupt);
  EXPECT_EQ(policy.corrupt_frames(), 1u);

  // A truncated but otherwise valid frame fails the checksum the same way.
  AlertMsg msg;
  msg.user = 7;
  msg.u = 1;
  msg.w = 2;
  msg.epoch = 3;
  const std::vector<uint8_t> frame =
      EncodeFrame(MsgKind::kAlert, 1, Encode(msg));
  rx = policy.OnDatagram(0, frame.data(), frame.size() - 3, &decoded);
  EXPECT_EQ(rx.verdict, ReliabilityPolicy::RxResult::Verdict::kCorrupt);
  EXPECT_EQ(policy.corrupt_frames(), 2u);
  EXPECT_EQ(policy.dedup_discards(), 0u);
}

// ---------------------------------------------------------------------------
// UdpNet: loop-thread plumbing under the same endpoint API. Every test
// below needs real sockets and skips where the host forbids them.

#define SKIP_WITHOUT_SOCKETS()                                    \
  do {                                                            \
    if (!UdpNet::Available()) {                                   \
      GTEST_SKIP() << "loopback UDP sockets unavailable here";    \
    }                                                             \
  } while (0)

struct Received {
  std::vector<std::pair<int, std::vector<uint8_t>>> frames;  // (src, payload).
};

UdpNetConfig QuietConfig() {
  UdpNetConfig config;
  config.shard_loops = 1;
  config.client_loops = 1;
  config.idle_timeout_s = 20.0;
  return config;
}

TEST(UdpNetTest, PingPongDeliversEverythingAndQuiesces) {
  SKIP_WITHOUT_SOCKETS();
  UdpNet net(QuietConfig());
  ASSERT_TRUE(net.ok());
  Received at_b;
  ReliableEndpoint a(&net, 0.05, 16, [](int, Frame&&) {});
  ReliableEndpoint b(&net, 0.05, 16, [&](int src, Frame&& f) {
    at_b.frames.emplace_back(src, std::move(f.payload));
  });
  net.SetIdleFn([&] { return a.all_acked() && b.all_acked(); });

  const auto payloads = SomePayloads(10);
  for (const auto& p : payloads) a.Send(b.id(), MsgKind::kAlert, p);
  net.RunUntilIdle();

  EXPECT_FALSE(net.idle_timeout_hit());
  EXPECT_TRUE(a.all_acked());
  ASSERT_EQ(at_b.frames.size(), payloads.size());
  // Loopback may reorder across retransmits; compare as multisets.
  std::vector<std::vector<uint8_t>> got;
  for (auto& [src, payload] : at_b.frames) {
    EXPECT_EQ(src, a.id());
    got.push_back(payload);
  }
  std::vector<std::vector<uint8_t>> want = payloads;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_GT(net.datagrams_sent(), 0u);
  EXPECT_GT(net.socket_bytes_received(), 0u);
}

TEST(UdpNetTest, ExactlyOnceUnderInjectedLossAndDuplication) {
  SKIP_WITHOUT_SOCKETS();
  UdpNetConfig config = QuietConfig();
  config.drop_rate = 0.25;
  config.dup_rate = 0.25;
  config.seed = 99;
  UdpNet net(config);
  ASSERT_TRUE(net.ok());
  std::map<std::vector<uint8_t>, int> seen;
  ReliableEndpoint a(&net, 0.02, 64, [](int, Frame&&) {});
  ReliableEndpoint b(&net, 0.02, 64,
                     [&](int, Frame&& f) { seen[f.payload] += 1; });
  net.SetIdleFn([&] { return a.all_acked() && b.all_acked(); });

  const auto payloads = SomePayloads(40);
  for (const auto& p : payloads) a.Send(b.id(), MsgKind::kAlert, p);
  net.RunUntilIdle();

  EXPECT_FALSE(net.idle_timeout_hit());
  EXPECT_FALSE(a.delivery_failed());
  ASSERT_EQ(seen.size(), payloads.size());
  for (const auto& p : payloads) {
    auto it = seen.find(p);
    ASSERT_NE(it, seen.end());
    EXPECT_EQ(it->second, 1) << "payload delivered more than once";
  }
  // The injection actually bit, and the policy actually recovered.
  EXPECT_GT(net.frames_dropped(), 0u);
  EXPECT_GT(a.retransmits(), 0u);
}

TEST(UdpNetTest, PollFallbackCarriesTheSameProtocol) {
  SKIP_WITHOUT_SOCKETS();
  UdpNetConfig config = QuietConfig();
  config.force_poll = true;
  UdpNet net(config);
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(net.using_epoll());
  int delivered = 0;
  ReliableEndpoint a(&net, 0.05, 16, [](int, Frame&&) {});
  ReliableEndpoint b(&net, 0.05, 16, [&](int, Frame&&) { delivered += 1; });
  net.SetIdleFn([&] { return a.all_acked() && b.all_acked(); });
  for (const auto& p : SomePayloads(5)) a.Send(b.id(), MsgKind::kAlert, p);
  net.RunUntilIdle();
  EXPECT_FALSE(net.idle_timeout_hit());
  EXPECT_EQ(delivered, 5);
}

#if !defined(_WIN32)
TEST(UdpNetTest, GarbageDatagramsRejectedLikeCorruptSimNetFrames) {
  SKIP_WITHOUT_SOCKETS();
  // The oracle: a SimNet endpoint fed the same three malformed datagrams.
  SimNet sim(1);
  ReliableEndpoint sim_rx(&sim, 0.05, 3, [](int, Frame&&) {});
  const int sim_src = sim.AddEndpoint([](int, const std::vector<uint8_t>&) {});

  // The subject: a UDP endpoint shelled with a raw (never-registered)
  // socket — exactly what an off-protocol peer looks like on a real port.
  UdpNet net(QuietConfig());
  ASSERT_TRUE(net.ok());
  int delivered = 0;
  ReliableEndpoint udp_rx(&net, 0.05, 3,
                          [&](int, Frame&&) { delivered += 1; });
  net.Start();

  AlertMsg msg;
  msg.user = 7;
  msg.u = 1;
  msg.w = 2;
  msg.epoch = 3;
  const std::vector<uint8_t> valid =
      EncodeFrame(MsgKind::kAlert, 1, Encode(msg));
  std::vector<std::vector<uint8_t>> malformed;
  malformed.push_back({0xde, 0xad, 0xbe, 0xef});          // Pure noise.
  malformed.push_back({valid.begin(), valid.end() - 3});  // Truncated.
  std::vector<uint8_t> flipped = valid;
  flipped[flipped.size() / 2] ^= 0x40;                    // Bit rot.
  malformed.push_back(flipped);

  for (const auto& bytes : malformed) {
    sim.Send(sim_src, sim_rx.id(), bytes);
  }
  sim.RunUntilIdle();

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(net.endpoint_port(udp_rx.id()));
  for (const auto& bytes : malformed) {
    ASSERT_EQ(sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
              static_cast<ssize_t>(bytes.size()));
  }
  close(fd);
  // Raw datagrams have no pending-send to drain against; pump by time.
  net.PumpFor(0.2);

  EXPECT_EQ(sim_rx.corrupt_frames(), malformed.size());
  EXPECT_EQ(udp_rx.corrupt_frames(), sim_rx.corrupt_frames());
  EXPECT_EQ(delivered, 0);
}
#endif  // !_WIN32

// ---------------------------------------------------------------------------
// End-to-end: the full detector pipeline over UDP loopback against the
// in-process engine and the SimNet-transported run. Engines own the
// message counts, so SameMessageCounts holding over real sockets is the
// proof that the substrate swap is invisible above the frame interface.

WorkloadConfig SocketTinyConfig() {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = 40;
  config.epochs = 30;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 6000.0;
  config.seed = 1234;
  config.training_users = 12;
  config.training_epochs = 60;
  return config;
}

const Workload& SocketWorkload() {
  static const Workload workload = BuildWorkload(SocketTinyConfig());
  return workload;
}

NetConfig UdpConfig(int shards, double drop_rate = 0.0) {
  NetConfig config;
  config.transport = TransportKind::kUdp;
  config.shards = shards;
  config.udp_drop_rate = drop_rate;
  config.udp_dup_rate = drop_rate > 0.0 ? 0.05 : 0.0;
  config.udp_idle_timeout_s = 30.0;
  return config;
}

void ExpectUdpParity(Method method, const NetConfig& config) {
  const Workload& workload = SocketWorkload();
  const RunResult direct = RunMethod(method, workload);
  const TransportedRunResult udp =
      RunTransportedMethod(method, workload, config);
  EXPECT_TRUE(udp.run.alerts_exact)
      << MethodName(method) << " diverged from ground truth over UDP";
  EXPECT_TRUE(udp.run.stats.SameMessageCounts(direct.stats))
      << MethodName(method) << " message counts changed over UDP";
  EXPECT_EQ(udp.run.rebuild_count, direct.rebuild_count);
  EXPECT_TRUE(udp.net.codec_exact);
  EXPECT_FALSE(udp.net.failed);
  EXPECT_GT(udp.net.bytes_up, 0u);
  EXPECT_GT(udp.net.bytes_down, 0u);
}

TEST(UdpTransportTest, SingleShardParityWithInProcessEngine) {
  SKIP_WITHOUT_SOCKETS();
  ExpectUdpParity(Method::kNaive, UdpConfig(1));
}

TEST(UdpTransportTest, ShardedStripeParityWithInProcessEngine) {
  SKIP_WITHOUT_SOCKETS();
  ExpectUdpParity(Method::kStripeKf, UdpConfig(2));
}

TEST(UdpTransportTest, ParitySurvivesInjectedDatagramLoss) {
  SKIP_WITHOUT_SOCKETS();
  ExpectUdpParity(Method::kCmd, UdpConfig(2, /*drop_rate=*/0.05));
}

TEST(UdpTransportTest, MatchesSimNetMessageCountsExactly) {
  SKIP_WITHOUT_SOCKETS();
  // SimNet as oracle: the same (method, workload) over both substrates
  // yields the same engine-visible protocol outcome.
  const Workload& workload = SocketWorkload();
  NetConfig sim_config;
  sim_config.shards = 2;
  const TransportedRunResult sim =
      RunTransportedMethod(Method::kStripeKf, workload, sim_config);
  const TransportedRunResult udp =
      RunTransportedMethod(Method::kStripeKf, workload, UdpConfig(2));
  EXPECT_TRUE(sim.run.alerts_exact);
  EXPECT_TRUE(udp.run.alerts_exact);
  EXPECT_TRUE(udp.run.stats.SameMessageCounts(sim.run.stats));
  EXPECT_EQ(udp.run.rebuild_count, sim.run.rebuild_count);
  EXPECT_EQ(udp.run.alert_count, sim.run.alert_count);
}

}  // namespace
}  // namespace net
}  // namespace proxdet
