// Deterministic network simulator contract: same seed means byte-identical
// delivery schedules; the reliability layer turns arbitrary loss and
// duplication into exactly-once delivery (or an explicit failure flag).

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/sim_net.h"
#include "net/wire.h"

namespace proxdet {
namespace net {
namespace {

// Records (src, payload-first-byte) for every raw delivery.
struct Sink {
  std::vector<std::pair<int, uint8_t>> seen;
  SimNet::Handler handler() {
    return [this](int src, const std::vector<uint8_t>& frame) {
      seen.push_back({src, frame.empty() ? 0 : frame[0]});
    };
  }
};

TEST(SimNetTest, PerfectLinkDeliversInOrderAtLatency) {
  SimNet net(1);
  Sink sink;
  const int a = net.AddEndpoint([](int, const std::vector<uint8_t>&) {});
  const int b = net.AddEndpoint(sink.handler());
  net.SetLinkModelFn([](int, int) {
    LinkModel m;
    m.latency_s = 0.25;
    return m;
  });
  net.Send(a, b, {1});
  net.Send(a, b, {2});
  net.Send(a, b, {3});
  net.RunUntilIdle();
  ASSERT_EQ(sink.seen.size(), 3u);
  // Equal timestamps: insertion order is the deterministic tie-break.
  EXPECT_EQ(sink.seen[0].second, 1);
  EXPECT_EQ(sink.seen[1].second, 2);
  EXPECT_EQ(sink.seen[2].second, 3);
  EXPECT_DOUBLE_EQ(net.now(), 0.25);
  EXPECT_EQ(net.frames_offered(), 3u);
  EXPECT_EQ(net.frames_dropped(), 0u);
}

TEST(SimNetTest, TotalLossDeliversNothing) {
  SimNet net(2);
  Sink sink;
  const int a = net.AddEndpoint([](int, const std::vector<uint8_t>&) {});
  const int b = net.AddEndpoint(sink.handler());
  net.SetLinkModelFn([](int, int) {
    LinkModel m;
    m.drop_rate = 1.0;
    return m;
  });
  for (int i = 0; i < 20; ++i) net.Send(a, b, {static_cast<uint8_t>(i)});
  net.RunUntilIdle();
  EXPECT_TRUE(sink.seen.empty());
  EXPECT_EQ(net.frames_dropped(), net.frames_offered());
}

TEST(SimNetTest, SameSeedSameScheduleDifferentSeedDifferent) {
  const auto run = [](uint64_t seed) {
    SimNet net(seed);
    Sink sink;
    const int a = net.AddEndpoint([](int, const std::vector<uint8_t>&) {});
    const int b = net.AddEndpoint(sink.handler());
    net.SetLinkModelFn([](int, int) {
      LinkModel m;
      m.latency_s = 0.01;
      m.jitter_s = 0.05;
      m.drop_rate = 0.3;
      m.dup_rate = 0.2;
      return m;
    });
    for (int i = 0; i < 200; ++i) net.Send(a, b, {static_cast<uint8_t>(i)});
    net.RunUntilIdle();
    return std::make_pair(net.schedule_hash(), net.frames_offered());
  };
  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  const auto other = run(100);
  EXPECT_NE(first.first, other.first);
}

// ---------------------------------------------------------------------------
// Reliability layer.

struct ReliablePair {
  SimNet net;
  std::vector<uint64_t> delivered_seqs;  // At endpoint b.
  ReliableEndpoint a;
  ReliableEndpoint b;

  ReliablePair(uint64_t seed, const LinkModel& model, int max_retries = 64)
      : net(seed),
        a(&net, 0.05, max_retries, [](int, Frame&&) {}),
        b(&net, 0.05, max_retries, [this](int, Frame&& frame) {
          delivered_seqs.push_back(frame.seq);
        }) {
    net.SetLinkModelFn([model](int, int) { return model; });
  }
};

TEST(SimNetTest, ReliableDeliversExactlyOnceUnderLoss) {
  LinkModel lossy;
  lossy.latency_s = 0.01;
  lossy.jitter_s = 0.02;
  lossy.drop_rate = 0.3;
  lossy.dup_rate = 0.1;
  ReliablePair pair(5, lossy);
  const int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) {
    pair.a.Send(pair.b.id(), MsgKind::kProbe, Encode(ProbeMsg{1, i}));
  }
  pair.net.RunUntilIdle();
  // Exactly once, despite drops and duplicates on the wire.
  ASSERT_EQ(pair.delivered_seqs.size(), static_cast<size_t>(kMessages));
  std::vector<uint64_t> sorted = pair.delivered_seqs;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(sorted[i], static_cast<uint64_t>(i + 1));
  }
  EXPECT_TRUE(pair.a.all_acked());
  EXPECT_FALSE(pair.a.delivery_failed());
  EXPECT_GT(pair.a.retransmits(), 0u);          // Loss forced retries...
  EXPECT_GT(pair.b.dedup_discards(), 0u);       // ...which the window ate.
  EXPECT_GT(pair.net.frames_dropped(), 0u);
  EXPECT_GT(pair.net.frames_duplicated(), 0u);
}

TEST(SimNetTest, ReliableGivesUpAtTotalLoss) {
  LinkModel dead;
  dead.drop_rate = 1.0;
  ReliablePair pair(6, dead, /*max_retries=*/3);
  pair.a.Send(pair.b.id(), MsgKind::kProbe, Encode(ProbeMsg{1, 0}));
  pair.net.RunUntilIdle();
  EXPECT_TRUE(pair.delivered_seqs.empty());
  EXPECT_TRUE(pair.a.delivery_failed());
  EXPECT_TRUE(pair.a.all_acked());  // Abandoned, nothing pending.
  // 1 original + 3 retries, all offered to the wire and all dropped.
  EXPECT_EQ(pair.net.frames_offered(), 4u);
}

TEST(SimNetTest, GarbageOnTheWireIsCountedAndIgnored) {
  LinkModel perfect;
  ReliablePair pair(7, perfect);
  pair.net.Send(pair.a.id(), pair.b.id(), {0xde, 0xad, 0xbe, 0xef});
  pair.net.RunUntilIdle();
  EXPECT_TRUE(pair.delivered_seqs.empty());
  EXPECT_EQ(pair.b.corrupt_frames(), 1u);
  // The real stream is unaffected.
  pair.a.Send(pair.b.id(), MsgKind::kProbe, Encode(ProbeMsg{1, 0}));
  pair.net.RunUntilIdle();
  EXPECT_EQ(pair.delivered_seqs.size(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace proxdet
