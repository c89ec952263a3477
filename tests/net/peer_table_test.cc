// Property tests for the reliability layer's dense per-peer state. The
// PeerTable (flat peer index, pending ring, frontier + 64-bit seen mask
// with a deep-reorder fallback) and the ReliabilityPolicy built on it are
// driven with randomized traces over many peers and compared, step by
// step, against a reference model made of ordinary ordered containers —
// the representation the dense state replaced.

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/reliability.h"
#include "net/wire.h"

namespace proxdet {
namespace net {
namespace {

/// Per-peer arrival stream with loss, duplicates and reorders up to
/// `depth` positions — well beyond the 64-seq mask when depth > 64.
std::vector<uint64_t> ArrivalStream(Rng* rng, uint64_t count, uint64_t depth,
                                    double loss, double dup) {
  std::vector<uint64_t> stream;
  for (uint64_t seq = 1; seq <= count; ++seq) {
    if (rng->NextBool(loss)) continue;
    stream.push_back(seq);
    if (rng->NextBool(dup)) stream.push_back(seq);
  }
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    const size_t reach = std::min<size_t>(depth, stream.size() - 1 - i);
    std::swap(stream[i], stream[i + rng->NextIndex(reach + 1)]);
  }
  return stream;
}

TEST(PeerTablePropertyTest, SeenWindowMatchesOrderedSetModel) {
  for (const uint64_t depth : {3u, 64u, 65u, 200u, 1000u}) {
    Rng rng(0x5eed + depth);
    constexpr int kPeers = 97;
    PeerTable table;
    std::map<int, std::set<uint64_t>> model;
    // Interleave the peers' streams, each peer id spread over a wide range
    // so the flat index sees collisions and growth.
    std::vector<std::pair<int, uint64_t>> arrivals;
    for (int p = 0; p < kPeers; ++p) {
      const int peer = p * 7919 + 3;
      for (const uint64_t seq : ArrivalStream(&rng, 300, depth, 0.05, 0.1)) {
        arrivals.emplace_back(peer, seq);
      }
    }
    for (size_t i = 0; i + 1 < arrivals.size(); ++i) {
      std::swap(arrivals[i],
                arrivals[i + rng.NextIndex(arrivals.size() - i)]);
    }
    size_t fresh = 0;
    for (const auto& [peer, seq] : arrivals) {
      const bool want = model[peer].insert(seq).second;
      ASSERT_EQ(table.MarkSeen(peer, seq), want)
          << "peer " << peer << " seq " << seq << " depth " << depth;
      fresh += want ? 1 : 0;
    }
    // Replaying every arrival again finds nothing new.
    for (const auto& [peer, seq] : arrivals) {
      ASSERT_FALSE(table.MarkSeen(peer, seq));
    }
    // Seq 0 is never a valid data seq.
    EXPECT_FALSE(table.MarkSeen(3, 0));
    EXPECT_GT(fresh, 0u);
  }
}

TEST(PeerTablePropertyTest, LossStallsFrontierIntoExactFallback) {
  // One lost seq pins the frontier; everything 64+ beyond it must still be
  // deduplicated exactly through the fallback, then drain into the mask
  // the moment the gap fills.
  PeerTable table;
  for (uint64_t seq = 2; seq <= 500; ++seq) ASSERT_TRUE(table.MarkSeen(9, seq));
  EXPECT_GT(table.far_seen_count(), 0u);
  for (uint64_t seq = 2; seq <= 500; ++seq) ASSERT_FALSE(table.MarkSeen(9, seq));
  ASSERT_TRUE(table.MarkSeen(9, 1));
  EXPECT_EQ(table.far_seen_count(), 0u);
  for (uint64_t seq = 1; seq <= 500; ++seq) ASSERT_FALSE(table.MarkSeen(9, seq));
  EXPECT_TRUE(table.MarkSeen(9, 501));
}

TEST(PeerTablePropertyTest, PendingRingMatchesOrderedMapModel) {
  Rng rng(77);
  constexpr int kPeers = 64;
  PeerTable table;
  std::map<int, uint64_t> next_seq;
  std::map<std::pair<int, uint64_t>, uint32_t> pending;
  uint32_t next_handle = 1;
  for (int step = 0; step < 60000; ++step) {
    const int peer = static_cast<int>(rng.NextIndex(kPeers)) * 31 + 1;
    const double op = rng.NextDouble();
    if (op < 0.45) {
      // Send: the next dense seq goes pending.
      const uint64_t seq = table.AddPending(peer, next_handle);
      ASSERT_EQ(seq, ++next_seq[peer]);
      pending[{peer, seq}] = next_handle;
      next_handle += 1;
    } else if (op < 0.85) {
      // Ack any seq of this peer, in any order: live, stale, duplicate or
      // never sent.
      const uint64_t top = next_seq[peer] + 2;
      const uint64_t seq = rng.NextIndex(top + 1);
      const auto it = pending.find({peer, seq});
      const uint32_t want = it == pending.end() ? 0 : it->second;
      if (it != pending.end()) pending.erase(it);
      ASSERT_EQ(table.Retire(peer, seq), want) << "peer " << peer << " seq "
                                               << seq;
    } else {
      const uint64_t seq = rng.NextIndex(next_seq[peer] + 3);
      const auto it = pending.find({peer, seq});
      ASSERT_EQ(table.Pending(peer, seq), it == pending.end() ? 0 : it->second);
    }
    ASSERT_EQ(table.pending_count(), pending.size());
  }
  // Drain in reverse seq order (the ring's worst case for its base slide).
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    ASSERT_EQ(table.Retire(it->first.first, it->first.second), it->second);
  }
  EXPECT_EQ(table.pending_count(), 0u);
}

/// The policy's decisions against a reference built from ordered
/// containers: per (dst, seq) the pending frame bytes, per src the set of
/// delivered seqs, and the latched failure.
TEST(ReliabilityPolicyPropertyTest, DecisionsMatchReferenceModel) {
  Rng rng(4242);
  constexpr int kMaxRetries = 3;
  constexpr int kPeers = 40;
  ReliabilityPolicy sender(0.05, kMaxRetries);
  ReliabilityPolicy receiver(0.05, kMaxRetries);
  std::map<std::pair<int, uint64_t>, std::vector<uint8_t>> pending;
  std::map<int, uint64_t> last_seq;
  std::map<int, std::set<uint64_t>> delivered;
  std::vector<std::vector<uint8_t>> wire;  // Data copies "in flight".
  std::vector<int> wire_dst;
  bool failed = false;
  uint64_t retransmits = 0;
  uint64_t dedup = 0;
  Frame frame;
  for (int step = 0; step < 20000; ++step) {
    const int dst = static_cast<int>(rng.NextIndex(kPeers));
    const double op = rng.NextDouble();
    if (op < 0.3) {
      std::vector<uint8_t> payload(rng.NextIndex(40));
      for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.NextU64());
      const uint64_t seq = sender.Enqueue(dst, MsgKind::kAlert, payload);
      ASSERT_EQ(seq, ++last_seq[dst]);
      pending[{dst, seq}] = EncodeFrame(MsgKind::kAlert, seq, payload);
    } else if (op < 0.6) {
      // A retry timer fires for some (dst, seq, attempt), possibly stale.
      const uint64_t seq = rng.NextIndex(last_seq[dst] + 2);
      const int attempt = static_cast<int>(rng.NextIndex(kMaxRetries + 2));
      const ReliabilityPolicy::TransmitPlan plan =
          sender.PlanTransmit(dst, seq, attempt);
      using Verdict = ReliabilityPolicy::TransmitPlan::Verdict;
      const auto it = pending.find({dst, seq});
      if (it == pending.end()) {
        ASSERT_EQ(plan.verdict, Verdict::kSkip);
      } else if (attempt > kMaxRetries) {
        ASSERT_EQ(plan.verdict, Verdict::kGiveUp);
        pending.erase(it);
        failed = true;
      } else {
        ASSERT_EQ(plan.verdict, Verdict::kSend);
        ASSERT_EQ(*plan.frame, it->second);
        ASSERT_EQ(plan.is_retransmit, attempt > 0);
        retransmits += attempt > 0 ? 1 : 0;
        wire.push_back(*plan.frame);
        wire_dst.push_back(dst);
        if (rng.NextBool(0.2)) {  // Duplicated on the wire.
          wire.push_back(*plan.frame);
          wire_dst.push_back(dst);
        }
      }
    } else if (op < 0.85 && !wire.empty()) {
      // Deliver a random in-flight copy (reordered), then maybe its ack.
      const size_t i = rng.NextIndex(wire.size());
      const std::vector<uint8_t> bytes = wire[i];
      const int to = wire_dst[i];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(i));
      wire_dst.erase(wire_dst.begin() + static_cast<std::ptrdiff_t>(i));
      const ReliabilityPolicy::RxResult rx =
          receiver.OnDatagram(to, bytes.data(), bytes.size(), &frame);
      const bool fresh = delivered[to].insert(frame.seq).second;
      using Verdict = ReliabilityPolicy::RxResult::Verdict;
      ASSERT_EQ(rx.verdict, fresh ? Verdict::kDeliver : Verdict::kDuplicate);
      dedup += fresh ? 0 : 1;
      if (rng.NextBool(0.7)) {
        const std::vector<uint8_t> ack =
            EncodeFrame(MsgKind::kAck, frame.seq, {});
        Frame ack_frame;
        const ReliabilityPolicy::RxResult sx =
            sender.OnDatagram(to, ack.data(), ack.size(), &ack_frame);
        ASSERT_EQ(sx.verdict, Verdict::kAck);
        ASSERT_EQ(sx.acked_pending, pending.erase({to, frame.seq}) > 0);
      }
    } else {
      // A stray ack for any seq (out of order, stale or never sent).
      const uint64_t seq = rng.NextIndex(last_seq[dst] + 3);
      const std::vector<uint8_t> ack = EncodeFrame(MsgKind::kAck, seq, {});
      const ReliabilityPolicy::RxResult sx =
          sender.OnDatagram(dst, ack.data(), ack.size(), &frame);
      ASSERT_EQ(sx.acked_pending, pending.erase({dst, seq}) > 0);
    }
    ASSERT_EQ(sender.all_acked(), pending.empty());
    ASSERT_EQ(sender.delivery_failed(), failed);
  }
  EXPECT_TRUE(failed) << "the trace never reached the give-up path";
  EXPECT_EQ(sender.retransmits(), retransmits);
  EXPECT_EQ(receiver.dedup_discards(), dedup);
  EXPECT_GT(dedup, 0u);
  EXPECT_EQ(receiver.corrupt_frames(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace proxdet
