#include "net/reliability.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {
namespace net {

namespace {

/// Reliability totals. Deterministic on the SimNet path (single-threaded,
/// pure function of seed + call sequence); on the UDP path the endpoints
/// still only run on the driver thread, so the handles need no extra
/// synchronization beyond the counters' own atomics.
struct ReliabilityMetrics {
  obs::Counter& retransmits;
  obs::Counter& dedup_discards;
  obs::Counter& corrupt_frames;

  static const ReliabilityMetrics& Get() {
    static const ReliabilityMetrics m{
        obs::Metrics().GetCounter("net.retransmits"),
        obs::Metrics().GetCounter("net.dedup_discards"),
        obs::Metrics().GetCounter("net.corrupt_frames"),
    };
    return m;
  }
};

/// Round-trip latency of acked sends over a wall-clock backend: first
/// transmission to first ack, retransmission delays included (that is the
/// latency the protocol actually experienced).
obs::QuantileMetric& RttSketch() {
  static obs::QuantileMetric& q =
      obs::Metrics().GetQuantile("net.socket.rtt_s", obs::Kind::kWallClock);
  return q;
}

/// Per-message-kind wire accounting: one frames/bytes counter pair per
/// MsgKind, counted once per logical transmission (first attempts and
/// retransmissions alike, matching bytes_sent()).
struct KindMetrics {
  obs::Counter& frames;
  obs::Counter& bytes;
};

const KindMetrics& MetricsForKind(MsgKind kind) {
  static const KindMetrics by_kind[] = {
      {obs::Metrics().GetCounter("net.frames.location_report"),
       obs::Metrics().GetCounter("net.bytes.location_report")},
      {obs::Metrics().GetCounter("net.frames.probe"),
       obs::Metrics().GetCounter("net.bytes.probe")},
      {obs::Metrics().GetCounter("net.frames.alert"),
       obs::Metrics().GetCounter("net.bytes.alert")},
      {obs::Metrics().GetCounter("net.frames.region_install"),
       obs::Metrics().GetCounter("net.bytes.region_install")},
      {obs::Metrics().GetCounter("net.frames.match_install"),
       obs::Metrics().GetCounter("net.bytes.match_install")},
      {obs::Metrics().GetCounter("net.frames.ack"),
       obs::Metrics().GetCounter("net.bytes.ack")},
      {obs::Metrics().GetCounter("net.frames.batch"),
       obs::Metrics().GetCounter("net.bytes.batch")},
      {obs::Metrics().GetCounter("net.frames.shard_forward"),
       obs::Metrics().GetCounter("net.bytes.shard_forward")},
  };
  const size_t idx =
      std::min<size_t>(static_cast<size_t>(kind) - 1, std::size(by_kind) - 1);
  return by_kind[idx];
}

}  // namespace

// ---------------------------------------------------------------------------
// PeerTable

namespace {

/// Fibonacci hashing of a peer id onto a power-of-two table.
size_t SlotOf(int peer, size_t slots) {
  const uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(peer)) *
                     0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h >> 32) & (slots - 1);
}

}  // namespace

PeerTable::Peer* PeerTable::Find(int peer) {
  if (peer == last_.peer) return &peers_[last_.index];
  if (index_.empty()) return nullptr;
  const size_t mask = index_.size() - 1;
  for (size_t i = SlotOf(peer, index_.size());; i = (i + 1) & mask) {
    if (index_[i].peer == peer) {
      last_ = index_[i];
      return &peers_[last_.index];
    }
    if (index_[i].peer == kEmptySlot) return nullptr;
  }
}

PeerTable::Peer& PeerTable::Get(int peer) {
  if (Peer* found = Find(peer)) return *found;
  if (2 * (peers_.size() + 1) > index_.size()) {
    // Double the table (load stays <= 1/2) and re-place every peer.
    std::vector<IndexSlot> old = std::move(index_);
    index_.assign(std::max<size_t>(4, 2 * old.size()), {kEmptySlot, 0});
    for (const IndexSlot& slot : old) {
      if (slot.peer == kEmptySlot) continue;
      size_t i = SlotOf(slot.peer, index_.size());
      while (index_[i].peer != kEmptySlot) i = (i + 1) & (index_.size() - 1);
      index_[i] = slot;
    }
  }
  size_t i = SlotOf(peer, index_.size());
  while (index_[i].peer != kEmptySlot) i = (i + 1) & (index_.size() - 1);
  index_[i] = {peer, static_cast<uint32_t>(peers_.size())};
  peers_.emplace_back();
  return peers_.back();
}

uint64_t PeerTable::AddPending(int peer, uint32_t handle) {
  Peer& p = Get(peer);
  const uint64_t seq = ++p.next_seq;
  if (seq - p.pending_base >= p.ring.size()) {
    // The live span [pending_base, seq] outgrew the ring: double it and
    // re-place the still-pending entries under the wider mask.
    size_t size = std::max<size_t>(2, p.ring.size());
    while (seq - p.pending_base >= size) size *= 2;
    std::vector<uint32_t> ring(size, 0);
    for (uint64_t s = p.pending_base; s < seq && !p.ring.empty(); ++s) {
      ring[s & (size - 1)] = p.ring[s & (p.ring.size() - 1)];
    }
    p.ring = std::move(ring);
  }
  p.ring[seq & (p.ring.size() - 1)] = handle;
  pending_count_ += 1;
  return seq;
}

const uint32_t* PeerTable::RingSlot(const Peer* p, uint64_t seq) {
  if (p == nullptr || seq < p->pending_base || seq > p->next_seq ||
      p->ring.empty()) {
    return nullptr;
  }
  return &p->ring[seq & (p->ring.size() - 1)];
}

uint32_t PeerTable::Pending(int peer, uint64_t seq) const {
  const uint32_t* slot = RingSlot(Find(peer), seq);
  return slot != nullptr ? *slot : 0;
}

uint32_t PeerTable::Retire(int peer, uint64_t seq) {
  Peer* p = Find(peer);
  const uint32_t* slot = RingSlot(p, seq);
  if (slot == nullptr || *slot == 0) return 0;
  const uint32_t handle = *slot;
  const size_t mask = p->ring.size() - 1;
  p->ring[seq & mask] = 0;
  pending_count_ -= 1;
  // Slide the base over the retired prefix so the span stays tight.
  while (p->pending_base <= p->next_seq &&
         p->ring[p->pending_base & mask] == 0) {
    p->pending_base += 1;
  }
  return handle;
}

bool PeerTable::MarkSeen(int peer, uint64_t seq) {
  Peer& p = Get(peer);
  if (seq <= p.seen_contiguous) return false;
  const uint64_t offset = seq - p.seen_contiguous - 1;
  if (offset >= 64) return far_seen_.insert({peer, seq}).second;
  const uint64_t bit = uint64_t{1} << offset;
  if ((p.seen_mask & bit) != 0) return false;
  p.seen_mask |= bit;
  if (offset == 0) AdvanceSeen(peer, &p);
  return true;
}

void PeerTable::AdvanceSeen(int peer, Peer* p) {
  while ((p->seen_mask & 1) != 0) {
    const int run = std::countr_one(p->seen_mask);
    p->seen_mask = run == 64 ? 0 : p->seen_mask >> run;
    p->seen_contiguous += static_cast<uint64_t>(run);
    if (far_seen_.empty()) continue;
    // Fallback seqs now within reach of the mask move into it (they all
    // lie beyond the old window, so strictly ahead of the new frontier).
    auto it = far_seen_.lower_bound({peer, 0});
    while (it != far_seen_.end() && it->first == peer &&
           it->second - p->seen_contiguous <= 64) {
      p->seen_mask |= uint64_t{1} << (it->second - p->seen_contiguous - 1);
      it = far_seen_.erase(it);
    }
  }
}

// ---------------------------------------------------------------------------
// ReliabilityPolicy

ReliabilityPolicy::ReliabilityPolicy(double rto_s, int max_retries,
                                     FramePool* pool)
    : rto_s_(rto_s),
      max_retries_(max_retries),
      own_pool_(pool == nullptr ? std::make_unique<FramePool>() : nullptr),
      pool_(pool != nullptr ? pool : own_pool_.get()) {}

uint64_t ReliabilityPolicy::Enqueue(int dst, MsgKind kind,
                                    const std::vector<uint8_t>& payload,
                                    const std::vector<TraceEntry>& trace) {
  const uint32_t handle = pool_->Acquire();
  const uint64_t seq = peers_.AddPending(dst, handle);
  EncodeFrameInto(kind, seq, payload.data(), payload.size(), trace,
                  &(*pool_)[handle]);
  return seq;
}

ReliabilityPolicy::TransmitPlan ReliabilityPolicy::PlanTransmit(int dst,
                                                                uint64_t seq,
                                                                int attempt) {
  TransmitPlan plan;
  const uint32_t handle = peers_.Pending(dst, seq);
  if (handle == 0) {
    plan.verdict = TransmitPlan::Verdict::kSkip;  // Acked meanwhile.
    return plan;
  }
  if (attempt > max_retries_) {
    delivery_failed_ = true;
    pool_->Release(peers_.Retire(dst, seq));
    plan.verdict = TransmitPlan::Verdict::kGiveUp;
    return plan;
  }
  if (attempt > 0) retransmits_ += 1;
  plan.verdict = TransmitPlan::Verdict::kSend;
  plan.frame = &(*pool_)[handle];
  plan.is_retransmit = attempt > 0;
  plan.next_delay_s = RetryDelay(attempt);
  return plan;
}

ReliabilityPolicy::RxResult ReliabilityPolicy::OnDatagram(int src,
                                                          const uint8_t* data,
                                                          size_t size,
                                                          Frame* frame) {
  RxResult result;
  if (!DecodeFrame(data, size, frame)) {
    corrupt_frames_ += 1;
    result.verdict = RxResult::Verdict::kCorrupt;
    return result;
  }
  if (frame->kind == MsgKind::kAck) {
    const uint32_t handle = peers_.Retire(src, frame->seq);
    if (handle != 0) pool_->Release(handle);
    result.acked_pending = handle != 0;
    result.verdict = RxResult::Verdict::kAck;
    return result;
  }
  if (!peers_.MarkSeen(src, frame->seq)) {
    dedup_discards_ += 1;
    result.verdict = RxResult::Verdict::kDuplicate;
    return result;
  }
  result.verdict = RxResult::Verdict::kDeliver;
  return result;
}

// ---------------------------------------------------------------------------

ReliableEndpoint::ReliableEndpoint(NetBackend* net, double rto_s,
                                   int max_retries, FrameHandler handler,
                                   int group)
    : net_(net),
      policy_(rto_s, max_retries, &net->frame_pool()),
      handler_(std::move(handler)) {
  id_ = net_->AddEndpoint(
      [this](int src, const std::vector<uint8_t>& bytes) { OnWire(src, bytes); },
      group);
}

void ReliableEndpoint::CountTx(const uint8_t* frame, size_t size) {
  bytes_sent_ += size;
  frames_sent_ += 1;
  for (obs::Counter* counter : wire_bytes_counters_) counter->Inc(size);
  // Frame layout puts the MsgKind at byte 3 (after magic + version).
  const KindMetrics& km = MetricsForKind(static_cast<MsgKind>(frame[3]));
  km.frames.Inc();
  km.bytes.Inc(size);
}

void ReliableEndpoint::RecordFlight(obs::FlightEventKind kind, int peer,
                                    uint64_t seq, uint8_t msg_kind) {
  obs::FlightRecorder& recorder = obs::Flight();
  if (!recorder.enabled()) return;
  obs::FlightEvent event;
  event.kind = kind;
  event.shard = flight_shard_;
  event.src = id_;
  event.dst = peer;
  event.seq = seq;
  event.msg_kind = msg_kind;
  event.time_s = net_->now();
  recorder.Record(event);
}

void ReliableEndpoint::Send(int dst, MsgKind kind,
                            const std::vector<uint8_t>& payload) {
  Send(dst, kind, payload, {});
}

void ReliableEndpoint::Send(int dst, MsgKind kind,
                            const std::vector<uint8_t>& payload,
                            const std::vector<TraceEntry>& trace) {
  uint64_t seq;
  {
    obs::TraceScope span("wire_encode", "net");
    seq = policy_.Enqueue(dst, kind, payload, trace);
  }
  Transmit(dst, seq, 0);
}

void ReliableEndpoint::Transmit(int dst, uint64_t seq, int attempt) {
  const ReliabilityPolicy::TransmitPlan plan =
      policy_.PlanTransmit(dst, seq, attempt);
  using Verdict = ReliabilityPolicy::TransmitPlan::Verdict;
  if (plan.verdict == Verdict::kSkip) return;
  if (plan.verdict == Verdict::kGiveUp) {
    tx_time_.erase({dst, seq});
    RecordFlight(obs::FlightEventKind::kGiveUp, dst, seq, 0);
    // The give-up latches delivery_failed_ and the run will FATAL; leave a
    // diagnosable artifact behind first (no-op unless a dump path is set).
    obs::Flight().DumpOnFailure("reliability give-up: dst " +
                                std::to_string(dst) + " seq " +
                                std::to_string(seq));
    return;
  }
  const std::vector<uint8_t>& frame = *plan.frame;
  CountTx(frame.data(), frame.size());
  RecordFlight(plan.is_retransmit ? obs::FlightEventKind::kRetransmit
                                  : obs::FlightEventKind::kSend,
               dst, seq, frame[3]);
  if (plan.is_retransmit) {
    ReliabilityMetrics::Get().retransmits.Inc();
    obs::TraceScope span("retransmit", "net");
    net_->Send(id_, dst, frame);
  } else {
    if (net_->wall_clock()) tx_time_[{dst, seq}] = net_->now();
    net_->Send(id_, dst, frame);
  }
  // The timer dies with the pending entry when the ack lands (RetryLive).
  RetryTimer timer;
  timer.target = this;
  timer.dst = dst;
  timer.attempt = attempt + 1;
  timer.seq = seq;
  net_->ScheduleRetry(plan.next_delay_s, timer);
}

void ReliableEndpoint::OnWire(int src, const std::vector<uint8_t>& bytes) {
  // One decode scratch per thread serves every endpoint: handlers run to
  // completion before the next datagram is delivered (the backend contract
  // forbids driving the backend from a handler), so its buffers are reused
  // frame after frame instead of reallocated.
  thread_local Frame frame;
  ReliabilityPolicy::RxResult rx;
  {
    obs::TraceScope span("wire_decode", "net");
    rx = policy_.OnDatagram(src, bytes.data(), bytes.size(), &frame);
  }
  using Verdict = ReliabilityPolicy::RxResult::Verdict;
  switch (rx.verdict) {
    case Verdict::kCorrupt:
      // SimNet never corrupts, but a real backend can (and the socket tests
      // inject garbage); the sender's retry makes the loss equivalent to a
      // dropped frame.
      ReliabilityMetrics::Get().corrupt_frames.Inc();
      RecordFlight(obs::FlightEventKind::kCorrupt, src, 0, 0);
      return;
    case Verdict::kAck:
      if (rx.acked_pending) {
        RecordFlight(obs::FlightEventKind::kAck, src, frame.seq, 0);
        if (net_->wall_clock()) {
          const auto it = tx_time_.find({src, frame.seq});
          if (it != tx_time_.end()) {
            RttSketch().Record(net_->now() - it->second);
            tx_time_.erase(it);
          }
        }
      }
      return;
    case Verdict::kDuplicate:
    case Verdict::kDeliver: {
      // Ack every copy, even duplicates: the sender may be retrying because
      // the first ack was lost.
      uint8_t ack[kMaxAckFrameBytes];
      const size_t ack_size = EncodeAckFrame(frame.seq, ack);
      CountTx(ack, ack_size);
      net_->Send(id_, src, ack, ack_size);
      if (rx.verdict == Verdict::kDuplicate) {
        ReliabilityMetrics::Get().dedup_discards.Inc();
        RecordFlight(obs::FlightEventKind::kDedup, src, frame.seq,
                     static_cast<uint8_t>(frame.kind));
        return;
      }
      RecordFlight(obs::FlightEventKind::kDeliver, src, frame.seq,
                   static_cast<uint8_t>(frame.kind));
      handler_(src, std::move(frame));
      return;
    }
  }
}

}  // namespace net
}  // namespace proxdet
