#ifndef PROXDET_NET_RELIABILITY_H_
#define PROXDET_NET_RELIABILITY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "net/backend.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace proxdet {
namespace net {

/// Dense per-peer reliability state, found through a flat open-addressing
/// index (peer id -> slot), never a tree:
///  - send side: the next sequence number and the pending sends, kept in a
///    ring indexed by sequence number — sound because sequence numbers are
///    dense per peer, so the pending ones always lie in
///    [pending_base, next_seq] and a power-of-two ring over that span holds
///    each at seq & mask;
///  - receive side: the seen-window, a contiguous frontier ("every seq up to
///    here delivered") plus a 64-bit mask for the seqs just ahead of it.
///    A seq more than 64 beyond the frontier — a reorder deeper than the
///    mask — goes to an exact ordered fallback set, shared by all peers and
///    drained into the mask as the frontier reaches it.
/// Pending sends carry an opaque nonzero handle (the frame-pool buffer
/// holding the encoded frame).
class PeerTable {
 public:
  /// Assigns the next sequence number for `peer` (1, 2, 3, ...) and
  /// records it as pending under `handle` (nonzero); returns the seq.
  uint64_t AddPending(int peer, uint32_t handle);
  /// Handle of the pending send (peer, seq), or 0 when it is not pending.
  uint32_t Pending(int peer, uint64_t seq) const;
  /// Retires the pending send (peer, seq); returns its handle, or 0 when it
  /// was not pending (a stale or duplicate ack).
  uint32_t Retire(int peer, uint64_t seq);
  size_t pending_count() const { return pending_count_; }

  /// Marks data seq from `peer` delivered; false when it was already seen.
  bool MarkSeen(int peer, uint64_t seq);

  /// Seqs currently parked in the deep-reorder fallback (tests).
  size_t far_seen_count() const { return far_seen_.size(); }

 private:
  struct Peer {
    uint64_t next_seq = 0;         // Last assigned; 0 = none yet.
    uint64_t pending_base = 1;     // No seq below this is pending.
    std::vector<uint32_t> ring;    // Handle per seq (0 = retired).
    uint64_t seen_contiguous = 0;  // Every seq <= this was delivered.
    uint64_t seen_mask = 0;        // Bit i: seen_contiguous + 1 + i seen.
  };
  struct IndexSlot {
    int peer;
    uint32_t index;  // Into peers_.
  };
  static constexpr int kEmptySlot = std::numeric_limits<int>::min();

  Peer* Find(int peer);
  const Peer* Find(int peer) const {
    return const_cast<PeerTable*>(this)->Find(peer);
  }
  Peer& Get(int peer);
  /// Ring slot of `seq` in `p`, or nullptr when `p` is null or `seq` lies
  /// outside its live span [pending_base, next_seq].
  static const uint32_t* RingSlot(const Peer* p, uint64_t seq);
  /// Advances the seen frontier over a set low bit, pulling fallback seqs
  /// into the mask as they come within 64 of it.
  void AdvanceSeen(int peer, Peer* p);

  std::vector<Peer> peers_;
  std::vector<IndexSlot> index_;  // Power-of-two size, load <= 1/2.
  /// The last peer found: one round trip looks the same peer up several
  /// times in a row (enqueue, transmit, ack, timer).
  mutable IndexSlot last_{kEmptySlot, 0};
  std::set<std::pair<int, uint64_t>> far_seen_;
  size_t pending_count_ = 0;
};

/// Transport-agnostic at-least-once retry/dedup state machine: every data
/// frame carries a per-destination sequence number, is acked by the
/// receiver, and is retransmitted on a timer until the ack lands (linear
/// backoff, capped at max_retries). The receiver acks every copy —
/// including duplicates, whose data is then discarded by the per-source
/// seen-window — so alert semantics survive loss and duplication exactly.
///
/// Pure decision logic: no I/O, no clocks, no metrics registry. The same
/// class drives the deterministic SimNet and the real-socket UdpNet, which
/// is what makes "identical retry/dedup decisions for identical delivery
/// traces" a structural property rather than a test hope. The caller
/// (ReliableEndpoint) performs the transmissions, arms the timers, and
/// attributes the bytes. Retained frames live in a FramePool — the
/// backend's when given one, else the policy's own.
class ReliabilityPolicy {
 public:
  ReliabilityPolicy(double rto_s, int max_retries, FramePool* pool = nullptr);

  /// Linear backoff: attempt k (0-based) waits (k + 1) * rto_s before the
  /// next attempt — bounded retry storms at high drop rates, cheap to
  /// reason about.
  double RetryDelay(int attempt) const { return rto_s_ * (attempt + 1); }

  /// Assigns the next per-destination sequence number, encodes the payload
  /// (plus the optional trace extension — frames are encoded exactly once,
  /// so the context rides every retransmission unchanged) into a tracked
  /// frame retained until acked, and returns the seq. The caller follows up
  /// with PlanTransmit(dst, seq, 0).
  uint64_t Enqueue(int dst, MsgKind kind, const std::vector<uint8_t>& payload,
                   const std::vector<TraceEntry>& trace = {});

  struct TransmitPlan {
    enum class Verdict {
      kSkip,    // Acked since the timer was armed; nothing to do.
      kSend,    // Transmit *frame, then arm a timer for next_delay_s.
      kGiveUp,  // Retries exhausted; delivery_failed() is now latched.
    };
    Verdict verdict = Verdict::kSkip;
    const std::vector<uint8_t>* frame = nullptr;  // Valid until next mutation.
    bool is_retransmit = false;                   // attempt > 0.
    double next_delay_s = 0.0;
  };
  /// One (re)transmission decision for attempt `attempt` of (dst, seq).
  TransmitPlan PlanTransmit(int dst, uint64_t seq, int attempt);

  /// True while (dst, seq) awaits its ack.
  bool pending(int dst, uint64_t seq) const {
    return peers_.Pending(dst, seq) != 0;
  }

  struct RxResult {
    enum class Verdict {
      kCorrupt,    // Undecodable; drop (the sender's retry recovers).
      kAck,        // Ack consumed; frame->seq names the acked send.
      kDuplicate,  // Valid data, already seen: ack it, then discard.
      kDeliver,    // Valid new data: ack it, then hand the frame up.
    };
    Verdict verdict = Verdict::kCorrupt;
    bool acked_pending = false;  // kAck that cleared a live pending entry.
  };
  /// Classifies one received datagram, decoding it into `*frame` (whose
  /// buffers are reused), and updates pending/dedup state. For kDuplicate
  /// and kDeliver the caller must send an ack for frame->seq back to src —
  /// every copy is acked, because the sender may be retrying precisely
  /// because the first ack was lost.
  RxResult OnDatagram(int src, const uint8_t* data, size_t size, Frame* frame);

  // Decision counters (pure functions of the enqueue/receive trace).
  uint64_t retransmits() const { return retransmits_; }
  uint64_t dedup_discards() const { return dedup_discards_; }
  uint64_t corrupt_frames() const { return corrupt_frames_; }

  /// True when some frame exhausted max_retries (only reachable with
  /// drop_rate pinned near 1); surfaced as a run failure.
  bool delivery_failed() const { return delivery_failed_; }
  bool all_acked() const { return peers_.pending_count() == 0; }

 private:
  double rto_s_;
  int max_retries_;
  std::unique_ptr<FramePool> own_pool_;  // Only without a backend pool.
  FramePool* pool_;
  PeerTable peers_;
  uint64_t retransmits_ = 0;
  uint64_t dedup_discards_ = 0;
  uint64_t corrupt_frames_ = 0;
  bool delivery_failed_ = false;
};

/// ReliabilityPolicy driven over a NetBackend: owns one backend endpoint,
/// executes the policy's transmit plans (data frames, retransmissions,
/// acks), arms its retry timers via Schedule, and attributes every byte it
/// puts on the wire. Works identically over SimNet (virtual time) and
/// UdpNet (wall-clock timer wheel); on wall-clock backends it additionally
/// records per-send round-trip latency into the "net.socket.rtt_s"
/// quantile sketch.
class ReliableEndpoint : private RetryTarget {
 public:
  /// Receives each fresh data frame. The frame is a per-thread decode
  /// scratch, valid for the duration of the call only.
  using FrameHandler = std::function<void(int src, Frame&& frame)>;

  /// Registers a fresh backend endpoint. `rto_s` is the base retransmission
  /// timeout; attempt k waits k * rto_s. `group` is the backend placement
  /// hint (see NetBackend::AddEndpoint). Frames are retained in the
  /// backend's FramePool.
  ReliableEndpoint(NetBackend* net, double rto_s, int max_retries,
                   FrameHandler handler, int group = -1);

  int id() const { return id_; }

  /// Attributes this endpoint's wire bytes (data frames, retransmissions
  /// and acks it sends) to registry counters — the transport installs
  /// net.bytes_up on client endpoints and net.bytes_down on server
  /// endpoints, plus a per-shard counter each, so both the global and the
  /// summed per-shard counters reconcile with CommStats byte accounting to
  /// the unit. Every added counter receives every byte; nullptr is ignored.
  void add_wire_bytes_counter(obs::Counter* counter) {
    if (counter != nullptr) wire_bytes_counters_.push_back(counter);
  }

  /// Sends `payload` as a `kind` frame to `dst`, tracked until acked.
  void Send(int dst, MsgKind kind, const std::vector<uint8_t>& payload);

  /// Like Send, but stamps the frame with trace-extension entries (see
  /// TraceCtx): the context is encoded once at enqueue time and therefore
  /// survives retransmission byte-identically. Empty entries degenerate to
  /// the untraced version-1 encoding.
  void Send(int dst, MsgKind kind, const std::vector<uint8_t>& payload,
            const std::vector<TraceEntry>& trace);

  /// Shard label stamped on this endpoint's flight-recorder events
  /// (-1 = unsharded, the default).
  void set_flight_shard(int shard) { flight_shard_ = shard; }
  int flight_shard() const { return flight_shard_; }

  // Wire accounting for this endpoint's *transmissions* (data frames,
  // retransmissions and acks it sends; not what it receives).
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t retransmits() const { return policy_.retransmits(); }
  uint64_t dedup_discards() const { return policy_.dedup_discards(); }
  uint64_t corrupt_frames() const { return policy_.corrupt_frames(); }

  /// True when some frame exhausted max_retries (only reachable with
  /// drop_rate pinned near 1); the transport surfaces it as a run failure.
  bool delivery_failed() const { return policy_.delivery_failed(); }
  bool all_acked() const { return policy_.all_acked(); }

 private:
  // RetryTarget: a retry timer is live exactly while its send is pending.
  bool RetryLive(int dst, uint64_t seq) const override {
    return policy_.pending(dst, seq);
  }
  void OnRetry(int dst, uint64_t seq, int attempt) override {
    Transmit(dst, seq, attempt);
  }

  void Transmit(int dst, uint64_t seq, int attempt);
  void OnWire(int src, const std::vector<uint8_t>& bytes);
  void CountTx(const uint8_t* frame, size_t size);
  void RecordFlight(obs::FlightEventKind kind, int peer, uint64_t seq,
                    uint8_t msg_kind);

  NetBackend* net_;
  ReliabilityPolicy policy_;
  FrameHandler handler_;
  std::vector<obs::Counter*> wire_bytes_counters_;
  int id_ = -1;
  int flight_shard_ = -1;
  // First-transmit times for in-flight sends, kept only on wall-clock
  // backends to feed the RTT sketch.
  std::map<std::pair<int, uint64_t>, double> tx_time_;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_sent_ = 0;
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_RELIABILITY_H_
