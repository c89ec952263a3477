#ifndef PROXDET_NET_SIM_NET_H_
#define PROXDET_NET_SIM_NET_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/backend.h"
#include "net/reliability.h"
#include "net/wire.h"

namespace proxdet {
namespace net {

/// Per-direction link impairment model. All randomness (jitter draw, drop
/// coin, duplicate coin) comes from SimNet's single seeded Rng, drawn in
/// Send-call order — so a given seed yields one exact delivery schedule.
struct LinkModel {
  double latency_s = 0.0;  // Fixed one-way propagation delay.
  double jitter_s = 0.0;   // Additional uniform [0, jitter_s) per copy.
  double drop_rate = 0.0;  // P(copy never arrives).
  double dup_rate = 0.0;   // P(a second, independently-jittered copy).
};

/// One transmission outcome, as folded into schedule_hash().
struct DeliveryRecord {
  double send_time = 0.0;
  double deliver_time = 0.0;  // Meaningless when dropped.
  int src = -1;
  int dst = -1;
  uint32_t frame_hash = 0;  // FNV-1a of the frame bytes.
  bool dropped = false;
  bool duplicate = false;  // This copy was spawned by the dup model.
};

/// Deterministic event-driven NetBackend. Endpoints are small integers;
/// frames are opaque byte vectors; time is virtual seconds, advanced only
/// by the event queue. Queue entries are plain data — frame bytes live in
/// the shared FramePool, retry timers are typed records — so steady-state
/// traffic never allocates. Events are ordered by (time, insertion id), so ties
/// break deterministically and two runs with the same seed and the same
/// Send/ScheduleRetry call sequence produce byte-identical delivery schedules
/// (verified via schedule_hash()). This is the correctness oracle for the
/// real-socket backend in net/socket/.
///
/// Single-threaded by design: the epoch-synchronous engines drive it from
/// their serial commit sections, so it needs no locks even when the
/// surrounding detector scans fan out over the thread pool.
class SimNet : public NetBackend {
 public:
  explicit SimNet(uint64_t seed) : rng_(seed) {}

  /// Registers an endpoint; returns its id (dense, starting at 0). The
  /// placement `group` is meaningless in-process and ignored.
  using NetBackend::AddEndpoint;
  int AddEndpoint(Handler handler, int group) override;

  /// Link model lookup by (src, dst); defaults to a perfect link. The
  /// transport installs a classifier that maps client->server to the "up"
  /// model and server->client to the "down" model.
  void SetLinkModelFn(std::function<LinkModel(int src, int dst)> fn) {
    link_model_ = std::move(fn);
  }

  /// Transmits `frame` from src to dst through the (src, dst) link model:
  /// possibly dropped, possibly duplicated, delivered at
  /// now + latency + jitter. Each surviving copy is held in a frame-pool
  /// buffer until delivered. Safe to call from inside a handler.
  using NetBackend::Send;
  void Send(int src, int dst, const uint8_t* frame, size_t size) override;

  /// Arms a retry timer at now + delay_s. RunUntilIdle asks the target
  /// whether the timer is still live when it reaches the head of the queue;
  /// a dead one is discarded without advancing virtual time.
  void ScheduleRetry(double delay_s, const RetryTimer& timer) override;

  /// Runs events in timestamp order until the queue is empty. Handlers and
  /// timers may enqueue more work; the loop drains it all.
  void RunUntilIdle() override;

  double now() const override { return now_; }

  // Wire counters (all copies that physically entered a link).
  uint64_t frames_offered() const override { return frames_offered_; }
  uint64_t frames_dropped() const override { return frames_dropped_; }
  uint64_t frames_duplicated() const override { return frames_duplicated_; }

  /// Running FNV-1a hash over every transmission outcome (send time,
  /// deliver time, endpoints, frame bytes, drop/dup flags). Two runs with
  /// identical hashes experienced byte-identical delivery schedules.
  uint64_t schedule_hash() const override { return schedule_hash_; }

 private:
  /// Heap entry: plain data. A delivery names its frame-pool buffer; a
  /// retry timer carries its record inline.
  struct Event {
    double time = 0.0;
    uint64_t id = 0;      // Insertion order; the deterministic tie-break.
    uint32_t frame = 0;  // Frame-pool handle; 0 marks a retry timer.
    int src = -1;        // Deliveries only.
    int dst = -1;        // Deliveries only.
    RetryTimer retry;    // Retry timers only.
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  void PushEvent(const Event& e);
  Event PopEvent();
  void MixHash(uint64_t v);
  void RecordOutcome(const DeliveryRecord& r);

  Rng rng_;
  std::vector<Handler> handlers_;
  std::function<LinkModel(int, int)> link_model_;
  std::vector<Event> heap_;  // Binary min-heap under EventAfter.
  uint64_t next_event_id_ = 0;
  double now_ = 0.0;
  uint64_t frames_offered_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t schedule_hash_ = 14695981039346656037ULL;  // FNV-1a 64 offset.
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_SIM_NET_H_
