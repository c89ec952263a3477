#include "net/sim_net.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {
namespace net {

namespace {

/// Link-impairment totals. All deterministic: SimNet is single-threaded and
/// every random decision comes from its seeded Rng, so these are pure
/// functions of (seed, Send/ScheduleRetry call sequence).
struct SimNetMetrics {
  obs::Counter& frames_offered;
  obs::Counter& drops;
  obs::Counter& dups;
  obs::Gauge& queue_depth_max;

  static const SimNetMetrics& Get() {
    static const SimNetMetrics m{
        obs::Metrics().GetCounter("net.frames_offered"),
        obs::Metrics().GetCounter("net.drops"),
        obs::Metrics().GetCounter("net.dups"),
        obs::Metrics().GetGauge("net.queue_depth_max",
                                obs::Kind::kDeterministic),
    };
    return m;
  }
};

}  // namespace

int SimNet::AddEndpoint(Handler handler, int /*group*/) {
  handlers_.push_back(std::move(handler));
  return static_cast<int>(handlers_.size()) - 1;
}

void SimNet::PushEvent(const Event& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EventAfter());
  SimNetMetrics::Get().queue_depth_max.MaxOf(static_cast<double>(heap_.size()));
}

SimNet::Event SimNet::PopEvent() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter());
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

void SimNet::MixHash(uint64_t v) {
  // FNV-1a 64, one byte at a time, over the value's little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    schedule_hash_ ^= (v >> (8 * i)) & 0xff;
    schedule_hash_ *= 1099511628211ULL;
  }
}

void SimNet::RecordOutcome(const DeliveryRecord& r) {
  uint64_t time_bits;
  static_assert(sizeof(time_bits) == sizeof(r.send_time));
  std::memcpy(&time_bits, &r.send_time, sizeof(time_bits));
  MixHash(time_bits);
  std::memcpy(&time_bits, &r.deliver_time, sizeof(time_bits));
  MixHash(time_bits);
  MixHash((static_cast<uint64_t>(static_cast<uint32_t>(r.src)) << 32) |
          static_cast<uint32_t>(r.dst));
  MixHash((static_cast<uint64_t>(r.frame_hash) << 2) |
          (r.dropped ? 2u : 0u) | (r.duplicate ? 1u : 0u));
}

void SimNet::Send(int src, int dst, const uint8_t* frame, size_t size) {
  const LinkModel model = link_model_ ? link_model_(src, dst) : LinkModel();
  // One Rng draw per decision, in fixed order, regardless of the model's
  // parameters — the draw sequence (hence the schedule) is a pure function
  // of the seed and the Send/ScheduleRetry call sequence.
  const bool duplicate = rng_.NextBool(model.dup_rate);
  const int copies = duplicate ? 2 : 1;
  if (duplicate) {
    frames_duplicated_ += 1;
    SimNetMetrics::Get().dups.Inc();
  }
  const uint32_t frame_hash = Fnv1a32(frame, size);
  for (int c = 0; c < copies; ++c) {
    const bool drop = rng_.NextBool(model.drop_rate);
    const double jitter =
        model.jitter_s > 0.0 ? rng_.Uniform(0.0, model.jitter_s) : 0.0;
    frames_offered_ += 1;
    SimNetMetrics::Get().frames_offered.Inc();
    DeliveryRecord record;
    record.send_time = now_;
    record.deliver_time = now_ + model.latency_s + jitter;
    record.src = src;
    record.dst = dst;
    record.frame_hash = frame_hash;
    record.dropped = drop;
    record.duplicate = c > 0;
    RecordOutcome(record);
    if (drop) {
      frames_dropped_ += 1;
      SimNetMetrics::Get().drops.Inc();
      continue;
    }
    Event e;
    e.time = record.deliver_time;
    e.id = next_event_id_++;
    e.src = src;
    e.dst = dst;
    e.frame = frame_pool().Acquire();
    frame_pool()[e.frame].assign(frame, frame + size);
    PushEvent(e);
  }
}

void SimNet::ScheduleRetry(double delay_s, const RetryTimer& timer) {
  Event e;
  e.time = now_ + delay_s;
  e.id = next_event_id_++;
  e.retry = timer;
  PushEvent(e);
}

void SimNet::RunUntilIdle() {
  while (!heap_.empty()) {
    const Event e = PopEvent();
    if (e.frame == 0) {
      const RetryTimer& t = e.retry;
      // A retry whose send was acked is dead: discard it without running
      // it and — crucially — without advancing now_, so retired timers
      // leave virtual time untouched (see NetBackend::ScheduleRetry).
      if (!t.target->RetryLive(t.dst, t.seq)) continue;
      now_ = std::max(now_, e.time);
      t.target->OnRetry(t.dst, t.seq, t.attempt);
      continue;
    }
    now_ = std::max(now_, e.time);
    {
      obs::TraceScope span("simnet_delivery", "net");
      // Pool buffers never move, so the reference survives any Send the
      // handler makes; the buffer is recycled once the handler returns.
      handlers_[e.dst](e.src, frame_pool()[e.frame]);
    }
    frame_pool().Release(e.frame);
  }
}

}  // namespace net
}  // namespace proxdet
