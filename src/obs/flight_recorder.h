#ifndef PROXDET_OBS_FLIGHT_RECORDER_H_
#define PROXDET_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace proxdet {
namespace obs {

/// What a flight-recorder entry witnessed. These are protocol-level events
/// (one per reliable-link action), not payload contents.
enum class FlightEventKind : uint8_t {
  kSend = 0,        // First transmission of a sequence number.
  kRetransmit = 1,  // Resend of an unacked frame.
  kAck = 2,         // Ack received; frame retired.
  kDedup = 3,       // Duplicate data frame suppressed.
  kGiveUp = 4,      // Retry budget exhausted; delivery failed.
  kCorrupt = 5,     // Undecodable datagram dropped.
  kDeliver = 6,     // Fresh data frame handed to the handler.
  kForward = 7,     // Shard-mesh ownership forward relayed.
};

inline const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSend:
      return "send";
    case FlightEventKind::kRetransmit:
      return "retransmit";
    case FlightEventKind::kAck:
      return "ack";
    case FlightEventKind::kDedup:
      return "dedup";
    case FlightEventKind::kGiveUp:
      return "give_up";
    case FlightEventKind::kCorrupt:
      return "corrupt";
    case FlightEventKind::kDeliver:
      return "deliver";
    case FlightEventKind::kForward:
      return "forward";
  }
  return "unknown";
}

/// One recorded protocol event. `time_s` is in the owning backend's clock
/// domain (virtual seconds under SimNet, wall seconds under UdpNet); `id`
/// is a process-wide monotonic stamp so dumps merge shards in order.
struct FlightEvent {
  uint64_t id = 0;
  FlightEventKind kind = FlightEventKind::kSend;
  int shard = -1;  // -1 = unsharded / unknown.
  int src = -1;
  int dst = -1;
  uint64_t seq = 0;
  uint8_t msg_kind = 0;  // net::MsgKind, 0 if not applicable.
  double time_s = 0.0;
};

/// Bounded per-shard ring buffer of recent protocol events. Each shard owns
/// a fixed array of `capacity` slots (allocated on its first event) that
/// the newest event overwrites once full, so recording is a slot store
/// under an uncontended mutex (protocol events fire on the driver thread;
/// the lock only orders them against a concurrent reader such as the live
/// stats endpoint). Shards are indexed directly (shard + 1; every negative
/// label shares the unsharded ring).
/// On a failure — socket idle timeout, reliability give-up, bench contract
/// violation — DumpOnFailure() writes everything still buffered as JSON so
/// the FATAL leaves a diagnosable artifact instead of just an exit code.
class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Per-shard ring capacity; existing rings are trimmed immediately.
  void set_capacity(size_t capacity);
  size_t capacity() const;

  /// Where DumpOnFailure() writes; empty (the default) disables dumping.
  void set_dump_path(const std::string& path);
  std::string dump_path() const;

  void Record(const FlightEvent& event);

  /// Drops all recorded events; keeps capacity, path and enablement.
  void Clear();

  /// All buffered events merged across shards in record order.
  std::vector<FlightEvent> snapshot() const;

  /// The most recent `n` events across all shards, oldest first.
  std::vector<FlightEvent> Head(size_t n) const;

  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }

  /// The dump document: {"reason", "recorded", "buffered", "events": [...]}.
  std::string ToJson(const std::string& reason) const;

  /// Writes ToJson(reason) to dump_path(); false when no path is set or
  /// the write fails. Safe to call multiple times (last reason wins).
  bool DumpOnFailure(const std::string& reason) const;

  /// The process-wide recorder every reliable endpoint feeds.
  static FlightRecorder& Global();

 private:
  /// Fixed-capacity ring: slots.size() == capacity once used; the oldest
  /// buffered event sits at `head`.
  struct Ring {
    std::vector<FlightEvent> slots;
    size_t head = 0;
    size_t count = 0;
  };

  /// Appends the buffered events of every ring, oldest first per ring.
  void CollectLocked(std::vector<FlightEvent>* out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> recorded_{0};
  mutable std::mutex mutex_;
  size_t capacity_ = 256;
  uint64_t next_id_ = 0;
  std::string dump_path_;
  std::vector<Ring> rings_;  // By shard + 1.
};

/// Shorthand for FlightRecorder::Global().
inline FlightRecorder& Flight() { return FlightRecorder::Global(); }

}  // namespace obs
}  // namespace proxdet

#endif  // PROXDET_OBS_FLIGHT_RECORDER_H_
