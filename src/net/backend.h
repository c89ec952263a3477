#ifndef PROXDET_NET_BACKEND_H_
#define PROXDET_NET_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

namespace proxdet {
namespace net {

/// Recycled frame buffers, addressed by handle (>= 1). A released buffer
/// keeps its capacity for the next Acquire, so steady-state traffic encodes
/// and queues frames without touching the allocator; the pool holds as many
/// buffers as were ever in use at once (an epoch barrier flushing every
/// touched client sets that peak). Buffers never move once created (deque
/// storage): a reference stays valid while other buffers are acquired,
/// which lets a backend copy one pooled frame into another. Driver-thread
/// only, like everything else above the backend.
class FramePool {
 public:
  /// Handle of an empty buffer.
  uint32_t Acquire() {
    if (free_.empty()) {
      buffers_.emplace_back();
      return static_cast<uint32_t>(buffers_.size());
    }
    const uint32_t handle = free_.back();
    free_.pop_back();
    return handle;
  }
  /// Returns the buffer to the pool: contents discarded, capacity kept.
  void Release(uint32_t handle) {
    (*this)[handle].clear();
    free_.push_back(handle);
  }
  std::vector<uint8_t>& operator[](uint32_t handle) {
    return buffers_[handle - 1];
  }

 private:
  std::deque<std::vector<uint8_t>> buffers_;
  std::vector<uint32_t> free_;
};

/// Receiver of typed retry timers (ReliableEndpoint). A retry timer for
/// (dst, seq) is *live* exactly while that send still awaits its ack:
/// RetryLive is the backend's cancellation test, so retiring a send by its
/// ack is all it takes to cancel the timer.
class RetryTarget {
 public:
  virtual bool RetryLive(int dst, uint64_t seq) const = 0;
  /// The timer fired: attempt `attempt` of (dst, seq) is due.
  virtual void OnRetry(int dst, uint64_t seq, int attempt) = 0;

 protected:
  ~RetryTarget() = default;
};

/// One armed retry: plain data, no closure.
struct RetryTimer {
  RetryTarget* target = nullptr;
  int dst = -1;
  int attempt = 0;
  uint64_t seq = 0;
};

/// Transport substrate behind the frame interface. Two implementations:
/// the deterministic event-driven SimNet (virtual time, seeded impairment,
/// the correctness oracle) and the real-socket UdpNet (nonblocking UDP
/// sockets on epoll event loops, wall-clock retransmit timers). Everything
/// above this line — framing, checksums, the ReliabilityPolicy retry/dedup
/// state machine, ClientRuntime / ProtocolServer / ShardedFrontend — is
/// shared verbatim, which is what makes the SimNet run a bit-exact oracle
/// for the socket run.
///
/// Contract, common to both backends:
///  - Endpoints are dense small integers in AddEndpoint order.
///  - Handlers and retry timers run on the *driver* thread only — the
///    thread that calls RunUntilIdle(). A real backend may move bytes on
///    its own event-loop threads, but delivery into protocol code is always
///    serialized onto the driver, so protocol state needs no locks (the
///    same single-threaded discipline SimNet has always had).
///  - Send/ScheduleRetry may be called from handlers (same thread,
///    re-entrant); RunUntilIdle may not.
///  - RunUntilIdle() returns once the system quiesced: for SimNet when the
///    event queue is empty; for a wall-clock backend when no datagrams are
///    queued anywhere and the installed idle predicate (e.g. "every
///    reliable endpoint has all sends acked") holds.
class NetBackend {
 public:
  using Handler = std::function<void(int src, const std::vector<uint8_t>&)>;

  virtual ~NetBackend() = default;

  /// Registers an endpoint; returns its id (dense, starting at 0).
  /// `group` is a placement hint for backends with several event loops
  /// (group >= 0 pins the endpoint's socket to that shard's loop; -1 lets
  /// the backend spread it over the client loops). SimNet ignores it.
  virtual int AddEndpoint(Handler handler, int group) = 0;
  int AddEndpoint(Handler handler) { return AddEndpoint(std::move(handler), -1); }

  /// Transmits the `size` bytes at `frame` from src to dst (possibly
  /// impaired: dropped, duplicated, delayed — by the seeded model in
  /// SimNet, by injection and the kernel in UdpNet). The bytes are copied
  /// before Send returns. Safe to call from inside a handler.
  virtual void Send(int src, int dst, const uint8_t* frame, size_t size) = 0;
  void Send(int src, int dst, const std::vector<uint8_t>& frame) {
    Send(src, dst, frame.data(), frame.size());
  }

  /// Arms `timer` to fire on the driver thread at now() + delay_s (virtual
  /// seconds for SimNet, monotonic wall-clock seconds for UdpNet). A timer
  /// whose send was acked meanwhile is dead: SimNet pops it without running
  /// it and — crucially — without advancing the clock, so an acked exchange
  /// leaves no trace in virtual time (the property that keeps
  /// detect->deliver latencies shard-count invariant); UdpNet fires it and
  /// the endpoint finds nothing pending.
  virtual void ScheduleRetry(double delay_s, const RetryTimer& timer) = 0;

  /// Drives the network until quiescent (see class comment).
  virtual void RunUntilIdle() = 0;

  /// Current time in the backend's clock domain: virtual seconds (SimNet)
  /// or monotonic seconds since construction (UdpNet).
  virtual double now() const = 0;

  /// True when time above is real time — callers segregate latency
  /// observations into wall-clock metrics exactly like CommStats does with
  /// server_seconds.
  virtual bool wall_clock() const { return false; }

  // Wire counters (every copy that physically entered a link / the kernel).
  virtual uint64_t frames_offered() const = 0;
  virtual uint64_t frames_dropped() const = 0;
  virtual uint64_t frames_duplicated() const = 0;

  /// Determinism fingerprint of the delivery schedule; 0 for backends
  /// whose schedule is not a pure function of the seed (real sockets).
  virtual uint64_t schedule_hash() const { return 0; }

  /// Frame buffers shared by this backend and every endpoint on it.
  FramePool& frame_pool() { return frame_pool_; }

 private:
  FramePool frame_pool_;
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_BACKEND_H_
