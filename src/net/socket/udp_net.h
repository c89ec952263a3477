#ifndef PROXDET_NET_SOCKET_UDP_NET_H_
#define PROXDET_NET_SOCKET_UDP_NET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/backend.h"
#include "net/socket/event_loop.h"
#include "net/socket/timer_wheel.h"

namespace proxdet {
namespace net {

struct UdpNetConfig {
  /// Event loops for group >= 0 endpoints (shard servers + mesh): one loop
  /// per ShardedFrontend shard; group g pins to loop g % shard_loops.
  int shard_loops = 1;
  /// Event loops shared round-robin by group -1 endpoints (clients).
  int client_loops = 1;
  /// When nonzero, group >= 0 endpoints bind base_port, base_port+1, ... in
  /// registration order (falling back to an ephemeral port if taken);
  /// clients always bind ephemeral ports.
  uint16_t base_port = 0;
  /// Loss/duplication injected at Send time from a seeded Rng — the socket
  /// analogue of SimNet's LinkModel, exercising retransmit/dedup over real
  /// sockets on top of whatever the kernel itself drops under burst.
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  uint64_t seed = 1;
  /// RunUntilIdle latches idle_timeout_hit() and returns after this long
  /// without any timer firing or datagram delivery (lost-alert insurance:
  /// a wedged run fails loudly instead of hanging the bench).
  double idle_timeout_s = 60.0;
  /// Selects the portable poll(2) readiness path even where epoll exists.
  bool force_poll = false;
  /// SO_RCVBUF/SO_SNDBUF request per socket (kernel may cap it).
  int socket_buffer_bytes = 1 << 20;
};

/// Real-socket NetBackend: every endpoint is a nonblocking UDP socket on
/// 127.0.0.1, owned by one of a small set of event-loop threads (epoll or
/// poll via EventLoop). The loop threads only move bytes: received
/// datagrams are queued to the driver thread, which dispatches handlers,
/// fires TimerWheel retransmit timers, and is the only thread allowed to
/// call Send/ScheduleRetry — so all protocol state above the backend stays
/// single-threaded, exactly like SimNet (see NetBackend).
///
/// Time is wall-clock (monotonic seconds since construction) and delivery
/// order is whatever the kernel does, so there is no schedule_hash; parity
/// with the SimNet oracle is asserted on protocol outcomes (alerts,
/// message counts) instead.
class UdpNet : public NetBackend {
 public:
  explicit UdpNet(const UdpNetConfig& config);
  ~UdpNet() override;

  /// True when this host can bind loopback UDP sockets and build an
  /// EventLoop (memoized probe); socket tests GTEST_SKIP when false.
  static bool Available();

  /// False after any socket/loop setup failure; the transport surfaces it
  /// as a failed run rather than hanging.
  bool ok() const { return ok_; }

  using NetBackend::AddEndpoint;
  int AddEndpoint(Handler handler, int group) override;
  using NetBackend::Send;
  void Send(int src, int dst, const uint8_t* frame, size_t size) override;
  void ScheduleRetry(double delay_s, const RetryTimer& timer) override;
  void RunUntilIdle() override;
  double now() const override;
  bool wall_clock() const override { return true; }

  uint64_t frames_offered() const override { return frames_offered_; }
  uint64_t frames_dropped() const override { return frames_dropped_; }
  uint64_t frames_duplicated() const override { return frames_duplicated_; }

  /// Installs the quiescence predicate consulted by RunUntilIdle once all
  /// queues have drained (the sharded frontend installs "every reliable
  /// endpoint has all sends acked"). Without one, RunUntilIdle waits for
  /// the timer wheel to empty — fine for raw tests, too slow for the
  /// protocol (acked sends leave lazily-cancelled timers armed).
  void SetIdleFn(std::function<bool()> fn) { idle_fn_ = std::move(fn); }

  /// Binds any unbound sockets and launches the loop threads; idempotent.
  /// Implied by the first RunUntilIdle/PumpFor. AddEndpoint afterwards is
  /// a programming error.
  void Start();

  /// Pumps the driver (timers + deliveries) for a wall-clock duration
  /// regardless of idleness — for tests that exercise raw datagrams
  /// without the reliability layer's pending-tracking.
  void PumpFor(double seconds);

  /// Latched when RunUntilIdle gave up after idle_timeout_s without
  /// progress while not idle (e.g. a send with no live receiver).
  bool idle_timeout_hit() const { return idle_timeout_hit_; }

  // Introspection for tests and the bench.
  uint16_t endpoint_port(int id) const;
  int endpoint_count() const { return static_cast<int>(endpoints_.size()); }
  int loop_count() const { return static_cast<int>(loops_.size()); }
  bool using_epoll() const;

  // Loop-thread datagram totals (actual sendto/recvfrom traffic, acks and
  // retransmits included — this is what MB/s means on a real wire).
  uint64_t datagrams_sent() const {
    return datagrams_sent_.load(std::memory_order_relaxed);
  }
  uint64_t socket_bytes_sent() const {
    return socket_bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t datagrams_received() const {
    return datagrams_received_.load(std::memory_order_relaxed);
  }
  uint64_t socket_bytes_received() const {
    return socket_bytes_received_.load(std::memory_order_relaxed);
  }

 private:
  struct Endpoint {
    Handler handler;
    int fd = -1;
    uint16_t port = 0;
    int loop = -1;
  };

  struct Outgoing {
    int src_fd = -1;
    uint16_t dst_port = 0;
    std::vector<uint8_t> bytes;
  };

  struct Loop {
    std::unique_ptr<EventLoop> event_loop;
    std::thread thread;
    std::mutex mutex;                 // Guards outbox.
    std::deque<Outgoing> outbox;
    std::deque<Outgoing> backlog;     // Loop-thread only: EAGAIN'd sends.
    std::unordered_set<int> write_armed;  // Loop-thread only.
    std::vector<int> fds;             // Loop-thread only after Start.
  };

  struct Incoming {
    int dst = -1;
    int src = -1;
    std::vector<uint8_t> bytes;
  };

  void LoopMain(Loop* loop);
  void FlushOutbox(Loop* loop);
  bool TrySend(Loop* loop, const Outgoing& out);
  void ReadSocket(Loop* loop, int fd);
  void EnqueueOutgoing(int src, int dst, std::vector<uint8_t> bytes);
  bool QueuesDrained();
  int PumpOnce();  // Fires due timers + dispatches inbound; returns count.

  UdpNetConfig config_;
  Rng rng_;
  bool ok_ = true;
  bool started_ = false;
  bool idle_timeout_hit_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Endpoint> endpoints_;
  std::unordered_map<uint16_t, int> port_to_endpoint_;
  std::unordered_map<int, int> fd_to_endpoint_;
  std::vector<std::unique_ptr<Loop>> loops_;
  int next_client_loop_ = 0;
  int next_shard_port_offset_ = 0;
  std::function<bool()> idle_fn_;
  TimerWheel wheel_;

  std::atomic<bool> stop_{false};
  // Sends accepted by Send() but not yet handed to the kernel by a loop
  // thread; part of the quiescence condition.
  std::atomic<uint64_t> unsent_{0};
  std::mutex inbound_mutex_;
  std::condition_variable inbound_cv_;
  std::deque<Incoming> inbound_;

  // Driver-side injection counters (SimNet-compatible semantics).
  uint64_t frames_offered_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_duplicated_ = 0;

  std::atomic<uint64_t> datagrams_sent_{0};
  std::atomic<uint64_t> socket_bytes_sent_{0};
  std::atomic<uint64_t> datagrams_received_{0};
  std::atomic<uint64_t> socket_bytes_received_{0};
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_SOCKET_UDP_NET_H_
