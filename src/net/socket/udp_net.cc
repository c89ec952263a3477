#include "net/socket/udp_net.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace proxdet {
namespace net {

namespace {

/// Wall-clock datagram totals for the socket backend (loop threads bump
/// these concurrently; Counter is a relaxed atomic). Injection totals share
/// the SimNet counter names — "frames offered to the link, minus injected
/// drops" means the same thing on both backends.
struct SocketMetrics {
  obs::Counter& frames_offered;
  obs::Counter& drops;
  obs::Counter& dups;
  obs::Counter& datagrams_sent;
  obs::Counter& bytes_sent;
  obs::Counter& datagrams_received;
  obs::Counter& bytes_received;
  obs::Counter& send_errors;

  static const SocketMetrics& Get() {
    static const SocketMetrics m{
        obs::Metrics().GetCounter("net.frames_offered"),
        obs::Metrics().GetCounter("net.drops"),
        obs::Metrics().GetCounter("net.dups"),
        obs::Metrics().GetCounter("net.socket.datagrams_sent",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("net.socket.bytes_sent",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("net.socket.datagrams_received",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("net.socket.bytes_received",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("net.socket.send_errors",
                                  obs::Kind::kWallClock),
    };
    return m;
  }
};

}  // namespace

#if defined(_WIN32)

UdpNet::UdpNet(const UdpNetConfig& config) : config_(config), rng_(config.seed) {
  ok_ = false;
}
UdpNet::~UdpNet() = default;
bool UdpNet::Available() { return false; }
int UdpNet::AddEndpoint(Handler, int) { return -1; }
void UdpNet::Send(int, int, const uint8_t*, size_t) {}
void UdpNet::ScheduleRetry(double, const RetryTimer&) {}
void UdpNet::RunUntilIdle() {}
double UdpNet::now() const { return 0.0; }
void UdpNet::Start() {}
void UdpNet::PumpFor(double) {}
uint16_t UdpNet::endpoint_port(int) const { return 0; }
bool UdpNet::using_epoll() const { return false; }
void UdpNet::LoopMain(Loop*) {}
void UdpNet::FlushOutbox(Loop*) {}
bool UdpNet::TrySend(Loop*, const Outgoing&) { return true; }
void UdpNet::ReadSocket(Loop*, int) {}
void UdpNet::EnqueueOutgoing(int, int, std::vector<uint8_t>) {}
bool UdpNet::QueuesDrained() { return true; }
int UdpNet::PumpOnce() { return 0; }

#else  // POSIX

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

sockaddr_in LoopbackAddr(uint16_t port_host_order) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_host_order);
  return addr;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

UdpNet::UdpNet(const UdpNetConfig& config)
    : config_(config), rng_(config.seed), epoch_(std::chrono::steady_clock::now()) {
  const int total_loops =
      std::max(1, config_.shard_loops) + std::max(1, config_.client_loops);
  config_.shard_loops = std::max(1, config_.shard_loops);
  config_.client_loops = std::max(1, config_.client_loops);
  loops_.reserve(static_cast<size_t>(total_loops));
  for (int i = 0; i < total_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->event_loop = std::make_unique<EventLoop>(config_.force_poll);
    if (!loop->event_loop->ok()) ok_ = false;
    loops_.push_back(std::move(loop));
  }
}

UdpNet::~UdpNet() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    loop->event_loop->Wake();
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (Endpoint& endpoint : endpoints_) {
    if (endpoint.fd >= 0) close(endpoint.fd);
  }
}

bool UdpNet::Available() {
  static const bool available = [] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr = LoopbackAddr(0);
    const bool bound =
        bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    close(fd);
    if (!bound) return false;
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) return false;
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return true;
  }();
  return available;
}

int UdpNet::AddEndpoint(Handler handler, int group) {
  if (started_) {
    std::fprintf(stderr, "UdpNet: AddEndpoint after Start\n");
    ok_ = false;
    return -1;
  }
  Endpoint endpoint;
  endpoint.handler = std::move(handler);
  endpoint.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (endpoint.fd < 0 || !SetNonBlocking(endpoint.fd)) {
    if (endpoint.fd >= 0) close(endpoint.fd);
    ok_ = false;
    endpoints_.push_back(Endpoint{});
    return static_cast<int>(endpoints_.size()) - 1;
  }
  setsockopt(endpoint.fd, SOL_SOCKET, SO_RCVBUF, &config_.socket_buffer_bytes,
             sizeof(config_.socket_buffer_bytes));
  setsockopt(endpoint.fd, SOL_SOCKET, SO_SNDBUF, &config_.socket_buffer_bytes,
             sizeof(config_.socket_buffer_bytes));
  bool bound = false;
  if (group >= 0 && config_.base_port != 0) {
    sockaddr_in addr = LoopbackAddr(
        static_cast<uint16_t>(config_.base_port + next_shard_port_offset_++));
    bound = bind(endpoint.fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) == 0;
  }
  if (!bound) {
    sockaddr_in addr = LoopbackAddr(0);  // Ephemeral.
    bound = bind(endpoint.fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) == 0;
  }
  sockaddr_in bound_addr{};
  socklen_t len = sizeof(bound_addr);
  if (!bound || getsockname(endpoint.fd,
                            reinterpret_cast<sockaddr*>(&bound_addr),
                            &len) != 0) {
    close(endpoint.fd);
    ok_ = false;
    endpoints_.push_back(Endpoint{});
    return static_cast<int>(endpoints_.size()) - 1;
  }
  endpoint.port = ntohs(bound_addr.sin_port);
  endpoint.loop = group >= 0
                      ? group % config_.shard_loops
                      : config_.shard_loops +
                            (next_client_loop_++ % config_.client_loops);
  if (!loops_[static_cast<size_t>(endpoint.loop)]->event_loop->Add(
          endpoint.fd)) {
    ok_ = false;
  }
  loops_[static_cast<size_t>(endpoint.loop)]->fds.push_back(endpoint.fd);
  const int id = static_cast<int>(endpoints_.size());
  port_to_endpoint_[endpoint.port] = id;
  fd_to_endpoint_[endpoint.fd] = id;
  endpoints_.push_back(std::move(endpoint));
  return id;
}

uint16_t UdpNet::endpoint_port(int id) const {
  return id >= 0 && id < static_cast<int>(endpoints_.size())
             ? endpoints_[static_cast<size_t>(id)].port
             : 0;
}

bool UdpNet::using_epoll() const {
  return !loops_.empty() && loops_[0]->event_loop->using_epoll();
}

double UdpNet::now() const { return SecondsSince(epoch_); }

void UdpNet::Start() {
  if (started_ || !ok_) {
    started_ = true;
    return;
  }
  started_ = true;
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { LoopMain(raw); });
  }
}

void UdpNet::Send(int src, int dst, const uint8_t* frame, size_t size) {
  // Same injection semantics (and counter meanings) as SimNet's LinkModel:
  // one dup coin per logical send, one drop coin per copy, all from the
  // seeded Rng — the kernel may drop more under burst, and the reliability
  // layer above recovers both kinds identically.
  const bool duplicate = rng_.NextBool(config_.dup_rate);
  const int copies = duplicate ? 2 : 1;
  if (duplicate) {
    frames_duplicated_ += 1;
    SocketMetrics::Get().dups.Inc();
  }
  for (int c = 0; c < copies; ++c) {
    const bool drop = rng_.NextBool(config_.drop_rate);
    frames_offered_ += 1;
    SocketMetrics::Get().frames_offered.Inc();
    if (drop) {
      frames_dropped_ += 1;
      SocketMetrics::Get().drops.Inc();
      continue;
    }
    EnqueueOutgoing(src, dst, std::vector<uint8_t>(frame, frame + size));
  }
}

void UdpNet::EnqueueOutgoing(int src, int dst, std::vector<uint8_t> bytes) {
  if (src < 0 || src >= static_cast<int>(endpoints_.size()) || dst < 0 ||
      dst >= static_cast<int>(endpoints_.size())) {
    return;
  }
  const Endpoint& from = endpoints_[static_cast<size_t>(src)];
  if (from.fd < 0) return;
  Outgoing out;
  out.src_fd = from.fd;
  out.dst_port = endpoints_[static_cast<size_t>(dst)].port;
  out.bytes = std::move(bytes);
  Loop* loop = loops_[static_cast<size_t>(from.loop)].get();
  unsent_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->outbox.push_back(std::move(out));
  }
  loop->event_loop->Wake();
}

bool UdpNet::TrySend(Loop* loop, const Outgoing& out) {
  const sockaddr_in dst = LoopbackAddr(out.dst_port);
  const ssize_t n =
      sendto(out.src_fd, out.bytes.data(), out.bytes.size(), 0,
             reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  if (n >= 0) {
    datagrams_sent_.fetch_add(1, std::memory_order_relaxed);
    socket_bytes_sent_.fetch_add(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
    SocketMetrics::Get().datagrams_sent.Inc();
    SocketMetrics::Get().bytes_sent.Inc(static_cast<uint64_t>(n));
    return true;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
    loop->event_loop->SetWriteInterest(out.src_fd, true);
    return false;  // Retained in the backlog; flushed on writability.
  }
  // Hard error: drop the datagram — the reliability layer's retry treats
  // it exactly like wire loss.
  SocketMetrics::Get().send_errors.Inc();
  return true;
}

void UdpNet::FlushOutbox(Loop* loop) {
  while (!loop->backlog.empty()) {
    if (!TrySend(loop, loop->backlog.front())) break;
    loop->backlog.pop_front();
    unsent_.fetch_sub(1, std::memory_order_acq_rel);
  }
  std::deque<Outgoing> fresh;
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    fresh.swap(loop->outbox);
  }
  for (Outgoing& out : fresh) {
    if (!loop->backlog.empty()) {
      loop->backlog.push_back(std::move(out));  // Preserve per-fd order.
      continue;
    }
    if (TrySend(loop, out)) {
      unsent_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      loop->backlog.push_back(std::move(out));
    }
  }
  if (loop->backlog.empty()) {
    // All caught up: retract any write interest armed by earlier EAGAINs.
    for (const int fd : loop->write_armed) {
      loop->event_loop->SetWriteInterest(fd, false);
    }
    loop->write_armed.clear();
  } else {
    std::unordered_set<int> pending;
    for (const Outgoing& out : loop->backlog) pending.insert(out.src_fd);
    for (const int fd : pending) {
      if (loop->write_armed.insert(fd).second) {
        loop->event_loop->SetWriteInterest(fd, true);
      }
    }
  }
}

void UdpNet::ReadSocket(Loop* loop, int fd) {
  (void)loop;
  const auto dst_it = fd_to_endpoint_.find(fd);
  if (dst_it == fd_to_endpoint_.end()) return;
  const int dst = dst_it->second;
  char buf[65536];
  std::vector<Incoming> batch;
  for (;;) {
    sockaddr_in src_addr{};
    socklen_t len = sizeof(src_addr);
    const ssize_t n = recvfrom(fd, buf, sizeof(buf), 0,
                               reinterpret_cast<sockaddr*>(&src_addr), &len);
    if (n < 0) break;  // EAGAIN (drained) or transient error.
    datagrams_received_.fetch_add(1, std::memory_order_relaxed);
    socket_bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
    SocketMetrics::Get().datagrams_received.Inc();
    SocketMetrics::Get().bytes_received.Inc(static_cast<uint64_t>(n));
    const auto src_it = port_to_endpoint_.find(ntohs(src_addr.sin_port));
    Incoming in;
    in.dst = dst;
    // Datagrams from sockets we never bound (test-injected garbage) carry
    // src -1; the frame decoder rejects what it must.
    in.src = src_it == port_to_endpoint_.end() ? -1 : src_it->second;
    in.bytes.assign(buf, buf + n);
    batch.push_back(std::move(in));
  }
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    for (Incoming& in : batch) inbound_.push_back(std::move(in));
  }
  inbound_cv_.notify_one();
}

void UdpNet::LoopMain(Loop* loop) {
  std::vector<EventLoop::Ready> ready;
  while (!stop_.load(std::memory_order_relaxed)) {
    FlushOutbox(loop);
    ready.clear();
    const int timeout_ms = loop->backlog.empty() ? 100 : 10;
    if (loop->event_loop->Poll(timeout_ms, &ready) < 0) return;
    for (const EventLoop::Ready& r : ready) {
      if (r.readable) ReadSocket(loop, r.fd);
    }
    // Writability is handled by the FlushOutbox at the top of the loop.
  }
}

bool UdpNet::QueuesDrained() {
  if (unsent_.load(std::memory_order_acquire) != 0) return false;
  std::lock_guard<std::mutex> lock(inbound_mutex_);
  return inbound_.empty();
}

int UdpNet::PumpOnce() {
  int n = wheel_.FireDue(now());
  std::deque<Incoming> batch;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    batch.swap(inbound_);
  }
  for (Incoming& in : batch) {
    obs::TraceScope span("socket_delivery", "net");
    endpoints_[static_cast<size_t>(in.dst)].handler(in.src, in.bytes);
  }
  return n + static_cast<int>(batch.size());
}

void UdpNet::ScheduleRetry(double delay_s, const RetryTimer& timer) {
  // No cancellation on the wheel: a timer whose send was acked fires, the
  // endpoint's transmit plan finds nothing pending, and nothing happens.
  wheel_.Schedule(now(), delay_s, [timer] {
    timer.target->OnRetry(timer.dst, timer.seq, timer.attempt);
  });
}

void UdpNet::RunUntilIdle() {
  Start();
  if (!ok_) return;
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    if (PumpOnce() > 0) {
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (QueuesDrained() && (idle_fn_ ? idle_fn_() : wheel_.empty())) return;
    if (SecondsSince(last_progress) > config_.idle_timeout_s) {
      idle_timeout_hit_ = true;
      // Post-mortem: dump the protocol-event ring so the wedged exchange
      // (who stopped acking whom) is reconstructible from the artifact.
      obs::Flight().DumpOnFailure("udp idle timeout after " +
                                  std::to_string(config_.idle_timeout_s) +
                                  "s without progress");
      return;
    }
    std::unique_lock<std::mutex> lock(inbound_mutex_);
    if (!inbound_.empty()) continue;
    // Armed timers bound the sleep at one wheel tick; otherwise wait for a
    // delivery (the cv) with a safety timeout.
    inbound_cv_.wait_for(lock, wheel_.empty()
                                   ? std::chrono::milliseconds(5)
                                   : std::chrono::milliseconds(1));
  }
}

void UdpNet::PumpFor(double seconds) {
  Start();
  if (!ok_) return;
  const auto t0 = std::chrono::steady_clock::now();
  while (SecondsSince(t0) < seconds) {
    if (PumpOnce() > 0) continue;
    std::unique_lock<std::mutex> lock(inbound_mutex_);
    if (!inbound_.empty()) continue;
    inbound_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

#endif  // POSIX

}  // namespace net
}  // namespace proxdet
