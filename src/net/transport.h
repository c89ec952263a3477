#ifndef PROXDET_NET_TRANSPORT_H_
#define PROXDET_NET_TRANSPORT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client_link.h"
#include "core/simulation.h"
#include "net/sim_net.h"
#include "net/wire.h"

namespace proxdet {
namespace net {

/// Which substrate carries the frames of a transported run.
enum class TransportKind {
  kSim,  // Deterministic in-process SimNet (virtual time; the oracle).
  kUdp,  // Real UDP loopback sockets (net/socket/; wall-clock timers).
};

/// Retransmission timeout (seconds; attempt k waits k + 1 timeouts) and
/// retry budget of every reliable endpoint in a transported run: client,
/// shard server and shard mesh alike.
constexpr double kRetryTimeoutS = 0.05;
constexpr int kMaxRetries = 64;

/// Configuration of one transported run: the link directions, the transport
/// seed (independent of the workload seed) and the serving-plane knobs.
struct NetConfig {
  TransportKind transport = TransportKind::kSim;
  LinkModel up;    // client -> server (SimNet only)
  LinkModel down;  // server -> client (SimNet only)
  LinkModel mesh;  // shard <-> shard (SimNet only; used when shards > 1)
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Serving-plane partition count. Users map to shards by consistent
  /// hashing on UserId (net::HashRing); each shard runs its own
  /// ProtocolServer plus a mesh endpoint for shard-to-shard traffic.
  /// shards == 1 reproduces the historical single-server wire schedule
  /// bit-for-bit (same endpoint ids, same frames, same Rng draws).
  int shards = 1;
  /// Coalesce all deliverable-at-epoch-granularity downlink for one client
  /// (installs, alerts, non-blocking probes) into a single kBatch frame per
  /// epoch instead of one frame + ack per message.
  bool batch_downlink = false;
  /// Ship region installs in the quantized-delta polyline encoding when the
  /// guard proves it decodes to the *identical* shape (see
  /// EncodeCompressed); falls back to the exact encoding otherwise.
  bool compress_installs = false;
  /// Stamp alert frames with a wire-propagated TraceCtx (version-2 trace
  /// extension) and account per-alert detect->deliver latency — virtual
  /// time under SimNet, wall clock under UDP (see AlertLatencyTracker).
  /// Off by default: untraced runs stay byte-identical with pre-trace
  /// builds.
  bool trace = false;
  /// Serve the live introspection endpoint (GET /metrics -> Prometheus
  /// text, anything else -> JSON snapshot) on this TCP port for the run's
  /// duration: -1 = disabled, 0 = kernel-chosen ephemeral port (see
  /// StatsServer::port()), >0 = fixed port.
  int stats_port = -1;

  // --- UDP backend knobs (transport == kUdp; ignored otherwise). The UDP
  // path has no LinkModel (no synthetic latency/jitter — loopback is the
  // latency); loss and duplication are injected per datagram copy at the
  // socket layer instead.
  /// First port for the shard-server/mesh sockets (port, port+1, ...);
  /// 0 binds every socket to a kernel-chosen ephemeral port.
  uint16_t udp_port = 0;
  /// Event-loop threads shared by the client sockets (shards get one each).
  int udp_client_loops = 2;
  double udp_drop_rate = 0.0;
  double udp_dup_rate = 0.0;
  /// RunUntilIdle watchdog: a run making no progress for this long is
  /// flagged failed instead of hanging.
  double udp_idle_timeout_s = 60.0;
};

/// Per-shard wire accounting inside a sharded transported run. Uplink is
/// attributed to the user's home shard; downlink is what the shard's
/// client-facing endpoint transmitted; xshard is what its mesh endpoint
/// transmitted (digests, relays, mesh acks).
struct ShardNetStats {
  uint64_t users = 0;  // Users homed on this shard (ring assignment).
  uint64_t frames_up = 0;
  uint64_t bytes_up = 0;
  uint64_t frames_down = 0;
  uint64_t bytes_down = 0;
  uint64_t frames_xshard = 0;
  uint64_t bytes_xshard = 0;
};

/// Wire-level outcome of a transported run, alongside the CommStats the
/// engine accumulates.
struct NetRunStats {
  uint64_t frames_up = 0;    // Client -> server transmissions (incl. acks).
  uint64_t bytes_up = 0;
  uint64_t frames_down = 0;  // Server -> client transmissions (incl. acks).
  uint64_t bytes_down = 0;
  uint64_t frames_xshard = 0;  // Shard mesh transmissions (incl. acks).
  uint64_t bytes_xshard = 0;
  uint64_t retransmits = 0;
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t dedup_discards = 0;
  double virtual_seconds = 0.0;  // Final SimNet clock.
  uint64_t schedule_hash = 0;    // Determinism fingerprint (SimNet).
  /// Per-shard breakdown; size == NetConfig::shards. Sums of the per-shard
  /// direction totals equal the global totals above (asserted by
  /// ReconcileWithCommStats).
  std::vector<ShardNetStats> shards;
  /// Downlink batching: kBatch frames sent, messages they carried, and the
  /// bytes saved versus one frame + ack per message.
  uint64_t batch_frames = 0;
  uint64_t batch_messages = 0;
  uint64_t batch_saved_bytes = 0;
  /// Install compression: installs shipped quantized, installs where
  /// quantization did not shrink the payload, bytes saved, and guard
  /// failures (shipped exact instead; always 0 for grid-snapped stripes).
  uint64_t compressed_installs = 0;
  uint64_t compress_skipped = 0;
  uint64_t compress_saved_bytes = 0;
  uint64_t compress_mismatch = 0;
  /// Every decoded install compared equal (operator==, bitwise) to the
  /// shape the server sent — the codec exactness contract, checked live on
  /// every region/match install of the run.
  bool codec_exact = true;
  /// A frame exhausted kMaxRetries or a payload failed to decode; only
  /// reachable with a pathological config (drop_rate ~ 1).
  bool failed = false;
};

class AlertLatencyTracker;

/// Client-side runtime of one user: reads its own trajectory from the
/// World (that is the client's private knowledge), uploads reports on
/// request, and records everything the server pushes down — probes,
/// alerts, safe-region installs, match notices.
class ClientRuntime {
 public:
  ClientRuntime(NetBackend* net, const World* world, UserId id, int server_id,
                const NetConfig& config);

  /// Encodes and sends this client's location report for `epoch`;
  /// `window_len` == 0 sends a position-only report.
  void SendReport(int epoch, size_t window_len);

  /// Routes delivered alert trace contexts into the run's latency tracker
  /// (nullptr, the default, ignores them).
  void set_latency_tracker(AlertLatencyTracker* tracker) {
    latency_ = tracker;
  }

  ReliableEndpoint& endpoint() { return endpoint_; }
  const ReliableEndpoint& endpoint() const { return endpoint_; }
  const std::vector<AlertEvent>& alerts() const { return alerts_; }
  uint64_t probes_received() const { return probes_received_; }
  uint64_t regions_installed() const { return regions_installed_; }
  uint64_t match_notices() const { return match_notices_; }
  /// Trace contexts of delivered alerts, in delivery order (only populated
  /// on traced runs; alerts_[i] matches traced_alerts_[i] when sizes agree).
  const std::vector<TraceCtx>& alert_traces() const { return alert_traces_; }
  const std::optional<SafeRegionShape>& installed_region() const {
    return installed_region_;
  }
  const std::optional<Circle>& match_region() const { return match_region_; }
  bool protocol_error() const { return protocol_error_; }

 private:
  void HandleFrame(Frame&& frame);
  /// One logical downlink message (either a whole frame's payload or one
  /// batch envelope item, with the trace context its frame carried for it —
  /// nullptr when untraced). Returns false on a decode/protocol violation.
  bool HandleMessage(MsgKind kind, const std::vector<uint8_t>& payload,
                     const TraceCtx* ctx);

  const World* world_;
  UserId id_;
  int server_id_;
  bool trace_ = false;
  AlertLatencyTracker* latency_ = nullptr;
  std::vector<AlertEvent> alerts_;
  std::vector<TraceCtx> alert_traces_;
  uint64_t probes_received_ = 0;
  uint64_t regions_installed_ = 0;
  uint64_t match_notices_ = 0;
  std::optional<SafeRegionShape> installed_region_;
  std::optional<Circle> match_region_;
  bool protocol_error_ = false;
  ReliableEndpoint endpoint_;  // Last: its handler captures `this`.
};

/// Server-side frame sink: decodes uplink location reports into an inbox
/// the engine link drains synchronously. The inbox holds only undrained
/// reports (one, in the stop-and-wait uplink), and its entries keep their
/// window capacity from report to report.
class ProtocolServer {
 public:
  /// `group` pins the server's socket to its shard's event loop on real
  /// backends (see NetBackend::AddEndpoint).
  ProtocolServer(NetBackend* net, size_t user_count, int group = -1);

  /// Moves u's undrained report into `*out` (its window buffer is swapped
  /// with the inbox entry's, so neither side reallocates) and, when
  /// `trace` is non-null, the trace context its frame carried (nullopt for
  /// untraced frames). False when no report from u is waiting.
  bool TakeReport(UserId u, LocationReportMsg* out,
                  std::optional<TraceCtx>* trace = nullptr);

  /// Restricts the users this server accepts reports from (a sharded
  /// frontend serves only its ring partition); a report from any other user
  /// is a protocol violation. Unset accepts every user (single-server).
  void set_served_filter(std::function<bool(UserId)> served) {
    served_ = std::move(served);
  }

  ReliableEndpoint& endpoint() { return endpoint_; }
  const ReliableEndpoint& endpoint() const { return endpoint_; }
  bool protocol_error() const { return protocol_error_; }

 private:
  struct InboxEntry {
    LocationReportMsg msg;
    std::optional<TraceCtx> trace;
  };

  void HandleFrame(int src, Frame&& frame);

  size_t user_count_;
  /// inbox_[0, inbox_size_) are undrained reports, at most one per user;
  /// entries past inbox_size_ are spares keeping their buffers.
  std::vector<InboxEntry> inbox_;
  size_t inbox_size_ = 0;
  std::function<bool(UserId)> served_;
  bool protocol_error_ = false;
  ReliableEndpoint endpoint_;
};

/// ClientLink implementation over the simulated network: every engine
/// message becomes a framed, sequence-numbered, acked wire exchange, run to
/// quiescence before the engine continues (stop-and-wait, matching the
/// paper's synchronous epoch model — latency and loss shape virtual time
/// and wire counters, never alert semantics, because delivery is
/// at-least-once with dedup).
class ShardedFrontend;

class TransportLink : public ClientLink {
 public:
  TransportLink(const World& world, const NetConfig& config);
  ~TransportLink() override;

  void Report(UserId u, int epoch, size_t window_len, Vec2* position,
              std::vector<Vec2>* window) override;
  void Probe(UserId u, int epoch) override;
  void Alert(UserId u, UserId a, UserId b, int epoch) override;
  void InstallRegion(UserId u, int epoch,
                     const SafeRegionShape& region) override;
  void InstallMatch(UserId u, int epoch, MatchOp op, UserId a, UserId b,
                    const Circle& region) override;
  void EndEpoch(int epoch) override;

  /// Wire accounting and determinism fingerprint for the run so far.
  NetRunStats Stats() const;

  /// Union of the alert events delivered to the clients, deduplicated
  /// (each pair alert reaches both endpoints) and sorted — the
  /// client-observed alert stream the keystone test compares to ground
  /// truth.
  std::vector<AlertEvent> ClientAlerts() const;

  const ClientRuntime& client(UserId u) const;
  /// The deterministic backend, or nullptr when the run rides real sockets.
  const SimNet* sim_net() const;
  const ShardedFrontend& frontend() const { return *frontend_; }
  /// The run's latency tracker, or nullptr when NetConfig::trace is off.
  const AlertLatencyTracker* latency_tracker() const;
  /// Bound port of the live introspection endpoint, or -1 when disabled.
  int stats_port() const;

 private:
  /// All serving-plane state (SimNet, clients, shards, ring, batch queues)
  /// lives in the frontend; shards == 1 is just the one-partition case of
  /// the same machinery and reproduces the historical single-server wire
  /// schedule bit-for-bit.
  std::unique_ptr<ShardedFrontend> frontend_;
};

/// Detector decorator: runs the wrapped engine with a TransportLink
/// installed, then exposes the *client-observed* alert stream as its own
/// and merges wire bytes into stats(). With a zero-impairment NetConfig the
/// result is bit-exact (alerts, message counts, rebuild counts) with the
/// wrapped engine run in-process — the keystone contract of the network
/// layer.
class TransportedDetector : public Detector {
 public:
  TransportedDetector(std::unique_ptr<Detector> inner, NetConfig config);

  std::string name() const override;
  void Run(const World& world) override;

  const NetRunStats& net_stats() const { return net_stats_; }
  Detector& inner() { return *inner_; }
  const Detector& inner() const { return *inner_; }

 private:
  std::unique_ptr<Detector> inner_;
  NetConfig config_;
  NetRunStats net_stats_;
};

/// Transported analogue of RunMethod: builds the method's detector, runs it
/// through the simulated network, and reports both the engine-side RunResult
/// (stats carry bytes_up/bytes_down; alerts_exact is judged on the
/// *client-observed* stream) and the wire-level stats.
struct TransportedRunResult {
  RunResult run;
  NetRunStats net;
};

TransportedRunResult RunTransportedMethod(Method method,
                                          const Workload& workload,
                                          const NetConfig& config,
                                          RegionDetector::Options options = {});

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_TRANSPORT_H_
