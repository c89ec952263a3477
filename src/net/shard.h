#ifndef PROXDET_NET_SHARD_H_
#define PROXDET_NET_SHARD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "graph/interest_graph.h"
#include "net/latency.h"
#include "net/transport.h"

namespace proxdet {
namespace net {

/// Consistent-hash ring mapping UserId -> shard. Each shard contributes
/// `vnodes` virtual nodes at deterministic hash positions; a user lands on
/// the first vnode clockwise of its own hash. Fully deterministic (no
/// ambient randomness): the assignment is a pure function of
/// (shards, vnodes), identical across runs and platforms. Adding a shard
/// moves only the keys that fall into the new shard's vnode arcs — the
/// consistent-hashing property the serving plane relies on for smooth
/// repartitioning.
class HashRing {
 public:
  HashRing(int shards, int vnodes);

  int ShardOf(UserId u) const;

  /// Deterministic owner of pair (a, b): the home shard of the smaller
  /// endpoint. Pair-scoped messages (alerts, match notices) originate at the
  /// owner and are relayed over the mesh when the target user lives
  /// elsewhere.
  int OwnerOf(UserId a, UserId b) const { return ShardOf(a < b ? a : b); }

  int shard_count() const { return shards_; }

 private:
  int shards_;
  /// Sorted (vnode hash, shard) points; ties broken by shard index at
  /// construction (hash collisions across vnode labels are possible in
  /// principle, never ambiguous in effect).
  std::vector<std::pair<uint64_t, int>> ring_;
};

/// Owner-side verification of forwarded location digests: for each
/// (shard, user), the digest the serving plane sent that shard and the
/// shard has not yet received. An arriving digest must equal the
/// outstanding one for its key (same reporter, epoch and bit-exact
/// position) and consumes it, so verification is exact per key — a
/// repeated or unexpected digest is rejected even while other digests are
/// in flight.
class DigestLedger {
 public:
  /// Records `digest` as sent to `shard`.
  void Expect(int shard, const LocationReportMsg& digest);
  /// True, consuming the entry, when `digest` is the one outstanding for
  /// (shard, digest.user); false (and nothing consumed) otherwise.
  bool Consume(int shard, const LocationReportMsg& digest);
  size_t outstanding() const { return expected_.size(); }

 private:
  std::map<std::pair<int, UserId>, LocationReportMsg> expected_;
};

/// The sharded serving plane: `config.shards` ProtocolServer partitions on
/// one SimNet, each with a client-facing endpoint and a mesh endpoint, plus
/// every ClientRuntime. Users are assigned to shards by the HashRing; all
/// uplink and downlink for a user flows through its home shard.
///
/// Cross-shard pairs follow the owner rule (HashRing::OwnerOf): the owner
/// shard originates pair-scoped downlink and needs the non-resident
/// endpoint's location, so every report fans out as a windowless location
/// digest (ShardForwardMsg) to each shard owning one of the reporter's
/// cross-shard pairs. Alerts/match notices for a user homed away from the
/// owner are relayed over the mesh to the home shard, which delivers them.
///
/// Two delivery disciplines, bit-exact in everything the engines observe:
///  - unbatched: every message is its own framed, acked, stop-and-wait
///    exchange (the historical schedule; shards == 1 reproduces the
///    single-server byte stream exactly).
///  - batched (config.batch_downlink): per-client downlink of one epoch is
///    coalesced into a single kBatch frame flushed at the EndEpoch barrier
///    (probes flush immediately — the engine blocks on the probed report).
///    Mesh traffic batches per shard pair the same way.
///
/// Everything the wire carries is verified against the engine's intent:
/// digests are checked at the owner against the position the server
/// decoded, relayed notices against the bytes the owner queued, and each
/// touched client's decoded state (install counts, final region, final
/// match) against per-user expectation trackers at every flush point. Any
/// mismatch marks the run failed / codec-inexact — the sharded plane has no
/// silent divergence mode.
class SocketServer;
class StatsServer;

class ShardedFrontend {
 public:
  ShardedFrontend(const World& world, const NetConfig& config);
  ~ShardedFrontend();

  // ClientLink-shaped surface (TransportLink delegates 1:1).
  void Report(UserId u, int epoch, size_t window_len, Vec2* position,
              std::vector<Vec2>* window);
  void Probe(UserId u, int epoch);
  void Alert(UserId u, UserId a, UserId b, int epoch);
  void InstallRegion(UserId u, int epoch, const SafeRegionShape& region);
  void InstallMatch(UserId u, int epoch, MatchOp op, UserId a, UserId b,
                    const Circle& region);
  void EndEpoch(int epoch);

  NetRunStats Stats() const;
  std::vector<AlertEvent> ClientAlerts() const;

  const ClientRuntime& client(UserId u) const { return *clients_[u]; }
  /// The deterministic backend, or nullptr when the run rides real sockets.
  const SimNet* sim_net() const { return sim_net_.get(); }
  /// The real-socket substrate, or nullptr on the SimNet path.
  const SocketServer* socket_server() const { return socket_server_.get(); }
  const HashRing& ring() const { return ring_; }
  int home_shard(UserId u) const { return home_[u]; }
  /// The run's latency tracker, or nullptr when NetConfig::trace is off.
  const AlertLatencyTracker* latency_tracker() const { return latency_.get(); }
  /// Bound port of the live introspection endpoint, or -1 when disabled.
  int stats_port() const;

 private:
  /// One serving partition: the client-facing ProtocolServer plus the mesh
  /// endpoint for shard-to-shard digests and relays.
  struct Shard {
    std::unique_ptr<ProtocolServer> server;
    std::unique_ptr<ReliableEndpoint> mesh;
    int mesh_id = -1;
    std::vector<UserId> users;  // Sorted; the ring partition.
  };

  /// What the engine has told this client so far — updated at engine-call
  /// time, compared against the client's decoded state at flush points.
  struct ClientExpect {
    uint64_t probes = 0;
    uint64_t alerts = 0;
    uint64_t regions = 0;
    uint64_t matches = 0;
    std::optional<SafeRegionShape> region;
    std::optional<Circle> match;
    bool match_known = false;  // InstallMatch seen at least once.
  };

  /// One queued downlink message for a client (batch mode), with the trace
  /// context it will carry on the wire (hops pre-set to the delivered
  /// value, so batched and unbatched runs stamp identical contexts).
  struct PendingItem {
    MsgKind kind;
    std::vector<uint8_t> payload;
    bool traced = false;
    TraceCtx ctx;
  };

  /// One queued mesh message (batch mode), with the context its mesh-leg
  /// frame carries.
  struct MeshItem {
    ShardForwardMsg fwd;
    bool traced = false;
    TraceCtx ctx;
  };

  void ApplyGraphUpdates(int epoch);
  /// Fan the freshly decoded report out as location digests to every shard
  /// owning one of u's cross-shard pairs; `ctx` is the report frame's trace
  /// context (nullptr when untraced) and rides the digest mesh frames with
  /// its hop count advanced.
  void ForwardDigests(const LocationReportMsg& msg, const TraceCtx* ctx);
  /// Queue (batched) or immediately deliver (unbatched) one downlink
  /// message for user u from its home shard; `ctx` (nullptr = untraced)
  /// must already carry the delivered hop count.
  void Downlink(UserId u, MsgKind kind, std::vector<uint8_t> payload,
                const TraceCtx* ctx);
  /// Route one pair-scoped message: owner delivers directly when it homes
  /// u, otherwise relays over the mesh (and, batched, direct-appends to the
  /// home queue so per-client order matches the engine for every shard
  /// count, with the mesh copy verified on receipt). `ctx`'s hops field is
  /// ignored: the route sets it per leg (1 for a direct delivery, 1 on the
  /// mesh leg and 2 on the relayed delivery).
  void PairDownlink(UserId u, UserId a, UserId b, MsgKind kind,
                    std::vector<uint8_t> payload, const TraceCtx* ctx);
  void SendMesh(int from_shard, int to_shard, const ShardForwardMsg& fwd,
                const TraceCtx* ctx);
  void OnMeshFrame(int shard, int src, Frame&& frame);
  void HandleMeshMessage(int shard, int src, const ShardForwardMsg& fwd,
                         const TraceCtx* ctx);
  /// Flush u's queued downlink: one plain frame for a single item, one
  /// kBatch frame otherwise. No-op when the queue is empty.
  void FlushClient(UserId u);
  void FlushMesh(int from_shard);
  /// Compare u's decoded client state against its expectation tracker.
  void VerifyClient(UserId u);
  /// Adds u to this epoch's flush set (batch mode).
  void Touch(UserId u);

  const World& world_;
  NetConfig config_;
  HashRing ring_;
  /// Exactly one backend is live per run; net_ is the polymorphic view the
  /// rest of the frontend drives. Declared before the endpoints below so
  /// destruction tears the endpoints down first, then the substrate (for
  /// UDP that joins the loop threads; handlers only ever ran on the driver
  /// thread, so no handler can be in flight by then).
  std::unique_ptr<SimNet> sim_net_;
  std::unique_ptr<SocketServer> socket_server_;
  NetBackend* net_ = nullptr;
  std::vector<std::unique_ptr<ClientRuntime>> clients_;
  std::vector<Shard> shards_;
  std::vector<int> home_;  // UserId -> shard.

  /// Current interest graph (initial graph + scheduled updates applied
  /// through the current epoch) — the digest fan-out's adjacency source.
  InterestGraph graph_;
  size_t next_update_ = 0;

  /// Digests in flight to their owner shards, verified on receipt.
  DigestLedger digests_;
  /// Report scratch: the decoded report passes through here on its way to
  /// the engine (window buffers are swapped, never reallocated).
  LocationReportMsg report_;
  /// ForwardDigests' target-shard scratch.
  std::vector<int> digest_targets_;
  /// InstallRegion's encoding scratch (exact and quantized codings).
  std::vector<uint8_t> install_exact_;
  std::vector<uint8_t> install_compressed_;

  /// Relayed-notice verification: per (owner, home) multiset of encoded
  /// ShardForwardMsg payloads in flight (jitter may reorder mesh frames, so
  /// matching is by content, not position).
  std::map<std::pair<int, int>, std::multiset<std::vector<uint8_t>>>
      expected_relays_;

  // Batch mode queues.
  std::vector<std::vector<PendingItem>> client_queue_;        // By UserId.
  std::vector<std::vector<std::vector<MeshItem>>> mesh_queue_;
  std::vector<ClientExpect> expect_;
  /// Clients with traffic this epoch, in first-touch order (sorted before
  /// the flush: ascending-user flush order fixes the event ids), and the
  /// per-user membership flag.
  std::vector<UserId> touched_;
  std::vector<uint8_t> is_touched_;

  /// Per-alert detect->deliver accounting (NetConfig::trace runs only).
  std::unique_ptr<AlertLatencyTracker> latency_;
  /// Live introspection endpoint (NetConfig::stats_port >= 0 runs only).
  std::unique_ptr<StatsServer> stats_server_;

  // Accounting (see NetRunStats).
  uint64_t batch_frames_ = 0;
  uint64_t batch_messages_ = 0;
  uint64_t batch_saved_bytes_ = 0;
  uint64_t compressed_installs_ = 0;
  uint64_t compress_skipped_ = 0;
  uint64_t compress_saved_bytes_ = 0;
  uint64_t compress_mismatch_ = 0;
  bool failed_ = false;
  bool codec_exact_ = true;
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_SHARD_H_
