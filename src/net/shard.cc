#include "net/shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/socket/socket_server.h"
#include "net/socket/stats_server.h"
#include "obs/metrics.h"

namespace proxdet {
namespace net {

namespace {

/// SplitMix64 finalizer: the ring's only hash function. Statistically
/// uniform, trivially portable, and (unlike std::hash) pinned — the ring
/// assignment is part of the deterministic wire schedule.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key-domain separator: user keys and vnode labels must never collide on
/// the ring even in principle.
constexpr uint64_t kUserKeySalt = 0x517cc1b727220a95ULL;

/// Virtual nodes per shard on the consistent-hash ring.
constexpr int kRingVnodes = 16;

/// Batch-fill histogram: how many messages each downlink flush carried.
obs::HistogramMetric& BatchFillHistogram() {
  static obs::HistogramMetric& h = obs::Metrics().GetHistogram(
      "net.batch.fill", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0},
      obs::Kind::kDeterministic);
  return h;
}

/// Bytes a message would cost shipped alone: its own frame (seq varint
/// estimated at the common 1-byte width) plus the receiver's minimal ack.
size_t SoloCost(size_t payload_len) {
  return payload_len + FrameOverheadBytes(1, payload_len) + kMinFrameBytes;
}

/// Trace-entry list for a solo (non-batch) frame: one entry at item index
/// 0, or none when the message is untraced.
std::vector<TraceEntry> SoloTrace(const TraceCtx* ctx) {
  if (ctx == nullptr) return {};
  return {TraceEntry{0, *ctx}};
}

}  // namespace

// ---------------------------------------------------------------------------
// HashRing

HashRing::HashRing(int shards, int vnodes) : shards_(std::max(1, shards)) {
  vnodes = std::max(1, vnodes);
  ring_.reserve(static_cast<size_t>(shards_) * vnodes);
  for (int s = 0; s < shards_; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      const uint64_t label =
          (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
          static_cast<uint32_t>(v);
      ring_.emplace_back(Mix64(label), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int HashRing::ShardOf(UserId u) const {
  if (shards_ == 1) return 0;
  const uint64_t h =
      Mix64(kUserKeySalt ^ static_cast<uint64_t>(static_cast<uint32_t>(u)));
  // First vnode clockwise of the key; wrap to the ring's start.
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, -1));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

// ---------------------------------------------------------------------------
// DigestLedger

void DigestLedger::Expect(int shard, const LocationReportMsg& digest) {
  expected_[{shard, digest.user}] = digest;
}

bool DigestLedger::Consume(int shard, const LocationReportMsg& digest) {
  const auto it = expected_.find({shard, digest.user});
  if (it == expected_.end() || !(it->second == digest)) return false;
  expected_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// ShardedFrontend

ShardedFrontend::ShardedFrontend(const World& world, const NetConfig& config)
    : world_(world),
      config_(config),
      ring_(config.shards, kRingVnodes),
      graph_(world.graph()) {
  const int user_count = static_cast<int>(world.user_count());
  const int shard_count = ring_.shard_count();
  if (config.transport == TransportKind::kUdp) {
    socket_server_ = std::make_unique<SocketServer>(config, shard_count);
    net_ = socket_server_->backend();
    if (!socket_server_->ok()) failed_ = true;
  } else {
    sim_net_ = std::make_unique<SimNet>(config.seed);
    net_ = sim_net_.get();
  }
  home_.resize(user_count);
  for (UserId u = 0; u < user_count; ++u) home_[u] = ring_.ShardOf(u);

  // Clients register first so endpoint id == UserId (the identity the
  // protocol checks); shard endpoints follow in shard order, two per shard:
  // client-facing at user_count + 2s, mesh at user_count + 2s + 1. With
  // shards == 1 the client-facing endpoint lands on id user_count — exactly
  // the historical single-server id, so the whole wire schedule (frames,
  // Rng draws, schedule hash) is reproduced bit-for-bit.
  clients_.reserve(user_count);
  for (UserId u = 0; u < user_count; ++u) {
    const int server_id = user_count + 2 * home_[u];
    clients_.push_back(
        std::make_unique<ClientRuntime>(net_, &world_, u, server_id, config));
  }
  obs::Counter& bytes_up = obs::Metrics().GetCounter("net.bytes_up");
  obs::Counter& bytes_down = obs::Metrics().GetCounter("net.bytes_down");
  obs::Counter& bytes_xshard = obs::Metrics().GetCounter("net.bytes_xshard");
  shards_.resize(shard_count);
  for (int s = 0; s < shard_count; ++s) {
    Shard& shard = shards_[s];
    // Shard endpoints carry placement group s: on the UDP backend that pins
    // both of the shard's sockets to event loop s (one loop per shard).
    shard.server = std::make_unique<ProtocolServer>(net_, world.user_count(),
                                                    /*group=*/s);
    shard.server->set_served_filter(
        [this, s](UserId u) { return home_[u] == s; });
    shard.mesh = std::make_unique<ReliableEndpoint>(
        net_, kRetryTimeoutS, kMaxRetries,
        [this, s](int src, Frame&& frame) {
          OnMeshFrame(s, src, std::move(frame));
        },
        /*group=*/s);
    shard.mesh_id = shard.mesh->id();
    // The id layout above is load-bearing (clients were already pointed at
    // user_count + 2s); fail loudly if endpoint registration ever drifts.
    if (shard.server->endpoint().id() != user_count + 2 * s ||
        shard.mesh_id != user_count + 2 * s + 1) {
      failed_ = true;
    }
    const std::string prefix = "net.shard" + std::to_string(s);
    obs::Counter& shard_down =
        obs::Metrics().GetCounter(prefix + ".bytes_down");
    obs::Counter& shard_xshard =
        obs::Metrics().GetCounter(prefix + ".bytes_xshard");
    shard.server->endpoint().add_wire_bytes_counter(&bytes_down);
    shard.server->endpoint().add_wire_bytes_counter(&shard_down);
    shard.mesh->add_wire_bytes_counter(&bytes_xshard);
    shard.mesh->add_wire_bytes_counter(&shard_xshard);
    // Flight-recorder events from this shard's endpoints carry its label.
    shard.server->endpoint().set_flight_shard(s);
    shard.mesh->set_flight_shard(s);
  }
  // Per-shard uplink counters, registered on a shard's first user.
  std::vector<obs::Counter*> shard_up(shard_count, nullptr);
  for (UserId u = 0; u < user_count; ++u) {
    const int h = home_[u];
    shards_[h].users.push_back(u);
    if (shard_up[h] == nullptr) {
      shard_up[h] = &obs::Metrics().GetCounter(
          "net.shard" + std::to_string(h) + ".bytes_up");
    }
    clients_[u]->endpoint().add_wire_bytes_counter(&bytes_up);
    clients_[u]->endpoint().add_wire_bytes_counter(shard_up[h]);
    clients_[u]->endpoint().set_flight_shard(h);
  }
  if (config.trace) {
    latency_ = std::make_unique<AlertLatencyTracker>(net_, shard_count);
    for (auto& client : clients_) client->set_latency_tracker(latency_.get());
  }
  if (config.stats_port >= 0) {
    // Introspection is best-effort: a failed bind leaves stats_port() == -1
    // without failing the run.
    stats_server_ = std::make_unique<StatsServer>(config.stats_port);
  }

  if (sim_net_ != nullptr) {
    // Direction classification by endpoint id range: clients occupy
    // [0, user_count), shard endpoints everything above. Shard -> shard is
    // the mesh; shard -> client the downlink; client -> anything the uplink.
    const LinkModel up = config.up;
    const LinkModel down = config.down;
    const LinkModel mesh = config.mesh;
    const int n = user_count;
    sim_net_->SetLinkModelFn([up, down, mesh, n](int src, int dst) {
      if (src < n) return up;
      return dst < n ? down : mesh;
    });
  } else {
    // Quiescence over real sockets: queues drained and every reliable
    // endpoint fully acked. Stale lazily-cancelled retry timers may stay
    // armed — they fire later, find nothing pending, and do nothing.
    // Driver-thread-only state throughout, per the NetBackend contract.
    socket_server_->net().SetIdleFn([this] {
      for (const auto& client : clients_) {
        if (!client->endpoint().all_acked()) return false;
      }
      for (const Shard& shard : shards_) {
        if (!shard.server->endpoint().all_acked() || !shard.mesh->all_acked()) {
          return false;
        }
      }
      return true;
    });
  }

  client_queue_.resize(user_count);
  mesh_queue_.assign(shard_count,
                     std::vector<std::vector<MeshItem>>(shard_count));
  expect_.resize(user_count);
  is_touched_.assign(user_count, 0);
}

ShardedFrontend::~ShardedFrontend() = default;

int ShardedFrontend::stats_port() const {
  return stats_server_ != nullptr && stats_server_->ok()
             ? stats_server_->port()
             : -1;
}

void ShardedFrontend::ApplyGraphUpdates(int epoch) {
  const auto& updates = world_.scheduled_updates();
  while (next_update_ < updates.size() &&
         updates[next_update_].epoch <= epoch) {
    const GraphUpdate& up = updates[next_update_];
    if (up.insert) {
      graph_.AddEdge(up.u, up.w, up.alert_radius);
    } else {
      graph_.RemoveEdge(up.u, up.w);
    }
    ++next_update_;
  }
}

void ShardedFrontend::ForwardDigests(const LocationReportMsg& msg,
                                     const TraceCtx* ctx) {
  if (ring_.shard_count() == 1) return;
  const UserId u = msg.user;
  // Owners of u's cross-shard pairs: the home shard of every *smaller*
  // friend living elsewhere (OwnerOf picks the smaller endpoint's home; for
  // friends above u this shard is the owner and already has the report).
  std::vector<int>& targets = digest_targets_;
  targets.clear();
  for (const FriendEdge& e : graph_.FriendsOf(u)) {
    if (e.other < u && home_[e.other] != home_[u]) {
      targets.push_back(home_[e.other]);
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  if (targets.empty()) return;

  LocationReportMsg digest;
  digest.user = msg.user;
  digest.epoch = msg.epoch;
  digest.position = msg.position;  // Window stays empty: digests are cheap.
  ShardForwardMsg fwd;
  fwd.inner_kind = static_cast<uint8_t>(MsgKind::kLocationReport);
  fwd.inner = Encode(digest);
  // The digest's mesh leg is one more hop of the original report frame.
  TraceCtx mesh_ctx;
  if (ctx != nullptr) {
    mesh_ctx = *ctx;
    mesh_ctx.hops = static_cast<uint8_t>(ctx->hops + 1);
  }
  const TraceCtx* mesh_ctx_ptr = ctx != nullptr ? &mesh_ctx : nullptr;
  for (const int t : targets) {
    digests_.Expect(t, digest);
    if (config_.batch_downlink) {
      mesh_queue_[home_[u]][t].push_back(
          MeshItem{fwd, ctx != nullptr, mesh_ctx});
    } else {
      SendMesh(home_[u], t, fwd, mesh_ctx_ptr);
    }
  }
  if (!config_.batch_downlink) {
    net_->RunUntilIdle();
    if (digests_.outstanding() != 0) failed_ = true;
  }
}

void ShardedFrontend::Report(UserId u, int epoch, size_t window_len,
                             Vec2* position, std::vector<Vec2>* window) {
  ApplyGraphUpdates(epoch);
  clients_[u]->SendReport(epoch, window_len);
  net_->RunUntilIdle();
  std::optional<TraceCtx> report_ctx;
  if (!shards_[home_[u]].server->TakeReport(u, &report_, &report_ctx)) {
    // Only reachable when the reliability layer gave up (drop_rate ~ 1).
    // Fall back to the direct read so the engine stays well-defined; the
    // run is still flagged failed.
    failed_ = true;
    *position = world_.Position(u, epoch);
    world_.RecentWindow(u, epoch, window_len, window);
    if (window_len == 0) window->clear();
    return;
  }
  // Keep the owner shards of u's cross-shard pairs current before the
  // engine acts on the report.
  ForwardDigests(report_, report_ctx.has_value() ? &*report_ctx : nullptr);
  // Hand the engine the payload *as the server decoded it* — the codec's
  // exactness, not a shortcut, is what makes the transported run
  // bit-identical to the in-process one.
  *position = report_.position;
  window->swap(report_.window);
}

void ShardedFrontend::Downlink(UserId u, MsgKind kind,
                               std::vector<uint8_t> payload,
                               const TraceCtx* ctx) {
  if (config_.batch_downlink) {
    client_queue_[u].push_back(PendingItem{kind, std::move(payload),
                                           ctx != nullptr,
                                           ctx != nullptr ? *ctx : TraceCtx{}});
    Touch(u);
    return;
  }
  shards_[home_[u]].server->endpoint().Send(static_cast<int>(u), kind,
                                            payload, SoloTrace(ctx));
  net_->RunUntilIdle();
  VerifyClient(u);
}

void ShardedFrontend::PairDownlink(UserId u, UserId a, UserId b, MsgKind kind,
                                   std::vector<uint8_t> payload,
                                   const TraceCtx* ctx) {
  const int owner = ring_.OwnerOf(a, b);
  const int home = home_[u];
  if (owner == home) {
    TraceCtx direct_ctx;
    if (ctx != nullptr) {
      direct_ctx = *ctx;
      direct_ctx.hops = 1;  // One reliable hop: home shard -> client.
    }
    Downlink(u, kind, std::move(payload),
             ctx != nullptr ? &direct_ctx : nullptr);
    return;
  }
  // Cross-shard: the owner decided the message, the home shard delivers it.
  // Two reliable hops — the context rides both legs, hop count advancing,
  // and the value delivered to the client is identical in batched and
  // unbatched runs (the batched direct-append pre-sets hops = 2).
  ShardForwardMsg fwd;
  fwd.inner_kind = static_cast<uint8_t>(kind);
  fwd.inner = std::move(payload);
  expected_relays_[{owner, home}].insert(Encode(fwd));
  TraceCtx mesh_ctx;
  TraceCtx client_ctx;
  if (ctx != nullptr) {
    mesh_ctx = *ctx;
    mesh_ctx.hops = 1;
    client_ctx = *ctx;
    client_ctx.hops = 2;
  }
  if (config_.batch_downlink) {
    // Direct-append to the home queue at engine-call time so the client's
    // delivery order equals the engine's call order for every shard count;
    // the mesh copy still crosses the simulated wire and is verified (and
    // consumed) on receipt instead of delivered twice.
    client_queue_[u].push_back(
        PendingItem{kind, fwd.inner, ctx != nullptr, client_ctx});
    Touch(u);
    mesh_queue_[owner][home].push_back(
        MeshItem{std::move(fwd), ctx != nullptr, mesh_ctx});
    return;
  }
  SendMesh(owner, home, fwd, ctx != nullptr ? &mesh_ctx : nullptr);
  // The relay's delivery to the client happens inside the same drain: the
  // mesh handler's Send enqueues onto the running event loop.
  net_->RunUntilIdle();
  if (!expected_relays_[{owner, home}].empty()) failed_ = true;
  VerifyClient(u);
}

void ShardedFrontend::SendMesh(int from_shard, int to_shard,
                               const ShardForwardMsg& fwd,
                               const TraceCtx* ctx) {
  shards_[from_shard].mesh->Send(shards_[to_shard].mesh_id,
                                 MsgKind::kShardForward, Encode(fwd),
                                 SoloTrace(ctx));
}

void ShardedFrontend::OnMeshFrame(int shard, int src, Frame&& frame) {
  if (frame.kind == MsgKind::kShardForward) {
    ShardForwardMsg fwd;
    if (!Decode(frame.payload, &fwd)) {
      failed_ = true;
      return;
    }
    HandleMeshMessage(shard, src, fwd, frame.TraceFor(0));
    return;
  }
  if (frame.kind == MsgKind::kBatch) {
    std::vector<BatchItem> items;
    if (!DecodeBatch(frame.payload, &items)) {
      failed_ = true;
      return;
    }
    for (size_t i = 0; i < items.size(); ++i) {
      ShardForwardMsg fwd;
      if (items[i].kind != MsgKind::kShardForward ||
          !Decode(items[i].payload, &fwd)) {
        failed_ = true;
        return;
      }
      HandleMeshMessage(shard, src, fwd,
                        frame.TraceFor(static_cast<uint32_t>(i)));
    }
    return;
  }
  failed_ = true;  // Nothing else belongs on the mesh.
}

void ShardedFrontend::HandleMeshMessage(int shard, int src,
                                        const ShardForwardMsg& fwd,
                                        const TraceCtx* ctx) {
  // Mesh endpoint ids are user_count + 2s + 1; recover the sending shard.
  const int from_shard =
      (src - static_cast<int>(world_.user_count()) - 1) / 2;
  if (fwd.inner_kind == static_cast<uint8_t>(MsgKind::kLocationReport)) {
    LocationReportMsg digest;
    if (!Decode(fwd.inner, &digest)) {
      failed_ = true;
      return;
    }
    // The digest on the wire must be the digest the serving plane meant to
    // send — same reporter, epoch and bit-exact position — and each one is
    // accepted once.
    if (!digests_.Consume(shard, digest)) failed_ = true;
    return;
  }
  if (fwd.inner_kind != static_cast<uint8_t>(MsgKind::kAlert) &&
      fwd.inner_kind != static_cast<uint8_t>(MsgKind::kMatchInstall)) {
    failed_ = true;
    return;
  }
  // Relayed notice: verify against (and consume) the owner's expectation.
  auto& pending = expected_relays_[{from_shard, shard}];
  const auto it = pending.find(Encode(fwd));
  if (it == pending.end()) {
    failed_ = true;
    return;
  }
  pending.erase(it);
  if (config_.batch_downlink) return;  // Already direct-appended.
  // Store-and-forward: extract the target user and deliver from this shard.
  UserId target = -1;
  if (fwd.inner_kind == static_cast<uint8_t>(MsgKind::kAlert)) {
    AlertMsg msg;
    if (!Decode(fwd.inner, &msg)) {
      failed_ = true;
      return;
    }
    target = msg.user;
  } else {
    MatchInstallMsg msg;
    if (!Decode(fwd.inner, &msg)) {
      failed_ = true;
      return;
    }
    target = msg.user;
  }
  if (target < 0 || static_cast<size_t>(target) >= clients_.size() ||
      home_[target] != shard) {
    failed_ = true;
    return;
  }
  // The relayed delivery is one more reliable hop than the mesh leg.
  TraceCtx out_ctx;
  if (ctx != nullptr) {
    out_ctx = *ctx;
    out_ctx.hops = static_cast<uint8_t>(ctx->hops + 1);
  }
  // Flight-recorder breadcrumb: the ownership forward was relayed onward.
  if (obs::Flight().enabled()) {
    obs::FlightEvent event;
    event.kind = obs::FlightEventKind::kForward;
    event.shard = shard;
    event.src = src;
    event.dst = static_cast<int>(target);
    event.msg_kind = fwd.inner_kind;
    event.time_s = net_->now();
    obs::Flight().Record(event);
  }
  shards_[shard].server->endpoint().Send(
      static_cast<int>(target), static_cast<MsgKind>(fwd.inner_kind),
      fwd.inner, SoloTrace(ctx != nullptr ? &out_ctx : nullptr));
}

void ShardedFrontend::Probe(UserId u, int epoch) {
  ProbeMsg msg;
  msg.user = u;
  msg.epoch = epoch;
  expect_[u].probes += 1;
  if (config_.batch_downlink) {
    // A probe cannot wait for the epoch barrier — the engine blocks on the
    // probed report next. Enqueue (coalescing any earlier same-epoch items
    // for u into the same frame) and flush immediately.
    client_queue_[u].push_back(
        PendingItem{MsgKind::kProbe, Encode(msg), false, TraceCtx{}});
    Touch(u);
    FlushClient(u);
    net_->RunUntilIdle();
    VerifyClient(u);
    return;
  }
  Downlink(u, MsgKind::kProbe, Encode(msg), nullptr);
}

void ShardedFrontend::Alert(UserId u, UserId a, UserId b, int epoch) {
  AlertMsg msg;
  msg.user = u;
  msg.u = a;
  msg.w = b;
  msg.epoch = epoch;
  expect_[u].alerts += 1;
  if (latency_ != nullptr) {
    // Detect fires here, at the engine's serial commit site: one event id
    // per Alert() call, stamped with the owner shard's identity and the
    // backend clock, matched when the client's handler sees the frame.
    const uint64_t event_id = AlertEventId(u, a, b, epoch);
    latency_->RecordDetect(event_id, ring_.OwnerOf(a, b));
    TraceCtx ctx;
    ctx.origin_epoch = epoch;
    ctx.event_id = event_id;
    ctx.hops = 0;  // PairDownlink sets the per-leg hop counts.
    PairDownlink(u, a, b, MsgKind::kAlert, Encode(msg), &ctx);
    return;
  }
  PairDownlink(u, a, b, MsgKind::kAlert, Encode(msg), nullptr);
}

void ShardedFrontend::InstallRegion(UserId u, int epoch,
                                    const SafeRegionShape& region) {
  RegionInstallMsg msg;
  msg.user = u;
  msg.epoch = epoch;
  msg.region = region;
  // Both codings go to scratch; only the one shipped is copied out, at its
  // exact size (it waits in the client's queue until the epoch barrier).
  std::vector<uint8_t>& exact = install_exact_;
  std::vector<uint8_t>& compressed = install_compressed_;
  Encode(msg, &exact);
  const std::vector<uint8_t>* payload = &exact;
  if (config_.compress_installs) {
    EncodeCompressed(msg, &compressed);
    if (compressed.size() < exact.size()) {
      // The guard: the server decodes its own compressed encoding and ships
      // it only when the result is the *identical* shape. Quantized coding
      // is lossy in general; it goes on the wire only when proven lossless
      // for this payload (grid-snapped stripe anchors make that the common
      // case by construction).
      RegionInstallMsg decoded;
      if (Decode(compressed, &decoded) && decoded == msg) {
        compressed_installs_ += 1;
        compress_saved_bytes_ += exact.size() - compressed.size();
        payload = &compressed;
      } else {
        compress_mismatch_ += 1;
      }
    } else {
      compress_skipped_ += 1;
    }
  }
  expect_[u].regions += 1;
  expect_[u].region = std::move(msg.region);
  Downlink(u, MsgKind::kRegionInstall,
           std::vector<uint8_t>(payload->begin(), payload->end()), nullptr);
}

void ShardedFrontend::InstallMatch(UserId u, int epoch, MatchOp op, UserId a,
                                   UserId b, const Circle& region) {
  MatchInstallMsg msg;
  msg.user = u;
  msg.epoch = epoch;
  msg.op = static_cast<uint8_t>(op);
  msg.u = a;
  msg.w = b;
  msg.region = region;
  expect_[u].matches += 1;
  expect_[u].match_known = true;
  if (op == MatchOp::kDelete) {
    expect_[u].match.reset();
  } else {
    expect_[u].match = region;
  }
  PairDownlink(u, a, b, MsgKind::kMatchInstall, Encode(msg), nullptr);
}

void ShardedFrontend::FlushClient(UserId u) {
  std::vector<PendingItem>& queue = client_queue_[u];
  if (queue.empty()) return;
  ReliableEndpoint& endpoint = shards_[home_[u]].server->endpoint();
  BatchFillHistogram().Record(static_cast<double>(queue.size()));
  if (queue.size() == 1) {
    endpoint.Send(static_cast<int>(u), queue.front().kind,
                  queue.front().payload,
                  SoloTrace(queue.front().traced ? &queue.front().ctx
                                                 : nullptr));
    queue.clear();
    return;
  }
  std::vector<BatchItem> items;
  std::vector<TraceEntry> trace;
  items.reserve(queue.size());
  size_t solo_bytes = 0;
  for (size_t i = 0; i < queue.size(); ++i) {
    PendingItem& item = queue[i];
    solo_bytes += SoloCost(item.payload.size());
    if (item.traced) {
      trace.push_back(TraceEntry{static_cast<uint32_t>(i), item.ctx});
    }
    items.push_back(BatchItem{item.kind, std::move(item.payload)});
  }
  const std::vector<uint8_t> payload = EncodeBatch(items);
  batch_frames_ += 1;
  batch_messages_ += items.size();
  const size_t batched_bytes = SoloCost(payload.size());
  if (solo_bytes > batched_bytes) {
    batch_saved_bytes_ += solo_bytes - batched_bytes;
  }
  endpoint.Send(static_cast<int>(u), MsgKind::kBatch, payload, trace);
  queue.clear();
}

void ShardedFrontend::FlushMesh(int from_shard) {
  for (int to = 0; to < ring_.shard_count(); ++to) {
    std::vector<MeshItem>& queue = mesh_queue_[from_shard][to];
    if (queue.empty()) continue;
    if (queue.size() == 1) {
      SendMesh(from_shard, to, queue.front().fwd,
               queue.front().traced ? &queue.front().ctx : nullptr);
      queue.clear();
      continue;
    }
    std::vector<BatchItem> items;
    std::vector<TraceEntry> trace;
    items.reserve(queue.size());
    size_t solo_bytes = 0;
    for (size_t i = 0; i < queue.size(); ++i) {
      const MeshItem& item = queue[i];
      std::vector<uint8_t> bytes = Encode(item.fwd);
      solo_bytes += SoloCost(bytes.size());
      if (item.traced) {
        trace.push_back(TraceEntry{static_cast<uint32_t>(i), item.ctx});
      }
      items.push_back(BatchItem{MsgKind::kShardForward, std::move(bytes)});
    }
    const std::vector<uint8_t> payload = EncodeBatch(items);
    batch_frames_ += 1;
    batch_messages_ += items.size();
    const size_t batched_bytes = SoloCost(payload.size());
    if (solo_bytes > batched_bytes) {
      batch_saved_bytes_ += solo_bytes - batched_bytes;
    }
    shards_[from_shard].mesh->Send(shards_[to].mesh_id, MsgKind::kBatch,
                                   payload, trace);
    queue.clear();
  }
}

void ShardedFrontend::VerifyClient(UserId u) {
  const ClientRuntime& c = *clients_[u];
  const ClientExpect& e = expect_[u];
  if (c.probes_received() != e.probes || c.alerts().size() != e.alerts ||
      c.regions_installed() != e.regions ||
      c.match_notices() != e.matches || c.protocol_error()) {
    failed_ = true;
  }
  if (e.region.has_value()) {
    const auto& installed = c.installed_region();
    if (!installed.has_value() || !(*installed == *e.region)) {
      codec_exact_ = false;
    }
  }
  if (e.match_known) {
    const auto& match = c.match_region();
    if (e.match.has_value()) {
      if (!match.has_value() || !(*match == *e.match)) codec_exact_ = false;
    } else if (match.has_value()) {
      codec_exact_ = false;
    }
  }
}

void ShardedFrontend::Touch(UserId u) {
  if (is_touched_[u]) return;
  is_touched_[u] = 1;
  touched_.push_back(u);
}

void ShardedFrontend::EndEpoch(int /*epoch*/) {
  if (!config_.batch_downlink) {
    // Stop-and-wait already drained everything; just assert nothing is
    // still owed on the mesh.
    if (digests_.outstanding() != 0) failed_ = true;
    for (const auto& [key, pending] : expected_relays_) {
      if (!pending.empty()) failed_ = true;
    }
    return;
  }
  // Mesh first: owners' digests and relay mirrors land (and are verified)
  // before any client sees its batch.
  for (int s = 0; s < ring_.shard_count(); ++s) FlushMesh(s);
  net_->RunUntilIdle();
  if (digests_.outstanding() != 0) failed_ = true;
  for (const auto& [key, pending] : expected_relays_) {
    if (!pending.empty()) failed_ = true;
  }
  // Then one coalesced frame per touched client, in ascending user order.
  std::sort(touched_.begin(), touched_.end());
  for (const UserId u : touched_) FlushClient(u);
  net_->RunUntilIdle();
  for (const UserId u : touched_) {
    VerifyClient(u);
    is_touched_[u] = 0;
  }
  touched_.clear();
}

NetRunStats ShardedFrontend::Stats() const {
  NetRunStats s;
  s.shards.resize(ring_.shard_count());
  for (int i = 0; i < ring_.shard_count(); ++i) {
    const Shard& shard = shards_[i];
    ShardNetStats& out = s.shards[i];
    out.users = shard.users.size();
    const ReliableEndpoint& se = shard.server->endpoint();
    out.frames_down = se.frames_sent();
    out.bytes_down = se.bytes_sent();
    out.frames_xshard = shard.mesh->frames_sent();
    out.bytes_xshard = shard.mesh->bytes_sent();
    s.frames_down += out.frames_down;
    s.bytes_down += out.bytes_down;
    s.frames_xshard += out.frames_xshard;
    s.bytes_xshard += out.bytes_xshard;
    s.retransmits += se.retransmits() + shard.mesh->retransmits();
    s.dedup_discards += se.dedup_discards() + shard.mesh->dedup_discards();
    if (se.delivery_failed() || shard.mesh->delivery_failed() ||
        shard.server->protocol_error()) {
      s.failed = true;
    }
  }
  for (UserId u = 0; u < static_cast<UserId>(clients_.size()); ++u) {
    const ReliableEndpoint& e = clients_[u]->endpoint();
    s.frames_up += e.frames_sent();
    s.bytes_up += e.bytes_sent();
    s.shards[home_[u]].frames_up += e.frames_sent();
    s.shards[home_[u]].bytes_up += e.bytes_sent();
    s.retransmits += e.retransmits();
    s.dedup_discards += e.dedup_discards();
    if (e.delivery_failed()) s.failed = true;
    if (clients_[u]->protocol_error()) s.failed = true;
  }
  s.batch_frames = batch_frames_;
  s.batch_messages = batch_messages_;
  s.batch_saved_bytes = batch_saved_bytes_;
  s.compressed_installs = compressed_installs_;
  s.compress_skipped = compress_skipped_;
  s.compress_saved_bytes = compress_saved_bytes_;
  s.compress_mismatch = compress_mismatch_;
  if (failed_) s.failed = true;
  s.drops = net_->frames_dropped();
  s.duplicates = net_->frames_duplicated();
  s.virtual_seconds = net_->now();
  s.schedule_hash = net_->schedule_hash();
  if (socket_server_ != nullptr &&
      (!socket_server_->ok() || socket_server_->idle_timeout_hit())) {
    s.failed = true;
  }
  s.codec_exact = codec_exact_;
  return s;
}

std::vector<AlertEvent> ShardedFrontend::ClientAlerts() const {
  std::vector<AlertEvent> out;
  for (const auto& client : clients_) {
    const auto& alerts = client->alerts();
    out.insert(out.end(), alerts.begin(), alerts.end());
  }
  // Each logical alert is delivered to both endpoints of the pair; the
  // client-observed *stream* is the deduplicated union.
  SortAlerts(&out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace net
}  // namespace proxdet
