#include "net/transport.h"

#include <algorithm>
#include <utility>

#include "net/latency.h"
#include "net/shard.h"
#include "obs/metrics.h"

namespace proxdet {
namespace net {

// ---------------------------------------------------------------------------
// ClientRuntime

ClientRuntime::ClientRuntime(NetBackend* net, const World* world, UserId id,
                             int server_id, const NetConfig& config)
    : world_(world),
      id_(id),
      server_id_(server_id),
      trace_(config.trace),
      endpoint_(net, kRetryTimeoutS, kMaxRetries,
                [this](int /*src*/, Frame&& frame) {
                  HandleFrame(std::move(frame));
                }) {}

void ClientRuntime::SendReport(int epoch, size_t window_len) {
  // One scratch message and payload per thread serve every client: the
  // endpoint copies the payload into its pending frame before Send returns.
  thread_local LocationReportMsg msg;
  thread_local std::vector<uint8_t> payload;
  msg.user = id_;
  msg.epoch = epoch;
  msg.position = world_->Position(id_, epoch);
  if (window_len > 0) {
    world_->RecentWindow(id_, epoch, window_len, &msg.window);
  } else {
    msg.window.clear();
  }
  Encode(msg, &payload);
  if (trace_) {
    // The causal root: hop 0 of the position update's journey. The server
    // keeps the context alongside the decoded report so digest fan-out and
    // any resulting alert can be linked back to this frame.
    TraceCtx ctx;
    ctx.origin_epoch = epoch;
    ctx.event_id = ReportEventId(id_, epoch);
    ctx.hops = 0;
    endpoint_.Send(server_id_, MsgKind::kLocationReport, payload,
                   {TraceEntry{0, ctx}});
    return;
  }
  endpoint_.Send(server_id_, MsgKind::kLocationReport, payload);
}

bool ClientRuntime::HandleMessage(MsgKind kind,
                                  const std::vector<uint8_t>& payload,
                                  const TraceCtx* ctx) {
  switch (kind) {
    case MsgKind::kProbe: {
      ProbeMsg msg;
      if (!Decode(payload, &msg)) return false;
      probes_received_ += 1;
      return true;
    }
    case MsgKind::kAlert: {
      AlertMsg msg;
      if (!Decode(payload, &msg)) return false;
      alerts_.push_back(AlertEvent{msg.epoch, msg.u, msg.w});
      if (ctx != nullptr) {
        alert_traces_.push_back(*ctx);
        if (latency_ != nullptr) latency_->RecordDeliver(*ctx);
      }
      return true;
    }
    case MsgKind::kRegionInstall: {
      RegionInstallMsg msg;
      if (!Decode(payload, &msg)) return false;
      installed_region_ = std::move(msg.region);
      regions_installed_ += 1;
      return true;
    }
    case MsgKind::kMatchInstall: {
      MatchInstallMsg msg;
      if (!Decode(payload, &msg)) return false;
      if (msg.op == static_cast<uint8_t>(MatchOp::kDelete)) {
        match_region_.reset();
      } else {
        match_region_ = msg.region;
      }
      match_notices_ += 1;
      return true;
    }
    default:
      return false;
  }
}

void ClientRuntime::HandleFrame(Frame&& frame) {
  if (frame.kind == MsgKind::kBatch) {
    // One coalesced epoch's downlink: unpack and apply the items in order —
    // exactly the per-message path, amortizing frame + ack overhead. Trace
    // entry i of the frame belongs to batch item i.
    std::vector<BatchItem> items;
    if (!DecodeBatch(frame.payload, &items)) {
      protocol_error_ = true;
      return;
    }
    for (size_t i = 0; i < items.size(); ++i) {
      if (!HandleMessage(items[i].kind, items[i].payload,
                         frame.TraceFor(static_cast<uint32_t>(i)))) {
        protocol_error_ = true;
        return;
      }
    }
    return;
  }
  if (!HandleMessage(frame.kind, frame.payload, frame.TraceFor(0))) {
    protocol_error_ = true;
  }
}

// ---------------------------------------------------------------------------
// ProtocolServer

ProtocolServer::ProtocolServer(NetBackend* net, size_t user_count,
                               int group)
    : user_count_(user_count),
      endpoint_(net, kRetryTimeoutS, kMaxRetries,
                [this](int src, Frame&& frame) {
                  HandleFrame(src, std::move(frame));
                },
                group) {}

void ProtocolServer::HandleFrame(int src, Frame&& frame) {
  if (frame.kind != MsgKind::kLocationReport) {
    protocol_error_ = true;
    return;
  }
  // Decode into the first spare entry; it joins the inbox only if valid.
  if (inbox_size_ == inbox_.size()) inbox_.emplace_back();
  InboxEntry& entry = inbox_[inbox_size_];
  LocationReportMsg& msg = entry.msg;
  if (!Decode(frame.payload, &msg)) {
    protocol_error_ = true;
    return;
  }
  // Endpoint ids coincide with user ids by construction; a report claiming
  // another identity is a protocol violation.
  if (msg.user != static_cast<UserId>(src) || msg.user < 0 ||
      static_cast<size_t>(msg.user) >= user_count_) {
    protocol_error_ = true;
    return;
  }
  // A sharded server serves only its ring partition; anyone else's report
  // landing here means the ring routing broke.
  if (served_ && !served_(msg.user)) {
    protocol_error_ = true;
    return;
  }
  const TraceCtx* ctx = frame.TraceFor(0);
  entry.trace = ctx != nullptr ? std::optional<TraceCtx>(*ctx) : std::nullopt;
  // A newer report from the same user replaces the undrained one.
  for (size_t i = 0; i < inbox_size_; ++i) {
    if (inbox_[i].msg.user == msg.user) {
      std::swap(inbox_[i], entry);
      return;
    }
  }
  inbox_size_ += 1;
}

bool ProtocolServer::TakeReport(UserId u, LocationReportMsg* out,
                                std::optional<TraceCtx>* trace) {
  for (size_t i = 0; i < inbox_size_; ++i) {
    InboxEntry& entry = inbox_[i];
    if (entry.msg.user != u) continue;
    out->user = entry.msg.user;
    out->epoch = entry.msg.epoch;
    out->position = entry.msg.position;
    out->window.swap(entry.msg.window);
    if (trace != nullptr) *trace = entry.trace;
    // Close the gap; the drained entry becomes the first spare.
    inbox_size_ -= 1;
    std::swap(entry, inbox_[inbox_size_]);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// TransportLink

TransportLink::TransportLink(const World& world, const NetConfig& config)
    : frontend_(std::make_unique<ShardedFrontend>(world, config)) {}

TransportLink::~TransportLink() = default;

void TransportLink::Report(UserId u, int epoch, size_t window_len,
                           Vec2* position, std::vector<Vec2>* window) {
  frontend_->Report(u, epoch, window_len, position, window);
}

void TransportLink::Probe(UserId u, int epoch) { frontend_->Probe(u, epoch); }

void TransportLink::Alert(UserId u, UserId a, UserId b, int epoch) {
  frontend_->Alert(u, a, b, epoch);
}

void TransportLink::InstallRegion(UserId u, int epoch,
                                  const SafeRegionShape& region) {
  frontend_->InstallRegion(u, epoch, region);
}

void TransportLink::InstallMatch(UserId u, int epoch, MatchOp op, UserId a,
                                 UserId b, const Circle& region) {
  frontend_->InstallMatch(u, epoch, op, a, b, region);
}

void TransportLink::EndEpoch(int epoch) { frontend_->EndEpoch(epoch); }

NetRunStats TransportLink::Stats() const { return frontend_->Stats(); }

std::vector<AlertEvent> TransportLink::ClientAlerts() const {
  return frontend_->ClientAlerts();
}

const ClientRuntime& TransportLink::client(UserId u) const {
  return frontend_->client(u);
}

const SimNet* TransportLink::sim_net() const { return frontend_->sim_net(); }

const AlertLatencyTracker* TransportLink::latency_tracker() const {
  return frontend_->latency_tracker();
}

int TransportLink::stats_port() const { return frontend_->stats_port(); }

// ---------------------------------------------------------------------------
// TransportedDetector

TransportedDetector::TransportedDetector(std::unique_ptr<Detector> inner,
                                         NetConfig config)
    : inner_(std::move(inner)), config_(config) {}

std::string TransportedDetector::name() const {
  return "Transported(" + inner_->name() + ")";
}

void TransportedDetector::Run(const World& world) {
  TransportLink link(world, config_);
  inner_->set_link(&link);
  inner_->Run(world);
  inner_->set_link(nullptr);
  net_stats_ = link.Stats();
  // The engine owns the message counts; the transport contributes the
  // byte-level totals it actually put on the wire (frames, retransmits,
  // acks — both directions, plus the shard mesh).
  stats_ = inner_->stats();
  stats_.bytes_up = net_stats_.bytes_up;
  stats_.bytes_down = net_stats_.bytes_down;
  stats_.bytes_xshard = net_stats_.bytes_xshard;
  stats_.batch_saved_bytes = net_stats_.batch_saved_bytes;
  // The detector's alert stream is what the *clients* received over the
  // wire — the end-to-end correctness claim, not the server's intent.
  alerts_ = link.ClientAlerts();
}

// ---------------------------------------------------------------------------

TransportedRunResult RunTransportedMethod(Method method,
                                          const Workload& workload,
                                          const NetConfig& config,
                                          RegionDetector::Options options) {
  TransportedDetector detector(MakeDetector(method, workload, options), config);
  detector.Run(workload.world);
  TransportedRunResult result;
  result.run.method = method;
  result.run.stats = detector.stats();
  if (const auto* rd =
          dynamic_cast<const RegionDetector*>(&detector.inner())) {
    result.run.rebuild_count = rd->rebuild_count();
  }
  const std::vector<AlertEvent> alerts = detector.SortedAlerts();
  result.run.alert_count = alerts.size();
  result.run.alerts_exact = alerts == workload.GroundTruth();
  result.net = detector.net_stats();
  return result;
}

}  // namespace net
}  // namespace proxdet
