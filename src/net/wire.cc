#include "net/wire.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "geom/anchor_grid.h"

namespace proxdet {
namespace net {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Grid index of an on-grid coordinate; sets *exact to false when the
/// coordinate is off-grid or has no grid index.
int64_t QuantIndex(double v, bool* exact) {
  int64_t q = 0;
  if (!NearestAnchorGridIndex(v, &q) || AnchorGridCoordinate(q) != v) {
    *exact = false;
  }
  return q;
}

/// Writes `v` as LEB128 at `p`; returns the byte after it.
uint8_t* PutVarintRaw(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

uint64_t ZigzagBits(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Writes the low `n` bytes of `v` little-endian at `p`.
uint8_t* PutLittleEndian(uint8_t* p, uint64_t v, int n) {
  for (int i = 0; i < n; ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
  return p;
}

}  // namespace

void WireWriter::PutU16(uint16_t v) {
  uint8_t buf[2];
  PutBytes(buf, PutLittleEndian(buf, v, 2) - buf);
}

void WireWriter::PutU32(uint32_t v) {
  uint8_t buf[4];
  PutBytes(buf, PutLittleEndian(buf, v, 4) - buf);
}

void WireWriter::PutU64(uint64_t v) {
  uint8_t buf[8];
  PutBytes(buf, PutLittleEndian(buf, v, 8) - buf);
}

void WireWriter::PutVarint(uint64_t v) {
  uint8_t buf[10];
  PutBytes(buf, PutVarintRaw(buf, v) - buf);
}

void WireWriter::PutBytes(const uint8_t* data, size_t size) {
  bytes_->insert(bytes_->end(), data, data + size);
}

void WireWriter::PutZigzag(int64_t v) { PutVarint(ZigzagBits(v)); }

void WireWriter::PutDouble(double v) { PutU64(DoubleBits(v)); }

void WireWriter::PutVec2(const Vec2& v) {
  PutDouble(v.x);
  PutDouble(v.y);
}

void WireWriter::PutPoints(const std::vector<Vec2>& points) {
  PutVarint(points.size());
  uint64_t prev_x = 0;
  uint64_t prev_y = 0;
  for (const Vec2& p : points) {
    const uint64_t bx = DoubleBits(p.x);
    const uint64_t by = DoubleBits(p.y);
    PutVarint(bx ^ prev_x);
    PutVarint(by ^ prev_y);
    prev_x = bx;
    prev_y = by;
  }
}

bool PointsQuantizable(const std::vector<Vec2>& points) {
  bool exact = true;
  for (const Vec2& p : points) {
    QuantIndex(p.x, &exact);
    QuantIndex(p.y, &exact);
    if (!exact) return false;
  }
  return true;
}

void WireWriter::PutPointsQuantized(const std::vector<Vec2>& points) {
  PutVarint(points.size());
  int64_t prev_x = 0;
  int64_t prev_y = 0;
  bool exact = true;  // Callers guarantee PointsQuantizable().
  for (const Vec2& p : points) {
    const int64_t qx = QuantIndex(p.x, &exact);
    const int64_t qy = QuantIndex(p.y, &exact);
    PutZigzag(qx - prev_x);
    PutZigzag(qy - prev_y);
    prev_x = qx;
    prev_y = qy;
  }
}

uint8_t WireReader::GetU8() {
  if (!ok_ || remaining() < 1) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

uint16_t WireReader::GetU16() {
  if (!ok_ || remaining() < 2) {
    ok_ = false;
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t WireReader::GetU32() {
  if (!ok_ || remaining() < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t WireReader::GetU64() {
  if (!ok_ || remaining() < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

uint64_t WireReader::GetVarint() {
  uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (!ok_ || remaining() < 1) {
      ok_ = false;
      return 0;
    }
    const uint8_t b = data_[pos_++];
    // Byte 10 may only contribute the top value bit; anything else is an
    // overlong / overflowing encoding our writer never produces.
    if (i == 9 && b > 1) {
      ok_ = false;
      return 0;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
  ok_ = false;  // Continuation bit set on the 10th byte.
  return 0;
}

int64_t WireReader::GetZigzag() {
  const uint64_t v = GetVarint();
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

double WireReader::GetDouble() { return BitsDouble(GetU64()); }

Vec2 WireReader::GetVec2() {
  Vec2 v;
  v.x = GetDouble();
  v.y = GetDouble();
  return v;
}

bool WireReader::GetPoints(std::vector<Vec2>* out) {
  out->clear();
  const uint64_t count = GetVarint();
  // Each point costs at least 2 bytes (one varint byte per coordinate), so
  // an honest count never exceeds remaining()/2 — reject length bombs
  // before reserving.
  if (!ok_ || count > kMaxWirePoints || count * 2 > remaining()) {
    ok_ = false;
    return false;
  }
  out->reserve(count);
  uint64_t bx = 0;
  uint64_t by = 0;
  for (uint64_t i = 0; i < count; ++i) {
    bx ^= GetVarint();
    by ^= GetVarint();
    if (!ok_) return false;
    out->push_back({BitsDouble(bx), BitsDouble(by)});
  }
  return ok_;
}

bool WireReader::GetPointsQuantized(std::vector<Vec2>* out) {
  out->clear();
  const uint64_t count = GetVarint();
  if (!ok_ || count > kMaxWirePoints || count * 2 > remaining()) {
    ok_ = false;
    return false;
  }
  out->reserve(count);
  int64_t qx = 0;
  int64_t qy = 0;
  for (uint64_t i = 0; i < count; ++i) {
    qx += GetZigzag();
    qy += GetZigzag();
    if (!ok_ || std::abs(qx) > kMaxAnchorGridIndex ||
        std::abs(qy) > kMaxAnchorGridIndex) {
      ok_ = false;
      return false;
    }
    // Exact: the grid index is exact in a double and the scale is a power
    // of two, so this reproduces the encoder's input bit-for-bit.
    out->push_back({AnchorGridCoordinate(qx), AnchorGridCoordinate(qy)});
  }
  return ok_;
}

const uint8_t* WireReader::GetBytes(size_t size) {
  if (!ok_ || remaining() < size) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += size;
  return p;
}

uint32_t Fnv1a32(const uint8_t* data, size_t size) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Message payload codecs.

namespace {

/// UserIds are dense non-negative indices; encode as varint, reject
/// anything that does not fit back into the id type.
void PutUser(WireWriter* w, UserId u) {
  w->PutVarint(static_cast<uint64_t>(u));
}

UserId GetUser(WireReader* r, bool* valid) {
  const uint64_t v = r->GetVarint();
  if (v > 0x7fffffffULL) *valid = false;
  return static_cast<UserId>(v);
}

bool Done(const WireReader& r) { return r.ok() && r.remaining() == 0; }

/// Runs `write` against the calling thread's scratch buffer and returns an
/// exactly sized copy: one allocation per message and no capacity slack in
/// buffers the caller retains (queued downlink payloads live until the
/// epoch barrier).
template <typename Write>
std::vector<uint8_t> EncodeExact(Write&& write) {
  thread_local std::vector<uint8_t> scratch;
  scratch.clear();
  WireWriter w(&scratch);
  write(&w);
  return std::vector<uint8_t>(scratch.begin(), scratch.end());
}

void PutReport(WireWriter* w, const LocationReportMsg& msg) {
  PutUser(w, msg.user);
  w->PutZigzag(msg.epoch);
  w->PutVec2(msg.position);
  w->PutPoints(msg.window);
}

}  // namespace

std::vector<uint8_t> Encode(const LocationReportMsg& msg) {
  return EncodeExact([&](WireWriter* w) { PutReport(w, msg); });
}

void Encode(const LocationReportMsg& msg, std::vector<uint8_t>* out) {
  out->clear();
  WireWriter w(out);
  PutReport(&w, msg);
}

bool Decode(const std::vector<uint8_t>& payload, LocationReportMsg* out) {
  WireReader r(payload.data(), payload.size());
  bool valid = true;
  out->user = GetUser(&r, &valid);
  out->epoch = static_cast<int32_t>(r.GetZigzag());
  out->position = r.GetVec2();
  if (!r.GetPoints(&out->window)) return false;
  return valid && Done(r);
}

std::vector<uint8_t> Encode(const ProbeMsg& msg) {
  return EncodeExact([&](WireWriter* w) {
    PutUser(w, msg.user);
    w->PutZigzag(msg.epoch);
  });
}

bool Decode(const std::vector<uint8_t>& payload, ProbeMsg* out) {
  WireReader r(payload.data(), payload.size());
  bool valid = true;
  out->user = GetUser(&r, &valid);
  out->epoch = static_cast<int32_t>(r.GetZigzag());
  return valid && Done(r);
}

std::vector<uint8_t> Encode(const AlertMsg& msg) {
  return EncodeExact([&](WireWriter* w) {
    PutUser(w, msg.user);
    PutUser(w, msg.u);
    PutUser(w, msg.w);
    w->PutZigzag(msg.epoch);
  });
}

bool Decode(const std::vector<uint8_t>& payload, AlertMsg* out) {
  WireReader r(payload.data(), payload.size());
  bool valid = true;
  out->user = GetUser(&r, &valid);
  out->u = GetUser(&r, &valid);
  out->w = GetUser(&r, &valid);
  out->epoch = static_cast<int32_t>(r.GetZigzag());
  return valid && Done(r);
}

namespace {

// Shape tags are part of the wire format; new shapes append, never renumber.
// The *Q tags are the quantized-delta codings of the same shapes — a
// decoder treats them as alternate encodings, not new geometry.
enum ShapeTag : uint8_t {
  kTagCircle = 1,
  kTagMovingCircle = 2,
  kTagPolygon = 3,
  kTagStripe = 4,
  kTagPolygonQ = 5,
  kTagStripeQ = 6,
};

/// The calling thread's anchor list for the stripe codec: a Stripe stores
/// its anchors as coordinate arrays and the point codecs take a Vec2 list.
/// Reused across messages, so steady-state installs allocate nothing here.
std::vector<Vec2>& AnchorScratch() {
  thread_local std::vector<Vec2> scratch;
  return scratch;
}

struct ShapeEncoder {
  WireWriter* w;
  bool allow_quantized = false;
  void operator()(const Circle& c) const {
    w->PutU8(kTagCircle);
    w->PutVec2(c.center);
    w->PutDouble(c.radius);
  }
  void operator()(const MovingCircle& m) const {
    w->PutU8(kTagMovingCircle);
    w->PutVec2(m.center_at_build);
    w->PutVec2(m.velocity_per_epoch);
    w->PutDouble(m.radius);
    w->PutZigzag(m.built_epoch);
  }
  void operator()(const ConvexPolygon& p) const {
    if (allow_quantized && PointsQuantizable(p.vertices())) {
      w->PutU8(kTagPolygonQ);
      w->PutPointsQuantized(p.vertices());
      return;
    }
    w->PutU8(kTagPolygon);
    w->PutPoints(p.vertices());
  }
  void operator()(const Stripe& s) const {
    std::vector<Vec2>& anchors = AnchorScratch();
    anchors.clear();
    for (size_t i = 0; i < s.anchor_count(); ++i) {
      anchors.push_back(s.anchor(i));
    }
    // Only the anchors are quantized; the radius is a solver output off any
    // grid, and at 8 bytes per install it is not worth approximating.
    if (allow_quantized && PointsQuantizable(anchors)) {
      w->PutU8(kTagStripeQ);
      w->PutDouble(s.radius());
      w->PutPointsQuantized(anchors);
      return;
    }
    w->PutU8(kTagStripe);
    w->PutDouble(s.radius());
    w->PutPoints(anchors);
  }
};

}  // namespace

void PutShape(WireWriter* w, const SafeRegionShape& shape,
              bool allow_quantized) {
  std::visit(ShapeEncoder{w, allow_quantized}, shape);
}

bool GetShape(WireReader* r, SafeRegionShape* out) {
  // Reconstruction goes through the public constructors, which re-derive
  // every cached field (polygon bounds, stripe reject box) from the decoded
  // data — and the shapes already held by the engine were built the same
  // way, so decoded == sent under the shapes' structural operator==.
  switch (r->GetU8()) {
    case kTagCircle: {
      Circle c;
      c.center = r->GetVec2();
      c.radius = r->GetDouble();
      *out = c;
      break;
    }
    case kTagMovingCircle: {
      MovingCircle m;
      m.center_at_build = r->GetVec2();
      m.velocity_per_epoch = r->GetVec2();
      m.radius = r->GetDouble();
      m.built_epoch = static_cast<int>(r->GetZigzag());
      *out = m;
      break;
    }
    case kTagPolygon: {
      std::vector<Vec2> vertices;
      if (!r->GetPoints(&vertices)) return false;
      *out = ConvexPolygon(std::move(vertices));
      break;
    }
    case kTagStripe: {
      const double radius = r->GetDouble();
      std::vector<Vec2>& anchors = AnchorScratch();
      if (!r->GetPoints(&anchors)) return false;
      *out = Stripe(anchors.data(), anchors.size(), radius);
      break;
    }
    case kTagPolygonQ: {
      std::vector<Vec2> vertices;
      if (!r->GetPointsQuantized(&vertices)) return false;
      *out = ConvexPolygon(std::move(vertices));
      break;
    }
    case kTagStripeQ: {
      const double radius = r->GetDouble();
      std::vector<Vec2>& anchors = AnchorScratch();
      if (!r->GetPointsQuantized(&anchors)) return false;
      *out = Stripe(anchors.data(), anchors.size(), radius);
      break;
    }
    default:
      return false;
  }
  return r->ok();
}

namespace {

void PutRegionInstall(WireWriter* w, const RegionInstallMsg& msg,
                      bool allow_quantized) {
  PutUser(w, msg.user);
  w->PutZigzag(msg.epoch);
  PutShape(w, msg.region, allow_quantized);
}

}  // namespace

std::vector<uint8_t> Encode(const RegionInstallMsg& msg) {
  return EncodeExact([&](WireWriter* w) { PutRegionInstall(w, msg, false); });
}

void Encode(const RegionInstallMsg& msg, std::vector<uint8_t>* out) {
  out->clear();
  WireWriter w(out);
  PutRegionInstall(&w, msg, false);
}

std::vector<uint8_t> EncodeCompressed(const RegionInstallMsg& msg) {
  return EncodeExact([&](WireWriter* w) { PutRegionInstall(w, msg, true); });
}

void EncodeCompressed(const RegionInstallMsg& msg, std::vector<uint8_t>* out) {
  out->clear();
  WireWriter w(out);
  PutRegionInstall(&w, msg, true);
}

bool Decode(const std::vector<uint8_t>& payload, RegionInstallMsg* out) {
  WireReader r(payload.data(), payload.size());
  bool valid = true;
  out->user = GetUser(&r, &valid);
  out->epoch = static_cast<int32_t>(r.GetZigzag());
  if (!GetShape(&r, &out->region)) return false;
  return valid && Done(r);
}

std::vector<uint8_t> Encode(const MatchInstallMsg& msg) {
  return EncodeExact([&](WireWriter* w) {
    PutUser(w, msg.user);
    w->PutZigzag(msg.epoch);
    w->PutU8(msg.op);
    PutUser(w, msg.u);
    PutUser(w, msg.w);
    w->PutVec2(msg.region.center);
    w->PutDouble(msg.region.radius);
  });
}

bool Decode(const std::vector<uint8_t>& payload, MatchInstallMsg* out) {
  WireReader r(payload.data(), payload.size());
  bool valid = true;
  out->user = GetUser(&r, &valid);
  out->epoch = static_cast<int32_t>(r.GetZigzag());
  out->op = r.GetU8();
  if (out->op > 2) return false;  // MatchOp range.
  out->u = GetUser(&r, &valid);
  out->w = GetUser(&r, &valid);
  out->region.center = r.GetVec2();
  out->region.radius = r.GetDouble();
  return valid && Done(r);
}

namespace {

/// Kinds allowed inside envelopes: the downlink notices a client batch can
/// carry plus the shard-to-shard forward. Location reports stay unbatched
/// (the uplink is a single report per epoch already), acks are
/// transport-level, and batches never nest.
bool EnvelopeKindOk(uint8_t kind) {
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::kProbe:
    case MsgKind::kAlert:
    case MsgKind::kRegionInstall:
    case MsgKind::kMatchInstall:
      return true;
    case MsgKind::kShardForward:
      return true;
    default:
      return false;
  }
}

/// Inner kinds a shard forward can wrap: location digests and the two
/// pair-owned downlink notices.
bool ForwardInnerKindOk(uint8_t kind) {
  switch (static_cast<MsgKind>(kind)) {
    case MsgKind::kLocationReport:
    case MsgKind::kAlert:
    case MsgKind::kMatchInstall:
      return true;
    default:
      return false;
  }
}

/// Length-prefixed byte blob.
bool GetBlob(WireReader* r, std::vector<uint8_t>* out) {
  const uint64_t len = r->GetVarint();
  if (!r->ok() || len > r->remaining()) return false;
  const uint8_t* bytes = r->GetBytes(static_cast<size_t>(len));
  if (bytes == nullptr) return false;
  out->assign(bytes, bytes + len);
  return true;
}

}  // namespace

std::vector<uint8_t> Encode(const ShardForwardMsg& msg) {
  std::vector<uint8_t> out;
  out.reserve(1 + VarintSize(msg.inner.size()) + msg.inner.size());
  WireWriter w(&out);
  w.PutU8(msg.inner_kind);
  w.PutVarint(msg.inner.size());
  w.PutBytes(msg.inner.data(), msg.inner.size());
  return out;
}

bool Decode(const std::vector<uint8_t>& payload, ShardForwardMsg* out) {
  WireReader r(payload.data(), payload.size());
  out->inner_kind = r.GetU8();
  if (!ForwardInnerKindOk(out->inner_kind)) return false;
  if (!GetBlob(&r, &out->inner)) return false;
  return Done(r);
}

std::vector<uint8_t> EncodeBatch(const std::vector<BatchItem>& items) {
  size_t size = VarintSize(items.size());
  for (const BatchItem& item : items) {
    size += 1 + VarintSize(item.payload.size()) + item.payload.size();
  }
  std::vector<uint8_t> out;
  out.reserve(size);
  WireWriter w(&out);
  w.PutVarint(items.size());
  for (const BatchItem& item : items) {
    w.PutU8(static_cast<uint8_t>(item.kind));
    w.PutVarint(item.payload.size());
    w.PutBytes(item.payload.data(), item.payload.size());
  }
  return out;
}

bool DecodeBatch(const std::vector<uint8_t>& payload,
                 std::vector<BatchItem>* out) {
  out->clear();
  WireReader r(payload.data(), payload.size());
  const uint64_t count = r.GetVarint();
  // Each item costs at least 2 bytes (kind + length); an empty batch is a
  // framing bug, not a message.
  if (!r.ok() || count == 0 || count * 2 > r.remaining()) return false;
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BatchItem item;
    const uint8_t kind = r.GetU8();
    if (!EnvelopeKindOk(kind)) return false;
    item.kind = static_cast<MsgKind>(kind);
    if (!GetBlob(&r, &item.payload)) return false;
    out->push_back(std::move(item));
  }
  return Done(r);
}

// ---------------------------------------------------------------------------
// Framing.

namespace {

size_t TraceExtensionBytes(const std::vector<TraceEntry>& trace) {
  if (trace.empty()) return 0;
  size_t size = VarintSize(trace.size());
  for (const TraceEntry& e : trace) {
    size += VarintSize(e.index) + VarintSize(ZigzagBits(e.ctx.origin_epoch)) +
            VarintSize(e.ctx.event_id) + 1;
  }
  return size;
}

/// One pass over a buffer of exactly the frame's length: header, payload,
/// trace extension (traced frames only), checksum.
void WriteFrame(MsgKind kind, uint64_t seq, const uint8_t* payload,
                size_t payload_len, const std::vector<TraceEntry>& trace,
                uint8_t* out) {
  uint8_t* p = PutLittleEndian(out, kWireMagic, 2);
  *p++ = trace.empty() ? kWireVersion : kWireVersionTraced;
  *p++ = static_cast<uint8_t>(kind);
  p = PutVarintRaw(p, seq);
  p = PutVarintRaw(p, payload_len);
  if (payload_len > 0) {
    std::memcpy(p, payload, payload_len);
    p += payload_len;
  }
  if (!trace.empty()) {
    p = PutVarintRaw(p, trace.size());
    for (const TraceEntry& e : trace) {
      p = PutVarintRaw(p, e.index);
      p = PutVarintRaw(p, ZigzagBits(e.ctx.origin_epoch));
      p = PutVarintRaw(p, e.ctx.event_id);
      *p++ = e.ctx.hops;
    }
  }
  PutLittleEndian(p, Fnv1a32(out, static_cast<size_t>(p - out)), 4);
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MsgKind kind, uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  return EncodeFrameTraced(kind, seq, payload, {});
}

std::vector<uint8_t> EncodeFrameTraced(MsgKind kind, uint64_t seq,
                                       const std::vector<uint8_t>& payload,
                                       const std::vector<TraceEntry>& trace) {
  std::vector<uint8_t> bytes;
  EncodeFrameInto(kind, seq, payload.data(), payload.size(), trace, &bytes);
  return bytes;
}

void EncodeFrameInto(MsgKind kind, uint64_t seq, const uint8_t* payload,
                     size_t payload_len, const std::vector<TraceEntry>& trace,
                     std::vector<uint8_t>* out) {
  out->resize(FrameOverheadBytes(seq, payload_len) + payload_len +
              TraceExtensionBytes(trace));
  WriteFrame(kind, seq, payload, payload_len, trace, out->data());
}

size_t EncodeAckFrame(uint64_t seq, uint8_t* out) {
  WriteFrame(MsgKind::kAck, seq, nullptr, 0, {}, out);
  return FrameOverheadBytes(seq, 0);
}

bool DecodeFrame(const uint8_t* data, size_t size, Frame* out) {
  // Smallest legal frame: magic(2) + version(1) + kind(1) + seq(1) +
  // len(1) + checksum(4).
  if (size < kMinFrameBytes) return false;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(data[size - 4 + i]) << (8 * i);
  }
  if (Fnv1a32(data, size - 4) != stored) return false;
  WireReader r(data, size - 4);
  if (r.GetU16() != kWireMagic) return false;
  out->version = r.GetU8();
  if (out->version != kWireVersion && out->version != kWireVersionTraced) {
    return false;
  }
  const uint8_t kind = r.GetU8();
  if (kind < 1 || kind > kMaxMsgKind) return false;
  out->kind = static_cast<MsgKind>(kind);
  out->seq = r.GetVarint();
  const uint64_t length = r.GetVarint();
  if (!r.ok() || length > r.remaining()) return false;
  const size_t payload_off = (size - 4) - r.remaining();
  out->payload.assign(data + payload_off, data + payload_off + length);
  out->trace.clear();
  if (out->version == kWireVersion) {
    // Version 1: the payload must run exactly to the checksum.
    return length == r.remaining();
  }
  // Version 2: a trace extension follows the payload. An empty extension is
  // a framing bug — untraced frames are version 1.
  WireReader t(data + payload_off + length,
               r.remaining() - static_cast<size_t>(length));
  const uint64_t count = t.GetVarint();
  // Each entry costs at least 4 bytes (index + epoch + event id + hops).
  // Cap before the size math so a 64-bit count can't overflow it, and
  // reject length bombs before reserve() allocates anything.
  if (!t.ok() || count == 0 || count > kMaxTraceEntries ||
      count > t.remaining() / 4) {
    return false;
  }
  out->trace.reserve(count);
  uint64_t prev_index = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TraceEntry e;
    const uint64_t index = t.GetVarint();
    if (index > UINT32_MAX) return false;
    if (i > 0 && index <= prev_index) return false;
    prev_index = index;
    e.index = static_cast<uint32_t>(index);
    const int64_t epoch = t.GetZigzag();
    if (epoch < INT32_MIN || epoch > INT32_MAX) return false;
    e.ctx.origin_epoch = static_cast<int32_t>(epoch);
    e.ctx.event_id = t.GetVarint();
    e.ctx.hops = t.GetU8();
    out->trace.push_back(e);
  }
  return t.ok() && t.remaining() == 0;
}

}  // namespace net
}  // namespace proxdet
