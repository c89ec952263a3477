#ifndef PROXDET_NET_WIRE_H_
#define PROXDET_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/circle.h"
#include "geom/vec2.h"
#include "graph/interest_graph.h"
#include "region/region.h"

namespace proxdet {
namespace net {

/// Binary wire protocol for the client<->server detection traffic: the five
/// message kinds CommStats counts, plus the transport-level ack. All
/// encodings are fixed little-endian; lengths and small integers are LEB128
/// varints; point lists (recent windows, stripe paths, polygon rings) are
/// varint-packed with an XOR-delta scheme that is *exactly* invertible —
/// every double round-trips bit-for-bit, so a decoded safe region compares
/// equal (operator==, structural/bitwise) to the one the server built.
///
/// Frame layout (DecodeFrame rejects anything malformed):
///   u16  magic 0x5044 ("PD", little-endian)
///   u8   version (kWireVersion, or kWireVersionTraced)
///   u8   kind (MsgKind)
///   var  sequence number (per src->dst stream; acks echo the acked seq)
///   var  payload byte length
///   ...  payload
///   ...  trace extension (kWireVersionTraced frames only; see TraceCtx)
///   u32  FNV-1a checksum of everything above
constexpr uint16_t kWireMagic = 0x5044;
constexpr uint8_t kWireVersion = 1;

/// Version-2 frames append a trace extension between the payload and the
/// checksum: varint entry count (>= 1; an untraced frame stays version 1),
/// then per entry (varint item_index, zigzag origin_epoch, varint event_id,
/// u8 hops) with strictly increasing item indices. Decoders accept both
/// versions — old-version frames simply carry no TraceCtx — and the
/// checksum still covers every byte, so single-byte corruption of a traced
/// frame is rejected exactly like an untraced one.
constexpr uint8_t kWireVersionTraced = 2;

/// Hard cap on decoded point-list lengths: rejects length-bomb frames
/// before any allocation. Far above any real payload (windows are ~10
/// points, stripes tens).
constexpr uint64_t kMaxWirePoints = 1u << 20;

/// Hard cap on decoded trace-extension entry counts, mirroring
/// kMaxWirePoints: rejects length-bomb frames before any allocation. A
/// trace entry covers one payload item, so real counts track payload sizes.
constexpr uint64_t kMaxTraceEntries = 1u << 20;

/// Encoded size of a LEB128 varint — the batching math in the sharded
/// frontend and the frame-overhead accounting below share this with the
/// codec, so the two can never drift.
constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Fixed parts of the frame header/trailer: magic(2) + version(1) +
/// kind(1), and the FNV-1a checksum.
constexpr size_t kFrameFixedHeaderBytes = 4;
constexpr size_t kFrameChecksumBytes = 4;

/// Exact per-frame overhead (everything except the payload bytes) for a
/// frame carrying sequence number `seq` and `payload_len` payload bytes.
constexpr size_t FrameOverheadBytes(uint64_t seq, size_t payload_len) {
  return kFrameFixedHeaderBytes + VarintSize(seq) + VarintSize(payload_len) +
         kFrameChecksumBytes;
}

/// Smallest legal frame: single-byte seq and length varints, no payload.
/// This is the amortizable cost the batched downlink exists to save.
constexpr size_t kMinFrameBytes = FrameOverheadBytes(0, 0);
static_assert(kMinFrameBytes == 10,
              "frame overhead drifted from the documented layout");
static_assert(VarintSize(0x7f) == 1 && VarintSize(0x80) == 2 &&
                  VarintSize(~0ULL) == 10,
              "LEB128 size accounting is wrong");

enum class MsgKind : uint8_t {
  kLocationReport = 1,  // client -> server
  kProbe = 2,           // server -> client
  kAlert = 3,           // server -> client
  kRegionInstall = 4,   // server -> client
  kMatchInstall = 5,    // server -> client
  kAck = 6,             // transport-level acknowledgement, either direction
  kBatch = 7,           // envelope: several same-epoch messages, one frame
  kShardForward = 8,    // shard -> shard: digest or relayed downlink notice
};

/// Highest MsgKind DecodeFrame accepts; new kinds append, never renumber.
constexpr uint8_t kMaxMsgKind = static_cast<uint8_t>(MsgKind::kShardForward);

/// Little-endian byte sink with the protocol's primitive encoders. Writes
/// into its own buffer (handed out by Take()) or appends to a caller's
/// buffer, so a hot path can reuse one buffer's capacity across messages.
/// Every primitive is a single append, never a byte-at-a-time push.
class WireWriter {
 public:
  WireWriter() : bytes_(&owned_) {}
  /// Appends to `*out`; the writer must not outlive it.
  explicit WireWriter(std::vector<uint8_t>* out) : bytes_(out) {}
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void PutU8(uint8_t v) { bytes_->push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// LEB128: 7 value bits per byte, high bit = continuation.
  void PutVarint(uint64_t v);
  /// Zigzag-mapped varint for signed values (epochs, built_epoch).
  void PutZigzag(int64_t v);
  /// IEEE-754 bit pattern, fixed 8 bytes little-endian. Exact.
  void PutDouble(double v);
  void PutVec2(const Vec2& v);
  /// Raw bytes, appended as one block.
  void PutBytes(const uint8_t* data, size_t size);
  /// Varint-packed point list: varint count, then per point the XOR of the
  /// coordinate's bit pattern with the previous point's, as a varint.
  /// Bijective (hence exact); nearby/repeated coordinates shrink to a few
  /// bytes, a stationary window costs 1 byte per coordinate.
  void PutPoints(const std::vector<Vec2>& points);
  /// Quantized-delta point list: varint count, then per point the zigzag
  /// delta of each coordinate's anchor-grid index (geom/anchor_grid.h)
  /// against the previous point's. Roughly half the bytes of PutPoints on
  /// real paths — but only exact for on-grid coordinates, so callers must
  /// check PointsQuantizable() first (the region-install codec falls back
  /// to the exact XOR-delta coding otherwise).
  void PutPointsQuantized(const std::vector<Vec2>& points);

  const std::vector<uint8_t>& bytes() const { return *bytes_; }
  std::vector<uint8_t> Take() { return std::move(*bytes_); }

 private:
  std::vector<uint8_t> owned_;
  std::vector<uint8_t>* bytes_;
};

/// Bounds-checked reader over a byte span. Any over-read, overlong varint
/// or oversized point count latches ok() to false and yields zeros; codecs
/// check ok() once at the end instead of after every field.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  uint64_t GetVarint();
  int64_t GetZigzag();
  double GetDouble();
  Vec2 GetVec2();
  bool GetPoints(std::vector<Vec2>* out);
  bool GetPointsQuantized(std::vector<Vec2>* out);
  /// Pointer to the next `size` bytes (advancing past them), or nullptr
  /// with ok() latched false when fewer remain.
  const uint8_t* GetBytes(size_t size);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a 32-bit hash; the frame checksum and the delivery-schedule hash.
uint32_t Fnv1a32(const uint8_t* data, size_t size);

// ---------------------------------------------------------------------------
// Quantized coordinate grid.

/// True when every coordinate sits exactly on the anchor grid and has a
/// grid index (geom/anchor_grid.h), i.e. when PutPointsQuantized followed
/// by GetPointsQuantized reproduces the input bit-for-bit. The stripe
/// builder snaps its path anchors with the same rule, which is what makes
/// stripe installs compressible without any loss the server could not
/// prove away.
bool PointsQuantizable(const std::vector<Vec2>& points);

// ---------------------------------------------------------------------------
// Message bodies (one struct per CommStats message kind).

/// Client -> server location upload. `window` is the recent epoch-spaced
/// location window the server-side predictor consumes; empty for
/// position-only reports (Naive).
struct LocationReportMsg {
  UserId user = -1;
  int32_t epoch = 0;
  Vec2 position;
  std::vector<Vec2> window;

  friend bool operator==(const LocationReportMsg& a,
                         const LocationReportMsg& b) {
    return a.user == b.user && a.epoch == b.epoch &&
           a.position == b.position && a.window == b.window;
  }
};

/// Server -> client exact-location request (cost model case 2).
struct ProbeMsg {
  UserId user = -1;
  int32_t epoch = 0;

  friend bool operator==(const ProbeMsg& a, const ProbeMsg& b) {
    return a.user == b.user && a.epoch == b.epoch;
  }
};

/// Server -> client alert notification for pair (u, w), u < w, delivered to
/// endpoint `user`.
struct AlertMsg {
  UserId user = -1;
  UserId u = -1;
  UserId w = -1;
  int32_t epoch = 0;

  friend bool operator==(const AlertMsg& a, const AlertMsg& b) {
    return a.user == b.user && a.u == b.u && a.w == b.w && a.epoch == b.epoch;
  }
};

/// Server -> client safe-region install: any shape in the taxonomy
/// (circle / moving circle / convex polygon / stripe).
struct RegionInstallMsg {
  UserId user = -1;
  int32_t epoch = 0;
  SafeRegionShape region;

  friend bool operator==(const RegionInstallMsg& a,
                         const RegionInstallMsg& b) {
    return a.user == b.user && a.epoch == b.epoch && a.region == b.region;
  }
};

/// Server -> client match-region lifecycle notice for pair (u, w).
/// `region` carries the Def. 3 circle for create/update; delete sends a
/// default circle.
struct MatchInstallMsg {
  UserId user = -1;
  int32_t epoch = 0;
  uint8_t op = 0;  // MatchOp
  UserId u = -1;
  UserId w = -1;
  Circle region;

  friend bool operator==(const MatchInstallMsg& a, const MatchInstallMsg& b) {
    return a.user == b.user && a.epoch == b.epoch && a.op == b.op &&
           a.u == b.u && a.w == b.w && a.region == b.region;
  }
};

/// Shard -> shard envelope: either a forwarded location digest (inner kind
/// kLocationReport, window-less) keeping a pair's owner shard current about
/// a remote endpoint, or a relayed downlink notice (kAlert / kMatchInstall)
/// the pair's owner decided but the target's home shard must deliver.
struct ShardForwardMsg {
  uint8_t inner_kind = 0;  // MsgKind of `inner`.
  std::vector<uint8_t> inner;

  friend bool operator==(const ShardForwardMsg& a, const ShardForwardMsg& b) {
    return a.inner_kind == b.inner_kind && a.inner == b.inner;
  }
};

// Payload codecs. Every Decode* rejects (returns false) truncated input,
// trailing garbage, unknown tags and oversized point counts; on success the
// decoded message equals the encoded one exactly.
std::vector<uint8_t> Encode(const LocationReportMsg& msg);
std::vector<uint8_t> Encode(const ProbeMsg& msg);
std::vector<uint8_t> Encode(const AlertMsg& msg);
std::vector<uint8_t> Encode(const RegionInstallMsg& msg);
std::vector<uint8_t> Encode(const MatchInstallMsg& msg);
std::vector<uint8_t> Encode(const ShardForwardMsg& msg);
/// Allocation-free forms for the hot paths: each overwrites `*out` with
/// the encoding, reusing its capacity.
void Encode(const LocationReportMsg& msg, std::vector<uint8_t>* out);
void Encode(const RegionInstallMsg& msg, std::vector<uint8_t>* out);
bool Decode(const std::vector<uint8_t>& payload, LocationReportMsg* out);
bool Decode(const std::vector<uint8_t>& payload, ProbeMsg* out);
bool Decode(const std::vector<uint8_t>& payload, AlertMsg* out);
bool Decode(const std::vector<uint8_t>& payload, RegionInstallMsg* out);
bool Decode(const std::vector<uint8_t>& payload, MatchInstallMsg* out);
bool Decode(const std::vector<uint8_t>& payload, ShardForwardMsg* out);

/// Region install with the quantized-delta polyline coding allowed for
/// stripe paths and polygon rings whose vertices sit on the wire grid.
/// Falls back to the exact coding otherwise, so the result always decodes
/// equal to `msg` — callers wanting the guard anyway (the serving plane
/// does, per validate-builds semantics) decode and compare before shipping.
std::vector<uint8_t> EncodeCompressed(const RegionInstallMsg& msg);
void EncodeCompressed(const RegionInstallMsg& msg, std::vector<uint8_t>* out);

/// Shape sub-codec (tag byte + per-type body), shared by RegionInstallMsg
/// and usable on its own. With `allow_quantized`, polygon/stripe point
/// lists on the wire grid use the quantized-delta tags.
void PutShape(WireWriter* w, const SafeRegionShape& shape,
              bool allow_quantized = false);
bool GetShape(WireReader* r, SafeRegionShape* out);

// ---------------------------------------------------------------------------
// Batched downlink envelope.

/// One message inside a kBatch frame.
struct BatchItem {
  MsgKind kind = MsgKind::kAck;
  std::vector<uint8_t> payload;

  friend bool operator==(const BatchItem& a, const BatchItem& b) {
    return a.kind == b.kind && a.payload == b.payload;
  }
};

/// Coalesces several same-epoch messages into one payload (varint count,
/// then per item: kind byte + varint length + bytes) — one frame, one
/// checksum, one sequence number, one ack for the whole epoch's downlink
/// to a client. Only downlink notice kinds and shard forwards may ride in a
/// batch; DecodeBatch rejects empty batches, nested batches, acks and
/// location reports.
std::vector<uint8_t> EncodeBatch(const std::vector<BatchItem>& items);
bool DecodeBatch(const std::vector<uint8_t>& payload,
                 std::vector<BatchItem>* out);

// ---------------------------------------------------------------------------
// Trace context.

/// Causal trace context riding a wire frame: which epoch originated the
/// message, a 64-bit event id linking detect to deliver across shards and
/// retransmits, and how many reliable-link hops the message has crossed.
struct TraceCtx {
  int32_t origin_epoch = 0;
  uint64_t event_id = 0;
  uint8_t hops = 0;

  friend bool operator==(const TraceCtx& a, const TraceCtx& b) {
    return a.origin_epoch == b.origin_epoch && a.event_id == b.event_id &&
           a.hops == b.hops;
  }
};

/// One trace-extension entry: `index` names the batch item the context
/// belongs to (0 for solo frames); indices are strictly increasing within a
/// frame, and items without an entry are simply untraced.
struct TraceEntry {
  uint32_t index = 0;
  TraceCtx ctx;

  friend bool operator==(const TraceEntry& a, const TraceEntry& b) {
    return a.index == b.index && a.ctx == b.ctx;
  }
};

// ---------------------------------------------------------------------------
// Framing.

struct Frame {
  uint8_t version = 0;
  MsgKind kind = MsgKind::kAck;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
  /// Trace extension entries (empty for version-1 frames), sorted by index.
  std::vector<TraceEntry> trace;

  /// Context for batch item `index` (use 0 for solo frames), or nullptr
  /// when the frame carries none for that item.
  const TraceCtx* TraceFor(uint32_t index) const {
    for (const TraceEntry& e : trace) {
      if (e.index == index) return &e.ctx;
      if (e.index > index) break;
    }
    return nullptr;
  }
};

/// Wraps a payload in the versioned, checksummed header described above.
/// Always emits a version-1 frame; byte-identical to pre-trace builds.
std::vector<uint8_t> EncodeFrame(MsgKind kind, uint64_t seq,
                                 const std::vector<uint8_t>& payload);

/// Like EncodeFrame, but appends the trace extension and stamps the frame
/// kWireVersionTraced. `trace` must be sorted by strictly increasing index;
/// an empty list degenerates to the plain version-1 encoding, so untraced
/// traffic never changes on the wire.
std::vector<uint8_t> EncodeFrameTraced(MsgKind kind, uint64_t seq,
                                       const std::vector<uint8_t>& payload,
                                       const std::vector<TraceEntry>& trace);

/// EncodeFrameTraced into a reused buffer: `*out` is resized to the exact
/// frame length (FrameOverheadBytes + payload + trace extension) and
/// written in one pass — header, payload, trace extension, checksum — so a
/// buffer that already holds the capacity never reallocates.
void EncodeFrameInto(MsgKind kind, uint64_t seq, const uint8_t* payload,
                     size_t payload_len, const std::vector<TraceEntry>& trace,
                     std::vector<uint8_t>* out);

/// Largest ack frame (a 10-byte seq varint, empty payload).
constexpr size_t kMaxAckFrameBytes = FrameOverheadBytes(~0ULL, 0);

/// Writes the ack frame for `seq` — byte-identical to
/// EncodeFrame(MsgKind::kAck, seq, {}) — into `out`, which must hold
/// kMaxAckFrameBytes, and returns its length. No allocation.
size_t EncodeAckFrame(uint64_t seq, uint8_t* out);

/// Parses one frame (either version). Returns false — never throws, never
/// reads past `size` — on truncation, bad magic/version/kind, length
/// mismatch, malformed trace extension or checksum failure.
bool DecodeFrame(const uint8_t* data, size_t size, Frame* out);

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_WIRE_H_
