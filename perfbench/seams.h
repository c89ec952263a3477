// Forwarding wrappers around the library's public extension points. Each
// wrapper calls straight through to the wrapped object and records a span
// (name, start, end, parent) around the call; the library is never edited.
//
//   TimedGenerator  StreamingGenerator  epoch boundaries + stream generation
//   TimedPredictor  Predictor           prediction
//   TimedPolicy     RegionPolicy        region construction
//   TimedLink       ClientLink          transport, per message kind
//
// Every wrapper is called from the detector's serial sections only (the
// epoch loop head, the resolve queue, the link calls), so the recorder is
// single-threaded by the library's own contract; SpanRecorder::Begin
// checks that contract rather than assuming it.
#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/client_link.h"
#include "core/region_detector.h"
#include "predict/predictor.h"
#include "traj/streaming.h"

namespace perfbench {

using proxdet::Circle;
using proxdet::FriendView;
using proxdet::MatchOp;
using proxdet::SafeRegionShape;
using proxdet::UserId;
using proxdet::Vec2;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. kRun is the whole Detector::Run call and kEpoch one epoch
/// (from one NextEpoch call to the next); every other span is a child of
/// an epoch span, except kPredict, whose parent is the kBuildRegion span
/// that called it.
enum Layer : uint8_t {
  kRun,
  kEpoch,
  kNextEpoch,
  kBuildRegion,
  kPredict,
  kReport,
  kProbe,
  kAlert,
  kInstallRegion,
  kInstallMatch,
  kEndEpoch,
  kLayerCount,
};

inline const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "run",    "epoch", "next_epoch", "build_region",   "predict",
      "report", "probe", "alert",      "install_region", "install_match",
      "end_epoch"};
  return kNames[layer];
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index into SpanRecorder::spans(); -1 for kRun.
  int32_t epoch = -1;   // The shared identifier of one epoch's spans.
  Layer layer = kRun;
};

/// In-memory span store of one Detector::Run. Untraced, it records only
/// the run span and one span per epoch: one clock read per epoch. Traced,
/// every wrapper records its calls too.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool traced) : traced_(traced) {}

  bool traced() const { return traced_; }

  void BeginRun() {
    owner_ = std::this_thread::get_id();
    run_ = Open(kRun, -1, NowNs());
  }
  void EndRun() {
    const int64_t now = NowNs();
    if (epoch_span_ >= 0) spans_[epoch_span_].end_ns = now;
    epoch_span_ = -1;
    spans_[run_].end_ns = now;
  }

  /// Closes the previous epoch span and opens the next one.
  void NextEpoch(int64_t now) {
    if (epoch_span_ >= 0) spans_[epoch_span_].end_ns = now;
    ++epoch_;
    epoch_starts_.push_back(now);
    epoch_span_ = Open(kEpoch, run_, now);
  }

  /// Opens a child span of the current build (for kPredict) or epoch.
  int32_t Begin(Layer layer) {
    if (std::this_thread::get_id() != owner_) {
      throw std::logic_error("perfbench: seam called off the driver thread");
    }
    const int32_t parent =
        (layer == kPredict && build_span_ >= 0) ? build_span_ : epoch_span_;
    const int32_t id = Open(layer, parent, NowNs());
    if (layer == kBuildRegion) build_span_ = id;
    return id;
  }
  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    if (id == build_span_) build_span_ = -1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Start of each epoch (the NextEpoch call), epoch 0 first.
  const std::vector<int64_t>& epoch_starts() const { return epoch_starts_; }
  int64_t run_start_ns() const { return spans_[run_].start_ns; }
  int64_t run_end_ns() const { return spans_[run_].end_ns; }

 private:
  int32_t Open(Layer layer, int32_t parent, int64_t start) {
    spans_.push_back(Span{start, start, parent, epoch_, layer});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  bool traced_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int64_t> epoch_starts_;
  int32_t run_ = -1;
  int32_t epoch_span_ = -1;
  int32_t build_span_ = -1;
  int32_t epoch_ = -1;
};

/// RAII span around one forwarded call; a no-op when the recorder is
/// untraced.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, Layer layer)
      : rec_(rec->traced() ? rec : nullptr),
        id_(rec_ != nullptr ? rec_->Begin(layer) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

/// Marks epoch boundaries and times stream generation. Clone() hands out
/// an unwrapped copy, so the ground-truth oracle's private replay of the
/// stream never shows up as an epoch.
class TimedGenerator final : public proxdet::StreamingGenerator {
 public:
  TimedGenerator(std::unique_ptr<proxdet::StreamingGenerator> inner,
                 SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  size_t user_count() const override { return inner_->user_count(); }
  double epoch_seconds() const override { return inner_->epoch_seconds(); }
  void Reset() override { inner_->Reset(); }
  void NextEpoch(Vec2* out) override {
    rec_->NextEpoch(NowNs());
    SpanScope span(rec_, kNextEpoch);
    inner_->NextEpoch(out);
  }
  std::unique_ptr<proxdet::StreamingGenerator> Clone() const override {
    return inner_->Clone();
  }

 private:
  std::unique_ptr<proxdet::StreamingGenerator> inner_;
  SpanRecorder* rec_;
};

class TimedPredictor final : public proxdet::Predictor {
 public:
  TimedPredictor(std::unique_ptr<proxdet::Predictor> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void Train(const std::vector<proxdet::Trajectory>& history) override {
    inner_->Train(history);
  }
  std::vector<Vec2> Predict(const std::vector<Vec2>& recent,
                            size_t steps) override {
    SpanScope span(rec_, kPredict);
    return inner_->Predict(recent, steps);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<proxdet::Predictor> inner_;
  SpanRecorder* rec_;
};

class TimedPolicy final : public proxdet::RegionPolicy {
 public:
  TimedPolicy(std::unique_ptr<proxdet::RegionPolicy> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  bool NeedsPerEpochPairCheck() const override {
    return inner_->NeedsPerEpochPairCheck();
  }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override {
    SpanScope span(rec_, kBuildRegion);
    return inner_->BuildRegion(u, location, recent_window, speed, friends,
                               epoch);
  }
  void OnExit(UserId u) override { inner_->OnExit(u); }
  void OnProbe(UserId u) override { inner_->OnProbe(u); }

 private:
  std::unique_ptr<proxdet::RegionPolicy> inner_;
  SpanRecorder* rec_;
};

/// Forwarding ClientLink, installed with Detector::set_link in place of
/// the transport link it wraps.
class TimedLink final : public proxdet::ClientLink {
 public:
  TimedLink(proxdet::ClientLink* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  void Report(UserId u, int epoch, size_t window_len, Vec2* position,
              std::vector<Vec2>* window) override {
    SpanScope span(rec_, kReport);
    inner_->Report(u, epoch, window_len, position, window);
  }
  void Probe(UserId u, int epoch) override {
    SpanScope span(rec_, kProbe);
    inner_->Probe(u, epoch);
  }
  void Alert(UserId u, UserId a, UserId b, int epoch) override {
    SpanScope span(rec_, kAlert);
    inner_->Alert(u, a, b, epoch);
  }
  void InstallRegion(UserId u, int epoch,
                     const SafeRegionShape& region) override {
    SpanScope span(rec_, kInstallRegion);
    inner_->InstallRegion(u, epoch, region);
  }
  void InstallMatch(UserId u, int epoch, MatchOp op, UserId a, UserId b,
                    const Circle& region) override {
    SpanScope span(rec_, kInstallMatch);
    inner_->InstallMatch(u, epoch, op, a, b, region);
  }
  void EndEpoch(int epoch) override {
    SpanScope span(rec_, kEndEpoch);
    inner_->EndEpoch(epoch);
  }

 private:
  proxdet::ClientLink* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
