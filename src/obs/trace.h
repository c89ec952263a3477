#ifndef PROXDET_OBS_TRACE_H_
#define PROXDET_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace proxdet {
namespace obs {

/// Chrome trace_event phase of a recorded event: a complete span ("X"), or
/// one side of a flow arrow ("s" start / "f" finish) stitching causally
/// linked spans — possibly on different shards — into one rendered flow.
enum class TracePhase : uint8_t { kComplete = 0, kFlowStart = 1, kFlowEnd = 2 };

/// One completed span or flow endpoint. `name` and `category` must be
/// string literals (or otherwise outlive the tracer) — events never copy
/// them.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t start_us = 0;  // Microseconds since tracer construction.
  uint64_t dur_us = 0;
  uint32_t tid = 0;  // Dense per-tracer thread index, 0 = first seen.
  TracePhase phase = TracePhase::kComplete;
  uint64_t flow_id = 0;  // Links a kFlowStart to its kFlowEnd.
};

/// Scoped-span tracer. Disabled by default: a disarmed TraceScope costs one
/// relaxed atomic load and no clock read, so instrumentation can stay in
/// hot paths permanently. When enabled, completed spans are appended to a
/// mutex-guarded buffer (bounded by set_capacity; overflow increments
/// dropped() instead of growing without bound) and exported as Chrome
/// trace_event JSON — loadable in chrome://tracing or Perfetto.
///
/// Span *durations* are wall-clock and therefore non-deterministic; span
/// *counts per name* are deterministic for deterministic workloads, except
/// on a multi-thread pool for `speculate` and the `predict` /
/// `stripe_build` spans of the speculative resolve's builds, which include
/// the builds its commit discards. The exporter never feeds back into the
/// traced computation (read-only observability).
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops all recorded spans (and the dropped-count); keeps enablement.
  void Clear();

  /// Maximum buffered spans; further records are counted in dropped().
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// Appends a completed span (thread-safe).
  void Record(const char* name, const char* category, uint64_t start_us,
              uint64_t end_us);

  /// Appends a flow-start ("s") event at the current time: the tail of a
  /// flow arrow, e.g. the detect side of an alert. `flow_id` must match the
  /// FlowEnd that consumes it.
  void FlowBegin(const char* name, const char* category, uint64_t flow_id);

  /// Appends the matching flow-finish ("f") event, e.g. the deliver side.
  void FlowEnd(const char* name, const char* category, uint64_t flow_id);

  std::vector<TraceEvent> snapshot() const;
  uint64_t span_count() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Chrome trace_event format: {"traceEvents": [...], ...} with complete
  /// ("ph":"X") events. Load via chrome://tracing or ui.perfetto.dev.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// The process-wide tracer every built-in span uses.
  static Tracer& Global();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point origin_;
  size_t capacity_ = 1u << 20;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, uint32_t> thread_index_;
};

/// RAII span: arms on construction when the global tracer is enabled,
/// records on destruction. Name/category must be string literals.
class TraceScope {
 public:
  TraceScope(const char* name, const char* category) {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      tracer_ = &tracer;
      name_ = name;
      category_ = category;
      start_us_ = tracer.NowMicros();
    }
  }
  ~TraceScope() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, category_, start_us_, tracer_->NowMicros());
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_us_ = 0;
};

}  // namespace obs
}  // namespace proxdet

#endif  // PROXDET_OBS_TRACE_H_
