#ifndef PROXDET_OBS_METRICS_H_
#define PROXDET_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace proxdet {
namespace obs {

/// How a metric's value relates to the determinism contract:
///  - kDeterministic: a pure function of (workload seed, transport seed) —
///    message counts, rebuild counts, drop/dup/retransmission counts,
///    cost-model distributions. Identical across repeated same-seed runs
///    and across PROXDET_THREADS values; the obs determinism test compares
///    these bit-exactly.
///  - kWallClock: derived from real time or machine scheduling (span
///    durations, queue waits, per-worker busy time, task counts that depend
///    on the pool size). Reported separately, never compared — the same
///    segregation CommStats::server_seconds already follows.
enum class Kind { kDeterministic, kWallClock };

/// Point-in-time copy of every registered metric, grouped for reporting.
struct MetricsSnapshot {
  struct HistogramEntry {
    Kind kind = Kind::kWallClock;
    Histogram value;
  };
  struct QuantileEntry {
    Kind kind = Kind::kWallClock;
    StreamingQuantile value;
  };

  std::map<std::string, std::pair<Kind, uint64_t>> counters;
  std::map<std::string, std::pair<Kind, double>> gauges;
  std::map<std::string, HistogramEntry> histograms;
  std::map<std::string, QuantileEntry> quantiles;

  /// Counter name -> value for counters flagged kDeterministic.
  std::map<std::string, uint64_t> DeterministicCounters() const {
    std::map<std::string, uint64_t> out;
    for (const auto& [name, entry] : counters) {
      if (entry.first == Kind::kDeterministic) out[name] = entry.second;
    }
    return out;
  }

  /// Human-readable digest of every deterministic value (counters, gauges,
  /// histogram bucket counts, quantile sketch buckets). Two runs with equal
  /// deterministic state produce byte-identical digests — the form the
  /// determinism tests compare, so a mismatch prints a readable diff.
  /// Entries that hold nothing (zero counters, gauges whose bits are 0,
  /// histograms and quantiles with no observation) are left out: Reset()
  /// keeps registrations, so which of them exist depends on what else ran
  /// in the process, not on the state being digested.
  std::string DeterministicDigest() const {
    std::string out;
    for (const auto& [name, entry] : counters) {
      if (entry.first != Kind::kDeterministic || entry.second == 0) continue;
      out += "counter " + name + " = " + std::to_string(entry.second) + "\n";
    }
    for (const auto& [name, entry] : gauges) {
      const uint64_t bits = std::bit_cast<uint64_t>(entry.second);
      if (entry.first != Kind::kDeterministic || bits == 0) continue;
      out += "gauge " + name + " = " + std::to_string(bits) + "\n";
    }
    for (const auto& [name, entry] : histograms) {
      if (entry.kind != Kind::kDeterministic || entry.value.count() == 0) {
        continue;
      }
      out += "histogram " + name + " =";
      for (const uint64_t c : entry.value.bucket_counts()) {
        out += " " + std::to_string(c);
      }
      out += " sum_bits " +
             std::to_string(std::bit_cast<uint64_t>(entry.value.sum())) + "\n";
    }
    for (const auto& [name, entry] : quantiles) {
      if (entry.kind != Kind::kDeterministic || entry.value.count() == 0) {
        continue;
      }
      out += "quantile " + name + " =";
      for (const auto& [index, c] : entry.value.buckets()) {
        out += " " + std::to_string(index) + ":" + std::to_string(c);
      }
      out += " sum_bits " +
             std::to_string(std::bit_cast<uint64_t>(entry.value.sum())) + "\n";
    }
    return out;
  }
};

/// Monotonic counter. Inc() is a single relaxed atomic add — safe from any
/// thread, including pool workers inside parallel scans; relaxed ordering
/// is enough because totals are only read after the run quiesces.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins double value with atomic Add/MaxOf accumulation
/// (bit-packed through a uint64 atomic; no locks, TSan-clean).
class Gauge {
 public:
  void Set(double x) {
    bits_.store(std::bit_cast<uint64_t>(x), std::memory_order_relaxed);
  }
  void Add(double d) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + d),
        std::memory_order_relaxed)) {
    }
  }
  void MaxOf(double x) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (std::bit_cast<double>(old) < x &&
           !bits_.compare_exchange_weak(old, std::bit_cast<uint64_t>(x),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class MetricsRegistry;
  void Reset() { bits_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> bits_{0};  // Packed double; starts at 0.0.
};

/// Thread-safe fixed-bucket histogram (mutex-guarded; recorded from serial
/// commit sections or coarse-grained pool tasks, never per-geometry-op).
class HistogramMetric {
 public:
  void Record(double x) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Record(x);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  friend class MetricsRegistry;
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Reset();
  }

  mutable std::mutex mutex_;
  Histogram histogram_;
};

/// Thread-safe streaming-quantile sketch.
class QuantileMetric {
 public:
  void Record(double x) {
    std::lock_guard<std::mutex> lock(mutex_);
    sketch_.Record(x);
  }
  StreamingQuantile snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sketch_;
  }

 private:
  friend class MetricsRegistry;
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    sketch_.Reset();
  }

  mutable std::mutex mutex_;
  StreamingQuantile sketch_;
};

/// Thread-safe metrics registry. Registration (Get*) takes a mutex and may
/// allocate; the returned reference is stable for the registry's lifetime,
/// so hot paths resolve their handles once (static or member caching) and
/// then touch only the metric's own atomics — zero allocation, no registry
/// lock. Re-registering an existing name returns the original metric; the
/// first registration's kind (and bounds) win.
///
/// Reset() zeroes every value but keeps all registrations (and hence every
/// cached handle) valid — the per-run scoping discipline: reset, run,
/// snapshot.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name,
                      Kind kind = Kind::kDeterministic);
  Gauge& GetGauge(const std::string& name, Kind kind = Kind::kWallClock);
  HistogramMetric& GetHistogram(const std::string& name,
                                const std::vector<double>& upper_bounds,
                                Kind kind = Kind::kWallClock);
  QuantileMetric& GetQuantile(const std::string& name,
                              Kind kind = Kind::kWallClock);

  /// Zeroes all values; registrations and handles stay valid.
  void Reset();

  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (counters, gauges, histograms with
  /// cumulative `le` buckets, quantile sketches as summaries). Metric names
  /// are sanitized to [a-zA-Z0-9_] and prefixed "proxdet_".
  std::string PrometheusDump() const;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& Global();

 private:
  /// The registration kind lives in the map entry, not the metric, so the
  /// handle classes stay a single atomic word where possible.
  template <typename T>
  struct Entry {
    Kind kind = Kind::kDeterministic;
    std::unique_ptr<T> metric;
  };

  template <typename T>
  T& GetOrCreate(std::map<std::string, Entry<T>>& map,
                 const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<HistogramMetric>> histograms_;
  std::map<std::string, Entry<QuantileMetric>> quantiles_;
};

/// Shorthand for MetricsRegistry::Global().
inline MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace obs
}  // namespace proxdet

#endif  // PROXDET_OBS_METRICS_H_
