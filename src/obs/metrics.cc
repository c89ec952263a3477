#include "obs/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace proxdet {
namespace obs {

namespace {

std::string Sanitize(const std::string& name) {
  std::string out = "proxdet_";
  for (const char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

template <typename T>
T& MetricsRegistry::GetOrCreate(std::map<std::string, Entry<T>>& map,
                                const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name, Entry<T>{kind, std::make_unique<T>()}).first;
  }
  return *it->second.metric;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, Kind kind) {
  return GetOrCreate(counters_, name, kind);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, Kind kind) {
  return GetOrCreate(gauges_, name, kind);
}

HistogramMetric& MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& upper_bounds,
    Kind kind) {
  HistogramMetric& metric = GetOrCreate(histograms_, name, kind);
  // First registration wins: install bounds only on a still-pristine metric.
  std::lock_guard<std::mutex> lock(metric.mutex_);
  if (metric.histogram_.bounds().empty() && metric.histogram_.count() == 0 &&
      !upper_bounds.empty()) {
    metric.histogram_ = Histogram(upper_bounds);
  }
  return metric;
}

QuantileMetric& MetricsRegistry::GetQuantile(const std::string& name,
                                             Kind kind) {
  return GetOrCreate(quantiles_, name, kind);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : counters_) entry.metric->Reset();
  for (auto& [name, entry] : gauges_) entry.metric->Reset();
  for (auto& [name, entry] : histograms_) entry.metric->Reset();
  for (auto& [name, entry] : quantiles_) entry.metric->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, entry] : counters_) {
    snap.counters[name] = {entry.kind, entry.metric->value()};
  }
  for (const auto& [name, entry] : gauges_) {
    snap.gauges[name] = {entry.kind, entry.metric->value()};
  }
  for (const auto& [name, entry] : histograms_) {
    snap.histograms[name] = {entry.kind, entry.metric->snapshot()};
  }
  for (const auto& [name, entry] : quantiles_) {
    snap.quantiles[name] = {entry.kind, entry.metric->snapshot()};
  }
  return snap;
}

std::string MetricsRegistry::PrometheusDump() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, entry] : snap.counters) {
    const std::string id = Sanitize(name);
    out += "# TYPE " + id + " counter\n";
    out += id + " " + std::to_string(entry.second) + "\n";
  }
  for (const auto& [name, entry] : snap.gauges) {
    const std::string id = Sanitize(name);
    out += "# TYPE " + id + " gauge\n";
    out += id + " " + Num(entry.second) + "\n";
  }
  for (const auto& [name, entry] : snap.histograms) {
    const std::string id = Sanitize(name);
    const Histogram& h = entry.value;
    out += "# TYPE " + id + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.bounds().size(); ++b) {
      cumulative += h.bucket_counts()[b];
      out += id + "_bucket{le=\"" + Num(h.bounds()[b]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += id + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
    out += id + "_sum " + Num(h.sum()) + "\n";
    out += id + "_count " + std::to_string(h.count()) + "\n";
  }
  for (const auto& [name, entry] : snap.quantiles) {
    const std::string id = Sanitize(name);
    const StreamingQuantile& q = entry.value;
    out += "# TYPE " + id + " summary\n";
    for (const double p : {0.5, 0.9, 0.99}) {
      out += id + "{quantile=\"" + Num(p) + "\"} " + Num(q.Quantile(p)) +
             "\n";
    }
    out += id + "_sum " + Num(q.sum()) + "\n";
    out += id + "_count " + std::to_string(q.count()) + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: pool workers and atexit code may still touch
  // handles during shutdown, so the registry must outlive every other
  // static (no destruction-order dependence).
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace proxdet
