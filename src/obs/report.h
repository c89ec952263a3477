#ifndef PROXDET_OBS_REPORT_H_
#define PROXDET_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace proxdet {
namespace obs {

/// `s` escaped for use inside a JSON string literal: quotes, backslashes
/// and control characters escaped.
std::string JsonEscape(const std::string& s);

/// Per-run observability report: free-form info strings, named sections of
/// scalar values (e.g. the run's CommStats, net-layer totals, cost-model
/// parameters) and a full metrics snapshot, serialized as one JSON
/// document. Deterministic metrics and wall-clock metrics are emitted under
/// separate keys, the same segregation CommStats::server_seconds follows —
/// a report consumer can diff the "deterministic" subtree across runs and
/// expect byte equality.
class RunReport {
 public:
  explicit RunReport(std::string run_name) : name_(std::move(run_name)) {}

  /// Free-form string metadata ("method": "Stripe+KF", "threads": "4").
  void AddInfo(const std::string& key, const std::string& value);

  /// Scalar in a named section; sections and keys keep insertion order.
  void AddCount(const std::string& section, const std::string& key,
                uint64_t value);
  void AddScalar(const std::string& section, const std::string& key,
                 double value);

  /// Attaches a metrics snapshot (typically Metrics().Snapshot() taken
  /// right after the run; pair with Metrics().Reset() before it).
  void CaptureMetrics(MetricsSnapshot snapshot);

  const MetricsSnapshot& metrics() const { return metrics_; }

  std::string ToJson() const;

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  using Section = std::vector<std::pair<std::string, std::string>>;

  std::string name_;
  Section info_;
  std::vector<std::pair<std::string, Section>> sections_;
  MetricsSnapshot metrics_;
  bool have_metrics_ = false;

  Section& SectionFor(const std::string& section);
};

}  // namespace obs
}  // namespace proxdet

#endif  // PROXDET_OBS_REPORT_H_
