#ifndef PROXDET_BENCH_SUPPORT_OBS_ARTIFACTS_H_
#define PROXDET_BENCH_SUPPORT_OBS_ARTIFACTS_H_

#include <string>

#include "core/comm_stats.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace proxdet {

/// Builds a RunReport for one finished run: the current global metrics
/// snapshot plus the run's CommStats as a report section (deterministic
/// message/byte fields under "comm_stats"; wall-clock server_seconds
/// segregated under "timing", the speculative resolve's build counts, hit
/// ratio, helper builds and commit wait under "resolve"). Pair with
/// obs::Metrics().Reset() before the run so the snapshot covers exactly
/// this run.
obs::RunReport MakeRunReport(const std::string& run_name,
                             const CommStats& stats);

/// Adds the sharded serving plane's wire breakdown to a RunReport: one
/// "shard<i>" section per partition (users, frames/bytes by direction) plus
/// a "batching" section with the coalescing and compression counters.
void AddShardNetSections(obs::RunReport* report, const net::NetRunStats& net);

/// Checks that the registry's engine/net counters reconcile with CommStats
/// to the unit: every message-count field matches its engine.* counter, the
/// byte totals match net.bytes_up/down/xshard, and — when per-shard
/// counters are registered — the net.shard<i>.bytes_* sums equal the global
/// direction totals. On failure returns false and appends a description
/// per mismatch to *error.
bool ReconcileWithCommStats(const obs::MetricsSnapshot& snapshot,
                            const CommStats& stats, std::string* error);

/// Tail summary of one registry quantile sketch — the single latency
/// digest shared by the benches: micro_socket reads "net.socket.rtt_s"
/// (wall clock) and micro_latency reads "net.latency.virtual_s" /
/// "net.latency.wall_s" through the same helper, so every reported
/// percentile comes from the same obs sketch rather than per-bench
/// ad-hoc math.
struct LatencySummary {
  uint64_t samples = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
};
LatencySummary SummarizeLatency(const std::string& name, obs::Kind kind);

/// Writes the global tracer's buffered spans as Chrome trace JSON, the
/// path resolved by the PROXDET_BENCH_JSON convention (see BenchJsonPath).
/// Returns the path written, or "" when emission is disabled or the
/// tracer holds no spans.
std::string WriteTraceArtifact(const std::string& filename);

/// Writes `report` as JSON under the PROXDET_BENCH_JSON convention.
/// Returns the path written, or "" when disabled.
std::string WriteReportArtifact(const obs::RunReport& report,
                                const std::string& filename);

}  // namespace proxdet

#endif  // PROXDET_BENCH_SUPPORT_OBS_ARTIFACTS_H_
