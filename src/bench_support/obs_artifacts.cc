#include "bench_support/obs_artifacts.h"

#include <cstdio>
#include <utility>

#include "bench_support/bench_json.h"
#include "obs/trace.h"

namespace proxdet {

namespace {

uint64_t CounterOr0(const obs::MetricsSnapshot& snapshot,
                    const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second.second;
}

void CheckField(const obs::MetricsSnapshot& snapshot, const std::string& name,
                uint64_t expected, bool* ok, std::string* error) {
  const uint64_t got = CounterOr0(snapshot, name);
  if (got == expected) return;
  *ok = false;
  if (error != nullptr) {
    *error += name + " = " + std::to_string(got) + ", run state says " +
              std::to_string(expected) + "\n";
  }
}

}  // namespace

obs::RunReport MakeRunReport(const std::string& run_name,
                             const CommStats& stats) {
  obs::RunReport report(run_name);
  report.AddCount("comm_stats", "reports", stats.reports);
  report.AddCount("comm_stats", "probes", stats.probes);
  report.AddCount("comm_stats", "alerts", stats.alerts);
  report.AddCount("comm_stats", "region_installs", stats.region_installs);
  report.AddCount("comm_stats", "match_installs", stats.match_installs);
  report.AddCount("comm_stats", "total_messages", stats.TotalMessages());
  report.AddCount("comm_stats", "bytes_up", stats.bytes_up);
  report.AddCount("comm_stats", "bytes_down", stats.bytes_down);
  report.AddCount("comm_stats", "bytes_xshard", stats.bytes_xshard);
  report.AddCount("comm_stats", "batch_saved_bytes", stats.batch_saved_bytes);
  report.AddCount("comm_stats", "total_bytes", stats.TotalBytes());
  report.AddScalar("timing", "server_seconds", stats.server_seconds);
  obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
  // The speculative resolve's yield: builds complete ahead of their
  // commit and the share the commit took, the builds the resident helpers
  // made, and the time the commit sat idle waiting for a helper's build.
  // Wall-clock-kinded, like the counters.
  const uint64_t speculated =
      CounterOr0(snapshot, "engine.resolve.speculated");
  const uint64_t hits = CounterOr0(snapshot, "engine.resolve.speculation_hits");
  report.AddCount("resolve", "speculated", speculated);
  report.AddCount("resolve", "speculation_hits", hits);
  report.AddScalar("resolve", "hit_ratio",
                   speculated == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(speculated));
  report.AddCount("resolve", "helper_builds",
                  CounterOr0(snapshot, "engine.resolve.helper_builds"));
  report.AddCount("resolve", "commit_wait_ns",
                  CounterOr0(snapshot, "engine.resolve.commit_wait_ns"));
  report.CaptureMetrics(std::move(snapshot));
  return report;
}

LatencySummary SummarizeLatency(const std::string& name, obs::Kind kind) {
  const obs::StreamingQuantile sketch =
      obs::Metrics().GetQuantile(name, kind).snapshot();
  LatencySummary summary;
  summary.samples = sketch.count();
  if (summary.samples > 0) {
    summary.p50_s = sketch.Quantile(0.5);
    summary.p99_s = sketch.Quantile(0.99);
    summary.p999_s = sketch.Quantile(0.999);
  }
  return summary;
}

void AddShardNetSections(obs::RunReport* report,
                         const net::NetRunStats& net) {
  for (size_t i = 0; i < net.shards.size(); ++i) {
    const net::ShardNetStats& s = net.shards[i];
    const std::string section = "shard" + std::to_string(i);
    report->AddCount(section, "users", s.users);
    report->AddCount(section, "frames_up", s.frames_up);
    report->AddCount(section, "bytes_up", s.bytes_up);
    report->AddCount(section, "frames_down", s.frames_down);
    report->AddCount(section, "bytes_down", s.bytes_down);
    report->AddCount(section, "frames_xshard", s.frames_xshard);
    report->AddCount(section, "bytes_xshard", s.bytes_xshard);
  }
  report->AddCount("batching", "batch_frames", net.batch_frames);
  report->AddCount("batching", "batch_messages", net.batch_messages);
  report->AddCount("batching", "batch_saved_bytes", net.batch_saved_bytes);
  report->AddCount("batching", "compressed_installs", net.compressed_installs);
  report->AddCount("batching", "compress_skipped", net.compress_skipped);
  report->AddCount("batching", "compress_saved_bytes",
                   net.compress_saved_bytes);
  report->AddCount("batching", "compress_mismatch", net.compress_mismatch);
}

bool ReconcileWithCommStats(const obs::MetricsSnapshot& snapshot,
                            const CommStats& stats, std::string* error) {
  bool ok = true;
  CheckField(snapshot, "engine.reports", stats.reports, &ok, error);
  CheckField(snapshot, "engine.probes", stats.probes, &ok, error);
  CheckField(snapshot, "engine.alerts", stats.alerts, &ok, error);
  CheckField(snapshot, "engine.region_installs", stats.region_installs, &ok,
             error);
  CheckField(snapshot, "engine.match_installs", stats.match_installs, &ok,
             error);
  CheckField(snapshot, "net.bytes_up", stats.bytes_up, &ok, error);
  CheckField(snapshot, "net.bytes_down", stats.bytes_down, &ok, error);
  CheckField(snapshot, "net.bytes_xshard", stats.bytes_xshard, &ok, error);
  // Per-shard direction counters, when present, must sum to the globals —
  // a byte attributed to a shard is the same byte the global counter saw.
  uint64_t shard_up = 0;
  uint64_t shard_down = 0;
  uint64_t shard_xshard = 0;
  bool any_shard = false;
  for (const auto& [name, entry] : snapshot.counters) {
    if (name.rfind("net.shard", 0) != 0) continue;
    any_shard = true;
    if (name.size() >= 9 && name.compare(name.size() - 9, 9, ".bytes_up") == 0) {
      shard_up += entry.second;
    } else if (name.size() >= 11 &&
               name.compare(name.size() - 11, 11, ".bytes_down") == 0) {
      shard_down += entry.second;
    } else if (name.size() >= 13 &&
               name.compare(name.size() - 13, 13, ".bytes_xshard") == 0) {
      shard_xshard += entry.second;
    }
  }
  if (any_shard) {
    CheckField(snapshot, "net.bytes_up", shard_up, &ok, error);
    CheckField(snapshot, "net.bytes_down", shard_down, &ok, error);
    CheckField(snapshot, "net.bytes_xshard", shard_xshard, &ok, error);
  }
  return ok;
}

std::string WriteTraceArtifact(const std::string& filename) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.span_count() == 0) return "";
  const std::string path = BenchJsonPath(filename);
  if (path.empty()) return "";
  if (!tracer.WriteChromeTrace(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  return path;
}

std::string WriteReportArtifact(const obs::RunReport& report,
                                const std::string& filename) {
  const std::string path = BenchJsonPath(filename);
  if (path.empty()) return "";
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  return path;
}

}  // namespace proxdet
