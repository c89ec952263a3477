// Streaming million-user workload substrate, in one gate. Three parts:
//
// 1. Streaming-vs-materialized parity: every paper method on city-scale
//    scenario workloads at small N, run twice — once against a streaming
//    World (positions generated per epoch inside BeginEpoch, O(active
//    users) memory) and once against the materialized twin (the *same*
//    per-user seeded streams run out to full trajectories up front). The
//    two modes must be bit-exact in alerts, CommStats, rebuild counts and
//    the deterministic obs digest, at 1 and 4 threads in-process and under
//    1- and 2-shard transported runs; the heavy-churn scenario checks the
//    streaming oracle against the dynamic-graph update machinery. The run
//    ABORTS on any mismatch.
//
// 2. Scenario throughput rows: each scenario of the city pack (commuter
//    rush, flash crowd, heavy churn, mixed-modality fleet) at medium N in
//    streaming mode — epochs/s and steady-state heap bytes/user (live
//    allocation high-water mark across build + run), with the materialized
//    twin's build footprint alongside for the memory win.
//
// 3. Million-user cell: the commuter-rush scenario at N=1,000,000 (quick:
//    20,000) streamed end to end through Naive with the oracle sweep
//    disabled. The run ABORTS unless heap bytes/user stays under the
//    committed ceiling and throughput stays above the floor.
//
// Emits BENCH_scale.json (PROXDET_BENCH_JSON: "0" disables, unset/"1"
// writes to the current directory, anything else is the target directory).
// PROXDET_QUICK=1 shrinks to smoke-test size.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/bench_json.h"
#include "bench_support/mem_probe.h"
#include "common/timer.h"
#include "core/detector.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "traj/scenario.h"

// One TU per binary installs the shared counting operator new.
PROXDET_INSTALL_ALLOC_PROBE()

namespace proxdet {
namespace {

// Committed steady-state heap ceiling for streaming scenario runs. The
// budget at N=1M: position ring 12 x 16 B, generator user state ~64 B,
// interest graph ~2 adjacency entries, detector + index per-user state —
// about 450 B/user measured; 1024 leaves headroom without hiding a
// regression back to materialized O(N x epochs) storage (~16 B per user
// per epoch, i.e. thousands per user at city-scale horizons).
constexpr double kBytesPerUserCeiling = 1024.0;

// --- Part 1: streaming-vs-materialized parity -----------------------------

ScenarioSpec ParitySpec(ScenarioKind kind, bool quick) {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.num_users = quick ? 40 : 80;
  spec.epochs = quick ? 24 : 36;
  spec.avg_friends = 3.0;
  spec.alert_radius_m = 400.0;
  spec.seed = 4242;
  return spec;
}

Workload BuildParityWorkload(const ScenarioSpec& spec, bool stream) {
  ScenarioWorkloadConfig config;
  config.scenario = spec;
  config.stream = stream;
  config.compute_ground_truth = true;
  config.training_users = 16;
  config.training_epochs = 60;
  return BuildScenarioWorkload(config);
}

net::NetConfig ShardedConfig(int shards) {
  net::NetConfig config;
  config.shards = shards;
  config.batch_downlink = true;
  config.compress_installs = true;
  return config;
}

bool SameRun(const RunResult& a, const RunResult& b) {
  return a.alerts_exact && b.alerts_exact && a.alert_count == b.alert_count &&
         a.stats == b.stats && a.rebuild_count == b.rebuild_count;
}

// Runs the method with a clean metrics registry and returns the run plus
// the deterministic obs digest — the streaming and materialized modes must
// produce byte-identical digests.
RunResult RunWithDigest(Method method, const Workload& workload,
                        std::string* digest) {
  obs::Metrics().Reset();
  const RunResult result = RunMethod(method, workload);
  *digest = obs::Metrics().Snapshot().DeterministicDigest();
  return result;
}

struct ParityRow {
  ScenarioKind scenario = ScenarioKind::kCommuterRush;
  Method method = Method::kNaive;
  std::string mode;  // "threads" or "shards"
  int value = 0;
  bool exact = false;
};

// --- Part 2: scenario throughput rows -------------------------------------

struct ScenarioRow {
  ScenarioKind scenario = ScenarioKind::kCommuterRush;
  size_t users = 0;
  int epochs = 0;
  double seconds = 0.0;
  double epochs_per_sec = 0.0;
  double bytes_per_user_stream = 0.0;
  double bytes_per_user_materialized = 0.0;
  size_t alert_count = 0;
};

ScenarioWorkloadConfig ThroughputConfig(ScenarioKind kind, size_t users,
                                        int epochs, bool stream) {
  ScenarioWorkloadConfig config;
  ScenarioSpec spec;
  spec.kind = kind;
  spec.num_users = users;
  spec.epochs = epochs;
  spec.avg_friends = 2.0;
  spec.alert_radius_m = 250.0;
  spec.seed = 99;
  config.scenario = spec;
  config.stream = stream;
  // Throughput rows skip the O(E x epochs) oracle sweep; parity is part
  // 1's job at a size where the oracle is affordable.
  config.compute_ground_truth = false;
  config.training_users = 16;
  config.training_epochs = 60;
  return config;
}

// Builds the workload in the given mode, runs Naive over it, and
// reports throughput plus the live-heap high-water mark across build +
// run: the same measurement for both modes, so the bytes/user columns
// differ only by how positions are stored.
ScenarioRow RunScenario(ScenarioWorkloadConfig config, bool stream) {
  config.stream = stream;
  ScenarioRow row;
  row.scenario = config.scenario.kind;
  row.users = config.scenario.num_users;
  row.epochs = config.scenario.epochs;

  const uint64_t live_before = AllocProbe::LiveBytes();
  AllocProbe::ResetPeak();
  {
    const Workload workload = BuildScenarioWorkload(config);
    std::unique_ptr<Detector> detector =
        MakeDetector(Method::kNaive, workload);
    WallTimer timer;
    detector->Run(workload.world);
    row.seconds = timer.ElapsedSeconds();
    row.epochs_per_sec = row.epochs / std::max(row.seconds, 1e-9);
    row.alert_count = detector->SortedAlerts().size();
  }
  const uint64_t peak = AllocProbe::PeakLiveBytes();
  const double bytes_per_user =
      static_cast<double>(peak > live_before ? peak - live_before : 0) /
      static_cast<double>(row.users);
  if (stream) {
    row.bytes_per_user_stream = bytes_per_user;
  } else {
    row.bytes_per_user_materialized = bytes_per_user;
  }
  return row;
}

// --- JSON -----------------------------------------------------------------

std::string WriteJson(bool quick, const std::vector<ParityRow>& parity,
                      bool parity_exact,
                      const std::vector<ScenarioRow>& scenarios,
                      const ScenarioRow& million, uint64_t million_peak_rss,
                      double epochs_per_sec_floor) {
  const std::string path = BenchJsonPath("BENCH_scale.json");
  if (path.empty()) return path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return std::string();
  }
  std::fprintf(f, "{\n  \"figure\": \"scale\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"parity\": [\n");
  for (size_t i = 0; i < parity.size(); ++i) {
    const ParityRow& r = parity[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"method\": \"%s\", "
                 "\"mode\": \"%s\", \"value\": %d, \"exact\": %s}%s\n",
                 ScenarioName(r.scenario).c_str(), MethodName(r.method).c_str(),
                 r.mode.c_str(), r.value, r.exact ? "true" : "false",
                 i + 1 == parity.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"parity_exact\": %s,\n",
               parity_exact ? "true" : "false");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioRow& r = scenarios[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"users\": %zu, \"epochs\": %d, "
        "\"epochs_per_sec\": %.3f, \"bytes_per_user_stream\": %.1f, "
        "\"bytes_per_user_materialized\": %.1f, \"alerts\": %zu}%s\n",
        ScenarioName(r.scenario).c_str(), r.users, r.epochs, r.epochs_per_sec,
        r.bytes_per_user_stream, r.bytes_per_user_materialized, r.alert_count,
        i + 1 == scenarios.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"million\": {\"scenario\": \"%s\", \"users\": %zu, \"epochs\": %d, "
      "\"seconds\": %.2f, \"epochs_per_sec\": %.3f, "
      "\"bytes_per_user\": %.1f, \"peak_rss_bytes\": %llu},\n",
      ScenarioName(million.scenario).c_str(), million.users, million.epochs,
      million.seconds, million.epochs_per_sec, million.bytes_per_user_stream,
      static_cast<unsigned long long>(million_peak_rss));
  std::fprintf(f, "  \"bytes_per_user_ceiling\": %.0f,\n",
               kBytesPerUserCeiling);
  std::fprintf(f, "  \"epochs_per_sec_floor\": %.3f\n}\n",
               epochs_per_sec_floor);
  std::fclose(f);
  return path;
}

int Main() {
  const bool quick = QuickMode();

  // -- Part 1: streaming-vs-materialized parity ----------------------------
  std::printf("== streaming vs materialized parity ==\n");
  // Quick mode keeps one static-graph scenario and the churn scenario
  // (which exercises the streaming oracle against the dynamic-graph
  // update machinery); full mode covers the whole pack.
  const std::vector<ScenarioKind> parity_kinds =
      quick ? std::vector<ScenarioKind>{ScenarioKind::kCommuterRush,
                                        ScenarioKind::kHeavyChurn}
            : AllScenarioKinds();
  const std::vector<Method> methods = PaperMethodSet();
  const std::vector<unsigned> thread_sweep = {1, 4};
  const std::vector<int> shard_sweep = {1, 2};

  std::vector<ParityRow> parity;
  bool parity_exact = true;
  for (const ScenarioKind kind : parity_kinds) {
    const ScenarioSpec spec = ParitySpec(kind, quick);
    const Workload stream = BuildParityWorkload(spec, /*stream=*/true);
    const Workload mat = BuildParityWorkload(spec, /*stream=*/false);
    // The two oracles come from different sweeps (ring replay vs stored
    // trajectories); they must agree before per-method runs mean anything.
    if (stream.GroundTruth() != mat.GroundTruth()) {
      std::fprintf(stderr,
                   "FATAL: %s streaming oracle != materialized oracle\n",
                   ScenarioName(kind).c_str());
      return 1;
    }
    for (const Method method : methods) {
      for (const unsigned threads : thread_sweep) {
        ThreadPool::SetGlobalThreads(threads);
        std::string digest_stream;
        std::string digest_mat;
        const RunResult rs = RunWithDigest(method, stream, &digest_stream);
        const RunResult rm = RunWithDigest(method, mat, &digest_mat);
        ParityRow row;
        row.scenario = kind;
        row.method = method;
        row.mode = "threads";
        row.value = static_cast<int>(threads);
        row.exact = SameRun(rs, rm) && digest_stream == digest_mat;
        parity.push_back(row);
        if (!row.exact) parity_exact = false;
      }
      ThreadPool::SetGlobalThreads(4);
      for (const int shards : shard_sweep) {
        const net::TransportedRunResult ts =
            net::RunTransportedMethod(method, stream, ShardedConfig(shards));
        const net::TransportedRunResult tm =
            net::RunTransportedMethod(method, mat, ShardedConfig(shards));
        ParityRow row;
        row.scenario = kind;
        row.method = method;
        row.mode = "shards";
        row.value = shards;
        row.exact = SameRun(ts.run, tm.run);
        parity.push_back(row);
        if (!row.exact) parity_exact = false;
      }
    }
    std::printf("  %-13s %s\n", ScenarioName(kind).c_str(),
                parity_exact ? "ok" : "MISMATCH");
    std::fflush(stdout);
  }
  if (!parity_exact) {
    for (const ParityRow& row : parity) {
      if (!row.exact) {
        std::fprintf(stderr, "FATAL: %s %s stream != materialized at %s=%d\n",
                     ScenarioName(row.scenario).c_str(),
                     MethodName(row.method).c_str(), row.mode.c_str(),
                     row.value);
      }
    }
    return 1;
  }

  // -- Part 2: scenario throughput rows ------------------------------------
  std::printf("== scenario pack (streaming, Naive) ==\n");
  ThreadPool::SetGlobalThreads(4);
  const size_t row_users = quick ? 2000 : 50000;
  const int row_epochs = quick ? 24 : 40;
  std::vector<ScenarioRow> scenarios;
  for (const ScenarioKind kind : AllScenarioKinds()) {
    const ScenarioWorkloadConfig config =
        ThroughputConfig(kind, row_users, row_epochs, /*stream=*/true);
    ScenarioRow row = RunScenario(config, /*stream=*/true);
    row.bytes_per_user_materialized =
        RunScenario(config, /*stream=*/false).bytes_per_user_materialized;
    scenarios.push_back(row);
    std::printf(
        "  %-13s N=%6zu  %6.2f epochs/s  stream %7.1f B/user  "
        "materialized %8.1f B/user  alerts %zu\n",
        ScenarioName(kind).c_str(), row.users, row.epochs_per_sec,
        row.bytes_per_user_stream, row.bytes_per_user_materialized,
        row.alert_count);
    std::fflush(stdout);
  }

  // -- Part 3: million-user cell -------------------------------------------
  const size_t million_users = quick ? 20000 : 1000000;
  const int million_epochs = quick ? 12 : 16;
  const double epochs_per_sec_floor = quick ? 0.2 : 0.02;
  std::printf("== million-user streaming cell (N=%zu) ==\n", million_users);
  const ScenarioRow million = RunScenario(
      ThroughputConfig(ScenarioKind::kCommuterRush, million_users,
                       million_epochs, /*stream=*/true),
      /*stream=*/true);
  const uint64_t million_peak_rss = PeakRssBytes();
  std::printf(
      "  N=%zu epochs=%d  %.2f s  %.3f epochs/s  heap %.1f B/user  "
      "peak RSS %.1f MB\n",
      million.users, million.epochs, million.seconds, million.epochs_per_sec,
      million.bytes_per_user_stream,
      static_cast<double>(million_peak_rss) / (1024.0 * 1024.0));
  if (million.bytes_per_user_stream > kBytesPerUserCeiling) {
    std::fprintf(stderr,
                 "FATAL: %.1f heap bytes/user exceeds the committed ceiling "
                 "of %.0f — the streaming substrate regressed toward "
                 "materialized storage.\n",
                 million.bytes_per_user_stream, kBytesPerUserCeiling);
    return 1;
  }
  if (million.epochs_per_sec < epochs_per_sec_floor) {
    std::fprintf(stderr,
                 "FATAL: %.3f epochs/s under the %.3f floor at N=%zu.\n",
                 million.epochs_per_sec, epochs_per_sec_floor, million_users);
    return 1;
  }

  const std::string path =
      WriteJson(quick, parity, parity_exact, scenarios, million,
                million_peak_rss, epochs_per_sec_floor);
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace proxdet

int main() { return proxdet::Main(); }
