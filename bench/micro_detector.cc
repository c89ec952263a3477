// Epoch-loop throughput of the detection engine itself — not the sweep
// harness. PR "parallel experiment engine" fanned out *cells* (method x
// sweep point); this bench measures the in-epoch parallelism inside one
// detector Run(): the SafeRegionExitPhase / MatchRegionPhase /
// PerEpochPairCheck scans and the Naive O(edges) distance scan, all of
// which share the parallel-scan + serial-commit pattern. Each (method,
// users) cell is re-run under a 1/2/4/8-thread global pool; the alert
// stream, CommStats and rebuild counts must be bit-exact across thread
// counts (the run aborts otherwise), and only wall-clock may improve.
// The single-thread Stripe+KF cell also runs once on the scalar kernel
// backend and must match bit for bit. Before the sweep, the stripe
// builder's three clearance kernels run on a fixed batch under the vector
// backend and under the scalar one: the vector backend must beat scalar by
// kSimdSpeedupFloor (the SIMD gate).
//
// Emits BENCH_detector.json (PROXDET_BENCH_JSON: "0" disables, unset/"1"
// writes to the current directory, anything else is the target directory),
// with a "machine" block naming the host, SIMD backend and build type.
// PROXDET_QUICK=1 shrinks to smoke-test size; PROXDET_BENCH_FULL=1 adds
// the 100k-user point.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/bench_json.h"
#include "bench_support/obs_artifacts.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/events.h"
#include "core/simulation.h"
#include "geom/simd/simd.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace proxdet {
namespace {

struct Row {
  Method method = Method::kNaive;
  size_t users = 0;
  int epochs = 0;
  unsigned threads = 0;
  double run_seconds = 0.0;
  double epochs_per_second = 0.0;
  double epochs_per_core = 0.0;  // epochs_per_second / threads.
  double speedup_vs_1t = 1.0;
  // Per-phase wall-clock split of the run (Detector::phase_times()):
  // match-region scan, safe-region exit scan, per-epoch pair check, and
  // the resolve/rebuild queue (probes + region builds).
  double match_region_seconds = 0.0;
  double exit_check_seconds = 0.0;
  double pair_check_seconds = 0.0;
  double rebuild_seconds = 0.0;
  uint64_t total_io = 0;
  uint64_t rebuild_count = 0;
  size_t alert_count = 0;
  bool alerts_exact = false;
};

// The SIMD gate: the stripe builder's clearance kernels, timed on one
// fixed batch under the vector backend and under the scalar one in the
// same process, must run at least this factor faster on the vector
// backend or the bench fails. A same-process ratio does not drift with
// host load the way an absolute epochs/s baseline does; a vector path that
// silently runs scalar code reads about 1.0. The gate times the kernels
// themselves because friend screening leaves the paper-default Stripe+KF
// cell no longer kernel-bound (its end-to-end ratio is printed, not
// gated). The floor and the ratios it was set from are in EXPERIMENTS.md
// ("SIMD gate").
constexpr double kSimdSpeedupFloor = 2.0;

/// One fixed batch for the SIMD gate, shaped like a stripe build's staged
/// friends: kGateLanes concatenated segments (so the vector kernels also
/// run their scalar tail) and kGateQueries path segments against them.
struct KernelGateBatch {
  static constexpr size_t kGateLanes = 250;
  static constexpr size_t kGateQueries = 64;
  std::vector<double> ax, ay, bx, by, dx, dy, len2;
  std::vector<double> qax, qay, qbx, qby;

  KernelGateBatch() {
    Rng rng(20180416);
    for (size_t i = 0; i < kGateLanes; ++i) {
      ax.push_back(rng.Uniform(-20000, 20000));
      ay.push_back(rng.Uniform(-20000, 20000));
      bx.push_back(ax.back() + rng.Uniform(-800, 800));
      by.push_back(ay.back() + rng.Uniform(-800, 800));
      dx.push_back(bx.back() - ax.back());
      dy.push_back(by.back() - ay.back());
      len2.push_back(dx.back() * dx.back() + dy.back() * dy.back());
    }
    for (size_t q = 0; q < kGateQueries; ++q) {
      qax.push_back(rng.Uniform(-20000, 20000));
      qay.push_back(rng.Uniform(-20000, 20000));
      qbx.push_back(qax.back() + rng.Uniform(-800, 800));
      qby.push_back(qay.back() + rng.Uniform(-800, 800));
    }
  }

  simd::SegmentSoA view() const {
    return {ax.data(), ay.data(), bx.data(), by.data(),
            dx.data(), dy.data(), len2.data(), kGateLanes};
  }

  /// One pass of the builder's three store kernels (anchor prune, point
  /// friends, stripe friends) for every query; `out` receives every lane.
  void Pass(std::vector<double>* out) const {
    out->resize(3 * kGateQueries * kGateLanes);
    double* o = out->data();
    const simd::SegmentSoA segs = view();
    for (size_t q = 0; q < kGateQueries; ++q) {
      const double qdx = qbx[q] - qax[q];
      const double qdy = qby[q] - qay[q];
      simd::SegmentsSquaredDistanceToPoint(segs, qbx[q], qby[q], o);
      o += kGateLanes;
      simd::SegmentSquaredDistanceToPoints(qax[q], qay[q], qdx, qdy,
                                           qdx * qdx + qdy * qdy, ax.data(),
                                           ay.data(), kGateLanes, o);
      o += kGateLanes;
      simd::SegmentToSegmentsSquaredDistances(qax[q], qay[q], qbx[q], qby[q],
                                              segs, o);
      o += kGateLanes;
    }
  }
};

/// Seconds per gate pass on the active backend: the best of kTrials
/// timings of kPasses passes each (the minimum is the least disturbed by
/// other load on the host).
double TimeKernelPasses(const KernelGateBatch& batch,
                        std::vector<double>* out) {
  constexpr int kTrials = 7;
  constexpr int kPasses = 40;
  double best = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    WallTimer timer;
    for (int p = 0; p < kPasses; ++p) batch.Pass(out);
    const double s = timer.ElapsedSeconds() / kPasses;
    best = t == 0 ? s : std::min(best, s);
  }
  return best;
}

/// Runs the SIMD gate for `backend`: returns the scalar ÷ vector time
/// ratio of the gate batch, or -1 when the two backends' lanes differ in
/// any bit.
double KernelGateRatio(simd::Backend backend) {
  const KernelGateBatch batch;
  std::vector<double> vector_out;
  std::vector<double> scalar_out;
  const double vector_s = TimeKernelPasses(batch, &vector_out);
  simd::SetActiveBackendForTest(simd::Backend::kScalar);
  const double scalar_s = TimeKernelPasses(batch, &scalar_out);
  simd::SetActiveBackendForTest(backend);
  if (std::memcmp(vector_out.data(), scalar_out.data(),
                  vector_out.size() * sizeof(double)) != 0) {
    return -1.0;
  }
  std::printf("SIMD gate: clearance kernels %.1f us (%s) vs %.1f us "
              "(scalar) per pass = %.3fx, gate %.2fx\n",
              vector_s * 1e6, simd::BackendName(backend), scalar_s * 1e6,
              scalar_s / vector_s, kSimdSpeedupFloor);
  std::fflush(stdout);
  return scalar_s / vector_s;
}

WorkloadConfig DetectorConfig(size_t users, int epochs) {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = users;
  config.epochs = epochs;
  config.speed_steps = 8;
  config.avg_friends = 30.0;     // Paper default F.
  config.alert_radius_m = 6000.0;  // Paper default r.
  config.seed = 20180416;
  // Predictor training happens outside the timed Run(); keep it modest so
  // the bench spends its time in the epoch loop under test.
  config.training_users = 40;
  config.training_epochs = 120;
  return config;
}

std::string WriteJson(const std::vector<Row>& rows) {
  const std::string path = BenchJsonPath("BENCH_detector.json");
  if (path.empty()) return "";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  std::fprintf(f,
               "{\n  \"figure\": \"detector\",\n  \"machine\": %s,\n"
               "  \"rows\": [\n",
               MachineJson().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"users\": %zu, \"epochs\": %d, "
        "\"threads\": %u, \"run_seconds\": %.6f, "
        "\"epochs_per_second\": %.3f, \"epochs_per_core\": %.3f, "
        "\"speedup_vs_1t\": %.3f, "
        "\"match_region_seconds\": %.6f, \"exit_check_seconds\": %.6f, "
        "\"pair_check_seconds\": %.6f, \"rebuild_seconds\": %.6f, "
        "\"total_io\": %llu, \"rebuild_count\": %llu, "
        "\"alert_count\": %zu, \"alerts_exact\": %s}%s\n",
        MethodName(r.method).c_str(), r.users, r.epochs, r.threads,
        r.run_seconds, r.epochs_per_second, r.epochs_per_core,
        r.speedup_vs_1t, r.match_region_seconds, r.exit_check_seconds,
        r.pair_check_seconds, r.rebuild_seconds,
        static_cast<unsigned long long>(r.total_io),
        static_cast<unsigned long long>(r.rebuild_count), r.alert_count,
        r.alerts_exact ? "true" : "false",
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

/// Runs one (method, users, threads) cell on a fresh detector and returns
/// its row; `*digest` receives the cell's deterministic-metrics digest.
Row RunCell(Method method, const Workload& workload, size_t users, int epochs,
            unsigned threads, std::string* digest) {
  ThreadPool::SetGlobalThreads(threads);
  // Fresh detector per cell: CMD's self-tuning multipliers persist across
  // Run() calls, and training under the cell's own pool keeps every cell
  // self-contained (training is deterministic per the engine contract, so
  // cells differ only in wall-clock).
  const std::unique_ptr<Detector> detector = MakeDetector(method, workload);
  obs::Metrics().Reset();  // Scope the registry to this cell.
  WallTimer timer;
  detector->Run(workload.world);
  *digest = obs::Metrics().Snapshot().DeterministicDigest();
  Row row;
  row.method = method;
  row.users = users;
  row.epochs = epochs;
  row.threads = threads;
  row.run_seconds = timer.ElapsedSeconds();
  row.epochs_per_second =
      row.run_seconds > 0.0 ? epochs / row.run_seconds : 0.0;
  row.epochs_per_core = row.epochs_per_second / threads;
  const Detector::PhaseTimes& phases = detector->phase_times();
  row.match_region_seconds = phases.match_region;
  row.exit_check_seconds = phases.exit_check;
  row.pair_check_seconds = phases.pair_check;
  row.rebuild_seconds = phases.rebuild;
  row.total_io = detector->stats().TotalMessages();
  const std::vector<AlertEvent> alerts = detector->SortedAlerts();
  row.alert_count = alerts.size();
  row.alerts_exact = alerts == workload.GroundTruth();
  if (const auto* rd = dynamic_cast<const RegionDetector*>(detector.get())) {
    row.rebuild_count = rd->rebuild_count();
  }
  return row;
}

/// Everything but wall-clock matches: message totals, alerts, rebuilds and
/// the observability layer's deterministic metrics.
bool SameOutput(const Row& a, const std::string& a_digest, const Row& b,
                const std::string& b_digest) {
  return a_digest == b_digest && a.total_io == b.total_io &&
         a.alert_count == b.alert_count && a.rebuild_count == b.rebuild_count;
}

int Main() {
  const bool quick = QuickMode();
  const bool full = [] {
    const char* v = std::getenv("PROXDET_BENCH_FULL");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();
  std::vector<size_t> user_sweep;
  if (quick) {
    user_sweep = {1000};
  } else {
    user_sweep = {10000, 30000};
    if (full) user_sweep.push_back(100000);
  }
  const int epochs = quick ? 10 : 30;
  const std::vector<Method> methods = {Method::kNaive, Method::kCmd,
                                       Method::kStripeKf};
  const std::vector<unsigned> thread_sweep = {1, 2, 4, 8};

  // The SIMD gate (kSimdSpeedupFloor), on full-size runs only. Scalar-only
  // runs (PROXDET_SIMD_FORCE=scalar, a CPU without AVX2, or a self-check
  // fallback) have no vector path to compare; they are covered by the
  // bit-exactness checks, not the gate.
  const simd::Backend backend = simd::ActiveBackend();
  if (!quick && backend != simd::Backend::kScalar) {
    const double ratio = KernelGateRatio(backend);
    if (ratio < 0.0) {
      std::fprintf(stderr,
                   "FATAL: the clearance kernels on %s differ from the "
                   "scalar backend — the kernels are not bit-exact.\n",
                   simd::BackendName(backend));
      return 1;
    }
    if (ratio < kSimdSpeedupFloor) {
      std::fprintf(stderr,
                   "FATAL: the clearance kernels run only %.3fx the scalar "
                   "backend's speed on %s — below the SIMD gate of %.2fx. "
                   "The batched hot path regressed.\n",
                   ratio, simd::BackendName(backend), kSimdSpeedupFloor);
      return 1;
    }
  }

  std::vector<Row> rows;
  for (const size_t users : user_sweep) {
    std::printf("building %zu-user workload (%d epochs)...\n", users, epochs);
    std::fflush(stdout);
    const Workload workload = BuildWorkload(DetectorConfig(users, epochs));
    for (const Method method : methods) {
      Row baseline;
      std::string baseline_digest;
      for (const unsigned threads : thread_sweep) {
        std::string digest;
        Row row = RunCell(method, workload, users, epochs, threads, &digest);
        if (!row.alerts_exact) {
          std::fprintf(stderr,
                       "FATAL: %s deviated from ground truth at %u threads "
                       "(%zu users) — the engine broke the correctness "
                       "contract.\n",
                       MethodName(method).c_str(), threads, users);
          return 1;
        }
        if (threads == 1) {
          baseline = row;
          baseline_digest = digest;
        } else {
          // Bit-exact determinism across thread counts: everything except
          // wall-clock must match the 1-thread run.
          if (!SameOutput(row, digest, baseline, baseline_digest)) {
            std::fprintf(stderr,
                         "FATAL: %s at %u threads diverged from the 1-thread "
                         "run (%zu users) — determinism contract broken.\n",
                         MethodName(method).c_str(), threads, users);
            return 1;
          }
          row.speedup_vs_1t = row.run_seconds > 0.0
                                  ? baseline.run_seconds / row.run_seconds
                                  : 0.0;
        }
        rows.push_back(row);
        std::printf(
            "  %-11s %7zu users  %u thread%s  %8.3f s  %7.2f epochs/s  "
            "(%.2fx)  [mr %.2f  exit %.2f  pair %.2f  rebuild %.2f]\n",
            MethodName(method).c_str(), users, threads,
            threads == 1 ? " " : "s", row.run_seconds, row.epochs_per_second,
            row.speedup_vs_1t, row.match_region_seconds,
            row.exit_check_seconds, row.pair_check_seconds,
            row.rebuild_seconds);
        std::fflush(stdout);
        // The single-thread Stripe+KF cell once more on the scalar
        // backend: every output must match bit for bit (full-size runs
        // with a vector backend only, like the gate).
        if (quick || backend == simd::Backend::kScalar ||
            method != Method::kStripeKf || threads != 1) {
          continue;
        }
        simd::SetActiveBackendForTest(simd::Backend::kScalar);
        std::string scalar_digest;
        const Row scalar =
            RunCell(method, workload, users, epochs, threads, &scalar_digest);
        simd::SetActiveBackendForTest(backend);
        const double ratio = scalar.run_seconds / row.run_seconds;
        std::printf("  %-11s %7zu users  scalar    %8.3f s  %7.2f epochs/s  "
                    "(SIMD %s / scalar = %.3fx, not gated)\n",
                    MethodName(method).c_str(), users, scalar.run_seconds,
                    scalar.epochs_per_second, simd::BackendName(backend),
                    ratio);
        std::fflush(stdout);
        if (!SameOutput(scalar, scalar_digest, row, digest)) {
          std::fprintf(stderr,
                       "FATAL: %s on the scalar backend diverged from the %s "
                       "run (%zu users) — the kernels are not bit-exact.\n",
                       MethodName(method).c_str(), simd::BackendName(backend),
                       users);
          return 1;
        }
      }
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
  const std::string json = WriteJson(rows);
  if (!json.empty()) std::printf("wrote %s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace proxdet

int main() { return proxdet::Main(); }
