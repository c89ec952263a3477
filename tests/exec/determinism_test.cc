// The parallel experiment engine's headline guarantee: byte-identical
// results for PROXDET_THREADS=1 and =N. These tests run the same work
// under a 1-thread and a 4-thread global pool and demand bit-exact
// equality of everything except wall-clock fields.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_support/sweep_runner.h"
#include "common/rng.h"
#include "core/policies.h"
#include "core/region_detector.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "predict/evaluator.h"

namespace proxdet {
namespace {

WorkloadConfig TinyConfig(size_t num_users) {
  WorkloadConfig config;
  config.dataset = DatasetKind::kTruck;
  config.num_users = num_users;
  config.epochs = 30;
  config.training_users = 16;
  config.training_epochs = 60;
  return config;
}

// Restores the default global pool even when an assertion fails mid-test.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
  }
};

TEST(DeterminismTest, GroundTruthIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  Workload workload = BuildWorkload(TinyConfig(60));
  // Exercise the dynamic-graph path too: the per-pair replay must handle
  // scheduled inserts identically in serial and parallel runs.
  Rng rng(77);
  for (int epoch = 2; epoch < 30; epoch += 3) {
    const UserId u = static_cast<UserId>(rng.NextIndex(60));
    const UserId w = static_cast<UserId>(rng.NextIndex(60));
    if (u == w) continue;
    workload.world.ScheduleUpdate(
        {epoch, true, u, w, workload.config.alert_radius_m});
  }

  ThreadPool::SetGlobalThreads(1);
  const std::vector<AlertEvent> serial = workload.world.GroundTruthAlerts();
  ThreadPool::SetGlobalThreads(4);
  const std::vector<AlertEvent> parallel = workload.world.GroundTruthAlerts();

  EXPECT_FALSE(serial.empty());
  EXPECT_TRUE(serial == parallel);
}

TEST(DeterminismTest, CalibrationIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const Workload workload = BuildWorkload(TinyConfig(40));

  ThreadPool::SetGlobalThreads(1);
  const auto serial_model =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  Rng serial_rng(9);
  const std::vector<double> serial_sigma = CalibrateCrossTrackSigmaPerStep(
      serial_model.get(), workload.training, 10, 8, 40, &serial_rng);

  ThreadPool::SetGlobalThreads(4);
  const auto parallel_model =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  Rng parallel_rng(9);
  const std::vector<double> parallel_sigma = CalibrateCrossTrackSigmaPerStep(
      parallel_model.get(), workload.training, 10, 8, 40, &parallel_rng);

  ASSERT_EQ(serial_sigma.size(), parallel_sigma.size());
  for (size_t i = 0; i < serial_sigma.size(); ++i) {
    // Bit-exact, not approximately equal: the grid tuning and the per-query
    // fan-out merge in slot order, so no float may differ.
    EXPECT_EQ(serial_sigma[i], parallel_sigma[i]) << "step " << i;
  }
}

// The in-epoch parallelism (SafeRegionExitPhase / MatchRegionPhase /
// PerEpochPairCheck scans, the speculative resolve, Naive's edge scan):
// every method on a dynamic-graph workload must produce identical
// decisions — not just the same alert *count* — under 1-, 2-, 3-, 4- and
// 8-thread pools. alerts_exact pins every stream to the same oracle, so
// equal counts + exact == equal streams.
TEST(DeterminismTest, DetectorEpochLoopIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  Workload workload = BuildWorkload(TinyConfig(60));
  // Interleave inserts and deletes so the edge-cache invalidation path and
  // match-dissolution on removal run under both pools.
  Rng rng(123);
  std::vector<std::pair<UserId, UserId>> inserted;
  for (int epoch = 1; epoch < 28; epoch += 2) {
    const UserId u = static_cast<UserId>(rng.NextIndex(60));
    const UserId w = static_cast<UserId>(rng.NextIndex(60));
    if (u == w) continue;
    if (epoch % 6 == 5 && !inserted.empty()) {
      const auto& pair = inserted[rng.NextIndex(inserted.size())];
      workload.world.ScheduleUpdate({epoch, false, pair.first, pair.second,
                                     workload.config.alert_radius_m});
    } else {
      workload.world.ScheduleUpdate(
          {epoch, true, u, w, workload.config.alert_radius_m});
      inserted.push_back({u, w});
    }
  }

  // Every paper method, plus the fifth Stripe method (Stripe+Linear); the
  // Stripe methods build speculatively on every pool with > 1 thread, and
  // 3 threads gives a window that is not a power of two.
  std::vector<Method> methods = PaperMethodSet();
  methods.push_back(Method::kStripeLinear);
  for (const Method method : methods) {
    ThreadPool::SetGlobalThreads(1);
    const RunResult serial = RunMethod(method, workload);
    EXPECT_TRUE(serial.alerts_exact) << MethodName(method);
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
      ThreadPool::SetGlobalThreads(threads);
      const RunResult parallel = RunMethod(method, workload);

      const std::string name =
          MethodName(method) + " at " + std::to_string(threads) + " threads";
      EXPECT_TRUE(serial.stats.SameMessageCounts(parallel.stats))
          << name << ": serial " << serial.stats << " vs parallel "
          << parallel.stats;
      EXPECT_EQ(serial.stats.reports, parallel.stats.reports) << name;
      EXPECT_EQ(serial.stats.probes, parallel.stats.probes) << name;
      EXPECT_EQ(serial.stats.alerts, parallel.stats.alerts) << name;
      EXPECT_EQ(serial.stats.region_installs, parallel.stats.region_installs)
          << name;
      EXPECT_EQ(serial.stats.match_installs, parallel.stats.match_installs)
          << name;
      EXPECT_EQ(serial.rebuild_count, parallel.rebuild_count) << name;
      EXPECT_EQ(serial.alert_count, parallel.alert_count) << name;
      EXPECT_TRUE(parallel.alerts_exact) << name;
    }
  }
}

/// A forwarding StripePolicy that counts the regions built inline by the
/// commit (BuildRegion). With more than one pool thread every queued user
/// has a window slot, so the commit builds inline only when its views no
/// longer match the slot's (a miss); every other region comes from
/// BuildConcurrent. Which builds miss depends only on the window layout
/// and the engine state, not on when the helpers run.
class InlineBuildCounter final : public RegionPolicy {
 public:
  explicit InlineBuildCounter(std::unique_ptr<StripePolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override {
    ++inline_builds_;
    return inner_->BuildRegion(u, location, recent_window, speed, friends,
                               epoch);
  }
  bool BuildConcurrent(UserId u, const Vec2& location,
                       const std::vector<Vec2>& recent_window, double speed,
                       const std::vector<FriendView>& friends, int epoch,
                       ConcurrentBuild* out) const override {
    return inner_->BuildConcurrent(u, location, recent_window, speed,
                                   friends, epoch, out);
  }
  void RecordBuild(const BuildSample& sample) override {
    inner_->RecordBuild(sample);
  }
  uint64_t inline_builds() const { return inline_builds_; }

 private:
  std::unique_ptr<StripePolicy> inner_;
  uint64_t inline_builds_ = 0;  // Run() thread only.
};

// A dense crowd — few users, many friends each, a wide alert radius — where
// one commit's probes and matches routinely change a later window member's
// views: the speculative resolve must discard those builds and build
// inline (0 < inline builds < rebuilds) and still reproduce the 1-thread
// run exactly.
TEST(DeterminismTest, SpeculationMissesStayExact) {
  GlobalPoolGuard guard;
  WorkloadConfig config = TinyConfig(40);
  config.avg_friends = 20.0;
  config.alert_radius_m = 12000.0;
  const Workload workload = BuildWorkload(config);

  struct Outcome {
    std::vector<AlertEvent> alerts;
    CommStats stats;
    uint64_t rebuilds = 0;
    uint64_t inline_builds = 0;
    std::string digest;
  };
  const auto run = [&](unsigned threads) {
    ThreadPool::SetGlobalThreads(threads);
    obs::Metrics().Reset();
    std::unique_ptr<Predictor> predictor =
        MakeTrainedPredictor(PredictorKind::kKalman, workload);
    const StripePolicy::Options options =
        CalibratedStripeOptions(predictor.get(), workload);
    auto policy = std::make_unique<InlineBuildCounter>(
        std::make_unique<StripePolicy>(std::move(predictor), options));
    const InlineBuildCounter& counter = *policy;
    RegionDetector detector(std::move(policy));
    detector.Run(workload.world);
    Outcome out;
    out.alerts = detector.SortedAlerts();
    out.stats = detector.stats();
    out.rebuilds = detector.rebuild_count();
    out.inline_builds = counter.inline_builds();
    out.digest = obs::Metrics().Snapshot().DeterministicDigest();
    return out;
  };

  const Outcome serial = run(1);
  const Outcome parallel = run(4);
  EXPECT_EQ(serial.alerts, workload.GroundTruth());
  EXPECT_EQ(serial.inline_builds, serial.rebuilds);
  EXPECT_GT(parallel.inline_builds, 0u)
      << "the workload no longer forces a miss";
  EXPECT_LT(parallel.inline_builds, parallel.rebuilds)
      << "no speculative build was taken";
  EXPECT_EQ(parallel.alerts, serial.alerts);
  EXPECT_EQ(parallel.rebuilds, serial.rebuilds);
  EXPECT_TRUE(parallel.stats == serial.stats)
      << serial.stats << " vs " << parallel.stats;
  EXPECT_EQ(parallel.digest, serial.digest);
}

std::vector<std::vector<RunResult>> RunTinySweep() {
  SweepRunner runner("determinism_test",
                     std::vector<Method>{Method::kStatic, Method::kCmd,
                                         Method::kStripeKf});
  for (const size_t users : {size_t{40}, size_t{60}}) {
    runner.AddPoint("Truck", std::to_string(users), TinyConfig(users));
  }
  return runner.Run();
}

TEST(DeterminismTest, SweepResultsIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const std::vector<std::vector<RunResult>> serial = RunTinySweep();
  ThreadPool::SetGlobalThreads(4);
  const std::vector<std::vector<RunResult>> parallel = RunTinySweep();

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (size_t c = 0; c < serial[p].size(); ++c) {
      const RunResult& a = serial[p][c];
      const RunResult& b = parallel[p][c];
      EXPECT_EQ(a.method, b.method);
      EXPECT_TRUE(a.stats.SameMessageCounts(b.stats))
          << p << "," << c << ": serial " << a.stats << " vs parallel "
          << b.stats;
      EXPECT_EQ(a.stats.reports, b.stats.reports) << p << "," << c;
      EXPECT_EQ(a.stats.probes, b.stats.probes) << p << "," << c;
      EXPECT_EQ(a.stats.alerts, b.stats.alerts) << p << "," << c;
      EXPECT_EQ(a.stats.region_installs, b.stats.region_installs)
          << p << "," << c;
      EXPECT_EQ(a.stats.match_installs, b.stats.match_installs)
          << p << "," << c;
      EXPECT_EQ(a.alert_count, b.alert_count) << p << "," << c;
      // Every cell's alert stream matched ground truth in both runs — the
      // alert-stream equality half of the determinism guarantee. (Run()
      // would have aborted otherwise; assert it anyway.)
      EXPECT_TRUE(a.alerts_exact) << p << "," << c;
      EXPECT_TRUE(b.alerts_exact) << p << "," << c;
      // stats.server_seconds is wall-clock and deliberately not compared.
    }
  }
}

}  // namespace
}  // namespace proxdet
