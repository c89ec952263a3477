// The per-epoch pair check is one exhaustive O(edges) scan in both engines.
// Labelled `pair_check` in ctest (and run in the TSan and UBSan trees and
// under PROXDET_SIMD_FORCE=scalar by scripts/check.sh):
//  - exactness: alerts equal the ground truth under random motion, dynamic
//    interest-graph churn and a match-heavy regime;
//  - determinism: alerts, CommStats, rebuild counts and the scan's work
//    counter are bit-identical across PROXDET_THREADS {1, 2, 4, 8};
//  - work bound: the scan never evaluates more region-pair predicates than
//    there are edge-epochs, so a per-user candidate enumeration cannot
//    creep back into the pair check unnoticed.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"

namespace proxdet {
namespace {

WorkloadConfig PropertyConfig(DatasetKind kind, uint64_t seed) {
  WorkloadConfig config;
  config.dataset = kind;
  config.num_users = 60;
  config.epochs = 50;
  config.speed_steps = 8;
  config.avg_friends = 7.0;
  config.alert_radius_m = 6000.0;
  config.seed = seed;
  config.training_users = 12;
  config.training_epochs = 60;
  return config;
}

struct ScanRun {
  std::vector<AlertEvent> alerts;
  CommStats stats;
  uint64_t rebuilds = 0;
  uint64_t candidates = 0;
  uint64_t validation_failures = 0;
};

ScanRun RunOnce(Method method, const Workload& workload) {
  RegionDetector::Options options;
  options.validate_builds = true;  // Edge snapshot + build soundness.
  std::unique_ptr<Detector> detector = MakeDetector(method, workload, options);
  detector->Run(workload.world);
  ScanRun run;
  run.alerts = detector->SortedAlerts();
  run.stats = detector->stats();
  if (const auto* rd = dynamic_cast<const RegionDetector*>(detector.get())) {
    run.rebuilds = rd->rebuild_count();
    run.candidates = rd->index_stats().candidates;
    run.validation_failures = rd->validation_failures();
  }
  return run;
}

void ExpectExactAndThreadInvariant(const Workload& workload, Method method) {
  ThreadPool::SetGlobalThreads(1);
  const ScanRun base = RunOnce(method, workload);
  EXPECT_EQ(base.alerts, workload.GroundTruth()) << MethodName(method);
  EXPECT_EQ(0u, base.validation_failures) << MethodName(method);
  for (const unsigned threads : {2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const ScanRun run = RunOnce(method, workload);
    EXPECT_EQ(run.alerts, base.alerts)
        << MethodName(method) << " t=" << threads;
    EXPECT_TRUE(run.stats == base.stats)
        << MethodName(method) << " t=" << threads << "\nt=1: " << base.stats
        << "\nt=" << threads << ": " << run.stats;
    EXPECT_EQ(run.rebuilds, base.rebuilds)
        << MethodName(method) << " t=" << threads;
    EXPECT_EQ(run.candidates, base.candidates)
        << MethodName(method) << " t=" << threads;
    EXPECT_EQ(0u, run.validation_failures)
        << MethodName(method) << " t=" << threads;
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
}

TEST(EdgeScanPropertyTest, RandomMotionBitExact) {
  const Workload workload =
      BuildWorkload(PropertyConfig(DatasetKind::kGeoLife, 91));
  for (const Method m :
       {Method::kNaive, Method::kFmd, Method::kCmd, Method::kStripeKf}) {
    ExpectExactAndThreadInvariant(workload, m);
  }
}

TEST(EdgeScanPropertyTest, DynamicGraphChurnBitExact) {
  // Fig. 13's dynamic workload shape: edges inserted and deleted while the
  // run is in flight, so the incrementally maintained edge snapshot — the
  // pair check's only input — is checked against graph.Edges() after
  // every update batch (validate_builds).
  Workload workload =
      BuildWorkload(PropertyConfig(DatasetKind::kSingaporeTaxi, 17));
  Rng rng(5);
  const auto initial = workload.world.graph().Edges();
  for (int epoch = 4; epoch < 48; epoch += 4) {
    for (int k = 0; k < 3; ++k) {
      const UserId u = static_cast<UserId>(rng.NextIndex(60));
      const UserId w = static_cast<UserId>(rng.NextIndex(60));
      if (u == w) continue;
      workload.world.ScheduleUpdate(
          {epoch, true, u, w, workload.config.alert_radius_m});
    }
    if (!initial.empty()) {
      const auto& e = initial[rng.NextIndex(initial.size())];
      workload.world.ScheduleUpdate({epoch, false, e.u, e.w, 0.0});
    }
  }
  for (const Method m : {Method::kNaive, Method::kFmd, Method::kCmd,
                         Method::kStripeKf}) {
    ExpectExactAndThreadInvariant(workload, m);
  }
}

TEST(EdgeScanPropertyTest, MatchHeavyWorkloadBitExact) {
  // A wider radius regime with more matches stresses the batched
  // match-region scan and match dissolution/re-centering.
  WorkloadConfig config = PropertyConfig(DatasetKind::kBeijingTaxi, 23);
  config.alert_radius_m = 12000.0;
  config.avg_friends = 10.0;
  const Workload workload = BuildWorkload(config);
  for (const Method m : {Method::kCmd, Method::kStripeHmm}) {
    ExpectExactAndThreadInvariant(workload, m);
  }
}

TEST(EdgeScanPropertyTest, CandidatesBoundedByEdgeEpochs) {
  // The graph is static here, so the sum over epochs of |E| is
  // epochs x |E|. Matched pairs and rebuilding endpoints are skipped, so
  // the scan can only come in under the bound.
  const Workload workload =
      BuildWorkload(PropertyConfig(DatasetKind::kGeoLife, 91));
  ASSERT_TRUE(workload.world.scheduled_updates().empty());
  const uint64_t edge_epochs =
      static_cast<uint64_t>(workload.world.epochs()) *
      workload.world.graph().Edges().size();
  const ScanRun cmd = RunOnce(Method::kCmd, workload);
  EXPECT_GT(cmd.candidates, 0u);
  EXPECT_LE(cmd.candidates, edge_epochs);
  // Stripes do not move, so Stripe+KF never runs the per-epoch pair check.
  const ScanRun stripe = RunOnce(Method::kStripeKf, workload);
  EXPECT_EQ(stripe.candidates, 0u);
}

}  // namespace
}  // namespace proxdet
