// End-to-end correctness: every detector must emit exactly the ground-truth
// alert stream on every dataset (DESIGN.md invariant 1), with region-build
// validation enabled (invariant 2).

#include <gtest/gtest.h>

#include "core/simulation.h"

namespace proxdet {
namespace {

WorkloadConfig SmallConfig(DatasetKind dataset, uint64_t seed) {
  WorkloadConfig config;
  config.dataset = dataset;
  config.num_users = 50;
  config.epochs = 60;
  config.speed_steps = 8;
  config.avg_friends = 6.0;
  config.alert_radius_m = 6000.0;
  config.seed = seed;
  config.training_users = 20;
  config.training_epochs = 120;
  return config;
}

class DetectorDatasetTest
    : public ::testing::TestWithParam<std::tuple<DatasetKind, Method>> {};

TEST_P(DetectorDatasetTest, AlertStreamMatchesGroundTruthExactly) {
  const auto [dataset, method] = GetParam();
  const Workload workload = BuildWorkload(SmallConfig(dataset, 404));
  RegionDetector::Options options;
  options.validate_builds = true;  // Check the soundness contract too.
  const RunResult result = RunMethod(method, workload, options);
  EXPECT_TRUE(result.alerts_exact)
      << MethodName(method) << " missed or invented alerts on "
      << DatasetName(dataset) << " (got " << result.alert_count << ", want "
      << workload.ground_truth.size() << ")";
  EXPECT_EQ(0u, result.validation_failures)
      << MethodName(method) << " on " << DatasetName(dataset);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, DetectorDatasetTest,
    ::testing::Combine(::testing::ValuesIn(AllDatasetKinds()),
                       ::testing::Values(Method::kNaive, Method::kStatic,
                                         Method::kFmd, Method::kCmd,
                                         Method::kStripeKf,
                                         Method::kStripeRmf,
                                         Method::kStripeHmm,
                                         Method::kStripeR2d2,
                                         Method::kStripeLinear)),
    [](const auto& info) {
      std::string name = DatasetName(std::get<0>(info.param)) + "_" +
                         MethodName(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DetectorIntegrationTest, RegionMethodsReportLessThanNaive) {
  const Workload workload =
      BuildWorkload(SmallConfig(DatasetKind::kTruck, 505));
  const RunResult naive = RunMethod(Method::kNaive, workload);
  for (const Method m :
       {Method::kStatic, Method::kCmd, Method::kStripeKf}) {
    const RunResult r = RunMethod(m, workload);
    EXPECT_LT(r.stats.reports, naive.stats.reports)
        << MethodName(m) << " should save uplink reports";
  }
}

TEST(DetectorIntegrationTest, DynamicInsertionsStayExact) {
  Workload workload = BuildWorkload(SmallConfig(DatasetKind::kGeoLife, 606));
  Rng rng(7);
  // Insert random edges over time (Sec. VI-E's workload).
  for (int epoch = 5; epoch < 55; epoch += 5) {
    for (int k = 0; k < 4; ++k) {
      const UserId u = static_cast<UserId>(rng.NextIndex(50));
      const UserId w = static_cast<UserId>(rng.NextIndex(50));
      if (u == w) continue;
      workload.world.ScheduleUpdate(
          {epoch, true, u, w, workload.config.alert_radius_m});
    }
  }
  // validate_builds also checks the incremental edge snapshot equals a
  // from-scratch graph.Edges() after every update batch.
  RegionDetector::Options options;
  options.validate_builds = true;
  for (const Method m : {Method::kNaive, Method::kCmd, Method::kStripeKf}) {
    const RunResult r = RunMethod(m, workload, options);
    EXPECT_TRUE(r.alerts_exact) << MethodName(m);
    EXPECT_EQ(0u, r.validation_failures) << MethodName(m);
  }
}

TEST(DetectorIntegrationTest, DynamicDeletionsStayExact) {
  Workload workload =
      BuildWorkload(SmallConfig(DatasetKind::kSingaporeTaxi, 707));
  // Delete a third of the initial edges mid-run.
  const auto edges = workload.world.graph().Edges();
  for (size_t i = 0; i < edges.size(); i += 3) {
    workload.world.ScheduleUpdate(
        {30, false, edges[i].u, edges[i].w, 0.0});
  }
  // validate_builds also checks the incremental edge snapshot equals a
  // from-scratch graph.Edges() after every update batch.
  RegionDetector::Options options;
  options.validate_builds = true;
  for (const Method m : {Method::kNaive, Method::kFmd, Method::kStripeKf}) {
    const RunResult r = RunMethod(m, workload, options);
    EXPECT_TRUE(r.alerts_exact) << MethodName(m);
    EXPECT_EQ(0u, r.validation_failures) << MethodName(m);
  }
}

TEST(DetectorIntegrationTest, StatsAreInternallyConsistent) {
  const Workload workload =
      BuildWorkload(SmallConfig(DatasetKind::kBeijingTaxi, 808));
  const RunResult r = RunMethod(Method::kStripeKf, workload);
  const CommStats& s = r.stats;
  EXPECT_EQ(s.TotalMessages(), s.reports + s.probes + s.alerts +
                                   s.region_installs + s.match_installs)
      << s;
  // Every alert notifies both endpoints.
  EXPECT_EQ(s.alerts % 2, 0u);
  EXPECT_EQ(s.alerts / 2, r.alert_count);
  // A probe always produces a report.
  EXPECT_LE(s.probes, s.reports);
}

TEST(DetectorIntegrationTest, DeterministicAcrossRuns) {
  const Workload workload =
      BuildWorkload(SmallConfig(DatasetKind::kTruck, 909));
  const RunResult a = RunMethod(Method::kCmd, workload);
  const RunResult b = RunMethod(Method::kCmd, workload);
  EXPECT_EQ(a.stats.TotalMessages(), b.stats.TotalMessages());
  EXPECT_EQ(a.alert_count, b.alert_count);
}

}  // namespace
}  // namespace proxdet
