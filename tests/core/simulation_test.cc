#include "core/simulation.h"

#include <gtest/gtest.h>

#include "bench_support/experiment.h"
#include "bench_support/sweep_runner.h"

namespace proxdet {
namespace {

WorkloadConfig TinyConfig(DatasetKind dataset) {
  WorkloadConfig config;
  config.dataset = dataset;
  config.num_users = 40;
  config.epochs = 50;
  config.speed_steps = 8;
  config.avg_friends = 5.0;
  config.alert_radius_m = 5000.0;
  config.seed = 1234;
  config.training_users = 12;
  config.training_epochs = 80;
  return config;
}

TEST(SimulationTest, MethodNamesMatchPaper) {
  EXPECT_EQ(MethodName(Method::kNaive), "Naive");
  EXPECT_EQ(MethodName(Method::kCmd), "CMD");
  EXPECT_EQ(MethodName(Method::kStripeKf), "Stripe+KF");
  EXPECT_EQ(MethodName(Method::kStripeR2d2), "Stripe+R2-D2");
  EXPECT_EQ(PaperMethodSet().size(), 8u);
}

TEST(SimulationTest, BuildWorkloadShape) {
  const WorkloadConfig config = TinyConfig(DatasetKind::kGeoLife);
  const Workload workload = BuildWorkload(config);
  EXPECT_EQ(workload.world.user_count(), config.num_users);
  EXPECT_EQ(workload.world.epochs(), config.epochs);
  EXPECT_EQ(workload.training.size(), config.training_users);
  // Training data is epoch-spaced (dt = tick * V).
  EXPECT_NEAR(workload.training.front().dt(),
              5.0 * config.speed_steps, 1e-9);
  // Ground truth precomputed and sorted.
  for (size_t i = 1; i < workload.ground_truth.size(); ++i) {
    EXPECT_TRUE(workload.ground_truth[i - 1] < workload.ground_truth[i] ||
                workload.ground_truth[i - 1] == workload.ground_truth[i]);
  }
}

TEST(SimulationTest, BuildWorkloadDeterministic) {
  const WorkloadConfig config = TinyConfig(DatasetKind::kTruck);
  const Workload a = BuildWorkload(config);
  const Workload b = BuildWorkload(config);
  EXPECT_EQ(a.ground_truth.size(), b.ground_truth.size());
  EXPECT_EQ(a.world.graph().edge_count(), b.world.graph().edge_count());
  EXPECT_EQ(a.world.Position(3, 17), b.world.Position(3, 17));
}

TEST(SimulationTest, CalibratedSigmaIsMonotonePerStep) {
  const Workload workload = BuildWorkload(TinyConfig(DatasetKind::kTruck));
  const auto predictor =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  const StripePolicy::Options opts =
      CalibratedStripeOptions(predictor.get(), workload);
  ASSERT_FALSE(opts.build.sigma_per_step.empty());
  for (size_t j = 1; j < opts.build.sigma_per_step.size(); ++j) {
    EXPECT_GE(opts.build.sigma_per_step[j],
              opts.build.sigma_per_step[j - 1]);
  }
  EXPECT_GE(opts.build.sigma_per_step.front(), 1.0);
}

TEST(SimulationTest, MatchRegionAblationStaysExactAndCostsMore) {
  const Workload workload =
      BuildWorkload(TinyConfig(DatasetKind::kSingaporeTaxi));
  RegionDetector::Options with;
  RegionDetector::Options without;
  without.use_match_regions = false;
  const RunResult a = RunMethod(Method::kStripeKf, workload, with);
  const RunResult b = RunMethod(Method::kStripeKf, workload, without);
  EXPECT_TRUE(a.alerts_exact);
  EXPECT_TRUE(b.alerts_exact);
  if (!workload.ground_truth.empty()) {
    // Without Def. 3, matched pairs stream reports every epoch.
    EXPECT_GE(b.stats.reports, a.stats.reports);
  }
}

TEST(SimulationTest, DefaultExperimentConfigMatchesTable2Defaults) {
  const WorkloadConfig config =
      DefaultExperimentConfig(DatasetKind::kBeijingTaxi);
  EXPECT_EQ(config.speed_steps, 8);          // V default.
  EXPECT_DOUBLE_EQ(config.avg_friends, 30);  // F default.
  EXPECT_DOUBLE_EQ(config.alert_radius_m, 6000.0);  // r default.
  EXPECT_EQ(config.dataset, DatasetKind::kBeijingTaxi);
}

TEST(SweepRunnerTest, GroupTableRendersSeries) {
  // Two groups, interleaved: a group's table holds only its own points, in
  // insertion order, with one column per method in method order.
  SweepRunner runner("group_table_test",
                     std::vector<Method>{Method::kNaive, Method::kCmd});
  WorkloadConfig geolife = TinyConfig(DatasetKind::kGeoLife);
  geolife.num_users = 20;
  geolife.epochs = 20;
  WorkloadConfig truck = geolife;
  truck.dataset = DatasetKind::kTruck;
  runner.AddPoint("GeoLife", "20", geolife);
  runner.AddPoint("Truck", "20", truck);
  geolife.num_users = 30;
  runner.AddPoint("GeoLife", "30", geolife);
  const std::vector<std::vector<RunResult>>& grid = runner.Run();
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(runner.groups(), (std::vector<std::string>{"GeoLife", "Truck"}));
  EXPECT_EQ(runner.GroupRows("GeoLife"), (std::vector<size_t>{0, 2}));

  std::string expected = "users,Naive,CMD\n";
  for (const size_t p : {size_t{0}, size_t{2}}) {
    ASSERT_EQ(grid[p].size(), 2u);
    EXPECT_EQ(grid[p][0].method, Method::kNaive);
    EXPECT_EQ(grid[p][1].method, Method::kCmd);
    expected += p == 0 ? "20" : "30";
    for (const RunResult& r : grid[p]) {
      EXPECT_TRUE(r.alerts_exact);
      expected += "," + std::to_string(r.stats.TotalMessages());
    }
    expected += "\n";
  }
  const Table table = runner.GroupTable("demo", "users", "GeoLife");
  EXPECT_EQ(table.ToCsv(), expected);
  EXPECT_NE(table.ToString().find("demo"), std::string::npos);
}

TEST(SimulationTest, StripeLinearUsesLinearPredictor) {
  const Workload workload = BuildWorkload(TinyConfig(DatasetKind::kTruck));
  const auto detector = MakeDetector(Method::kStripeLinear, workload);
  EXPECT_EQ(detector->name(), "Stripe+Linear");
}

}  // namespace
}  // namespace proxdet
