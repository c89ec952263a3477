// Ablation: the two calibrations DESIGN.md §2.2 adds on top of the paper's
// cost model —
//   (a) approach_factor: Eq. (4) assumes every friend beelines toward the
//       stripe at full speed; scaling the assumed approach speed down stops
//       the E_m = E_p balance from starving the stripe of radius;
//   (b) per-step sigma: one scalar sigma prices a 2-step stripe and a
//       20-step stripe with the same error scale.
// Rows report total I/O of Stripe+KF under each combination; the variant
// cells fan out through SweepRunner.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench_support/experiment.h"
#include "bench_support/sweep_runner.h"

using namespace proxdet;

namespace {

RunResult RunVariant(const Workload& workload, double approach_factor,
                     bool per_step_sigma) {
  std::unique_ptr<Predictor> predictor =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  StripePolicy::Options sopts =
      CalibratedStripeOptions(predictor.get(), workload);
  sopts.build.approach_factor = approach_factor;
  if (!per_step_sigma) {
    // Collapse the calibration to its mean, as a single-sigma model would.
    double mean = 0.0;
    for (const double s : sopts.build.sigma_per_step) mean += s;
    mean /= static_cast<double>(sopts.build.sigma_per_step.size());
    sopts.build.sigma = mean;
    sopts.build.sigma_per_step.clear();
  }
  RegionDetector detector(
      std::make_unique<StripePolicy>(std::move(predictor), sopts));
  detector.Run(workload.world);
  RunResult result;
  result.method = Method::kStripeKf;
  result.stats = detector.stats();
  const std::vector<AlertEvent> alerts = detector.SortedAlerts();
  result.alert_count = alerts.size();
  result.alerts_exact = alerts == workload.GroundTruth();
  return result;
}

}  // namespace

int main() {
  const bool quick = QuickMode();
  const std::vector<double> factors{1.0, 0.5, 0.25, 0.08};

  // Columns: (approach_factor x sigma mode), per-step first.
  std::vector<SweepColumn> columns;
  for (const double factor : factors) {
    for (const bool per_step : {true, false}) {
      columns.push_back(
          {FormatDouble(factor, 2) + (per_step ? "/per-step" : "/scalar"),
           [factor, per_step](const Workload& workload) {
             return RunVariant(workload, factor, per_step);
           }});
    }
  }

  SweepRunner runner("ablation_cost_model", columns);
  for (const DatasetKind dataset :
       {DatasetKind::kTruck, DatasetKind::kBeijingTaxi}) {
    WorkloadConfig config = DefaultExperimentConfig(dataset);
    if (quick) {
      config.num_users = 80;
      config.epochs = 60;
    }
    runner.AddPoint(DatasetName(dataset), DatasetName(dataset), config);
  }
  const std::vector<std::vector<RunResult>>& results = runner.Run();

  size_t row = 0;
  for (const DatasetKind dataset :
       {DatasetKind::kTruck, DatasetKind::kBeijingTaxi}) {
    Table table("Ablation (cost model) - Stripe+KF total I/O on " +
                DatasetName(dataset));
    table.SetHeader({"approach_factor", "per-step sigma", "scalar sigma"});
    for (size_t fi = 0; fi < factors.size(); ++fi) {
      table.AddRow(
          {FormatDouble(factors[fi], 2),
           std::to_string(results[row][2 * fi].stats.TotalMessages()),
           std::to_string(results[row][2 * fi + 1].stats.TotalMessages())});
    }
    std::printf("%s(approach_factor = 1.00 is the literal Eq. (4))\n\n",
                table.ToString().c_str());
    ++row;
  }
  runner.WriteJson();
  return 0;
}
