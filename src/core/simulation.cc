#include "core/simulation.h"

#include <algorithm>

#include "common/rng.h"
#include "core/policies.h"
#include "exec/thread_pool.h"
#include "predict/evaluator.h"
#include "predict/kalman.h"

namespace proxdet {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kNaive:
      return "Naive";
    case Method::kStatic:
      return "Static";
    case Method::kFmd:
      return "FMD";
    case Method::kCmd:
      return "CMD";
    case Method::kStripeRmf:
      return "Stripe+RMF";
    case Method::kStripeHmm:
      return "Stripe+HMM";
    case Method::kStripeR2d2:
      return "Stripe+R2-D2";
    case Method::kStripeKf:
      return "Stripe+KF";
    case Method::kStripeLinear:
      return "Stripe+Linear";
  }
  return "Unknown";
}

std::vector<Method> PaperMethodSet() {
  return {Method::kNaive,     Method::kStatic,    Method::kFmd,
          Method::kCmd,       Method::kStripeRmf, Method::kStripeHmm,
          Method::kStripeR2d2, Method::kStripeKf};
}

namespace {

/// Subsamples a raw-tick trajectory to epoch granularity (every
/// `speed_steps`-th point), matching the cadence detectors see.
Trajectory ToEpochSpacing(const Trajectory& raw, int speed_steps) {
  std::vector<Vec2> pts;
  pts.reserve(raw.size() / speed_steps + 1);
  for (size_t i = 0; i < raw.size();
       i += static_cast<size_t>(speed_steps)) {
    pts.push_back(raw.at(i));
  }
  return Trajectory(std::move(pts), raw.dt() * speed_steps);
}

PredictorKind PredictorForMethod(Method method) {
  switch (method) {
    case Method::kStripeRmf:
      return PredictorKind::kRmf;
    case Method::kStripeHmm:
      return PredictorKind::kHmm;
    case Method::kStripeR2d2:
      return PredictorKind::kR2d2;
    case Method::kStripeKf:
      return PredictorKind::kKalman;
    default:
      return PredictorKind::kLinear;
  }
}

/// Grid-tunes the Kalman noise parameters on the training set (the paper
/// tunes them "for the best performance", Sec. VI-B). The 18 grid cells are
/// independent — each evaluates its own candidate with its own Rng(seed) —
/// so they fan out across the pool; the argmin scans cell results in grid
/// order, which reproduces the serial tie-breaking exactly.
std::unique_ptr<Predictor> MakeTunedKalman(
    const std::vector<Trajectory>& training, uint64_t seed) {
  const std::vector<double> process_grid = {0.05, 0.2, 0.8, 3.0, 12.0, 50.0};
  const std::vector<double> measurement_grid = {2.0, 5.0, 12.0};
  struct Cell {
    double q = 0.0;
    double r = 0.0;
    double mean_error = 0.0;
    size_t query_count = 0;
  };
  const size_t cells = process_grid.size() * measurement_grid.size();
  const std::vector<Cell> results = ParallelMap<Cell>(cells, [&](size_t i) {
    Cell cell;
    cell.q = process_grid[i / measurement_grid.size()];
    cell.r = measurement_grid[i % measurement_grid.size()];
    KalmanPredictor candidate(1.0, cell.q, cell.r);
    Rng rng(seed);
    const PredictionEvaluation eval =
        EvaluatePredictor(&candidate, training, 10, 10, 120, &rng);
    cell.mean_error = eval.mean_error_m;
    cell.query_count = eval.query_count;
    return cell;
  });
  double best_error = -1.0;
  double best_q = 0.8;
  double best_r = 5.0;
  for (const Cell& cell : results) {
    if (cell.query_count == 0) continue;
    if (best_error < 0.0 || cell.mean_error < best_error) {
      best_error = cell.mean_error;
      best_q = cell.q;
      best_r = cell.r;
    }
  }
  return std::make_unique<KalmanPredictor>(1.0, best_q, best_r);
}

}  // namespace

Workload BuildWorkload(const WorkloadConfig& config) {
  TrajectoryGenerator generator(SpecFor(config.dataset), config.seed);
  const size_t raw_ticks =
      static_cast<size_t>(config.epochs) * config.speed_steps + 1;
  std::vector<Trajectory> trajectories =
      generator.Generate(config.num_users, raw_ticks);

  Rng graph_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  InterestGraph graph = InterestGraph::Random(
      config.num_users, config.avg_friends, 0.7 * config.alert_radius_m,
      1.3 * config.alert_radius_m, &graph_rng);

  // Training users move on the same network but are disjoint from the
  // monitored population.
  const size_t training_ticks =
      static_cast<size_t>(config.training_epochs) * config.speed_steps + 1;
  std::vector<Trajectory> training_raw =
      generator.Generate(config.training_users, training_ticks);
  std::vector<Trajectory> training;
  training.reserve(training_raw.size());
  for (const Trajectory& t : training_raw) {
    training.push_back(ToEpochSpacing(t, config.speed_steps));
  }

  World world(std::move(trajectories), std::move(graph), config.speed_steps,
              config.epochs);
  std::vector<AlertEvent> ground_truth = world.GroundTruthAlerts();
  return Workload(config, std::move(world), std::move(training),
                  std::move(ground_truth));
}

Workload BuildScenarioWorkload(const ScenarioWorkloadConfig& config) {
  const ScenarioSpec& spec = config.scenario;
  Scenario scenario = BuildScenario(spec);

  // Predictor training is always a small materialized fleet, built the
  // same way for both modes — detector construction (and with it every
  // downstream decision) is identical whether the monitored population
  // streams or not.
  std::vector<Trajectory> training = BuildScenarioTraining(
      spec, config.training_users, config.training_epochs);

  InterestGraph graph = std::move(scenario.graph);
  std::vector<Trajectory> materialized;
  if (!config.stream) {
    materialized = MaterializeStream(*scenario.generator, spec.epochs);
  }
  World world =
      config.stream
          ? World(std::move(scenario.generator), std::move(graph),
                  spec.epochs)
          : World(std::move(materialized), std::move(graph),
                  /*speed_steps=*/1, spec.epochs);
  for (const EdgeChurnEvent& ev : scenario.churn) {
    world.ScheduleUpdate({ev.epoch, ev.insert, ev.u, ev.w, ev.alert_radius});
  }

  // Static-graph scenarios pay the oracle at build like BuildWorkload;
  // churn scenarios defer to the call_once-memoized GroundTruth() so the
  // post-update scan runs once however many methods share the workload.
  std::vector<AlertEvent> ground_truth;
  if (config.compute_ground_truth && scenario.churn.empty()) {
    ground_truth = world.GroundTruthAlerts();
  }

  WorkloadConfig wc;
  wc.num_users = spec.num_users;
  wc.epochs = spec.epochs;
  wc.speed_steps = spec.speed_steps;
  wc.avg_friends = spec.avg_friends;
  wc.alert_radius_m = spec.alert_radius_m;
  wc.seed = spec.seed;
  wc.training_users = config.training_users;
  wc.training_epochs = config.training_epochs;

  Workload workload(wc, std::move(world), std::move(training),
                    std::move(ground_truth));
  workload.oracle_enabled = config.compute_ground_truth;
  return workload;
}

Workload::Workload(WorkloadConfig config_in, World world_in,
                   std::vector<Trajectory> training_in,
                   std::vector<AlertEvent> ground_truth_in)
    : config(config_in),
      world(std::move(world_in)),
      training(std::move(training_in)),
      ground_truth(std::move(ground_truth_in)),
      oracle_cache_(std::make_unique<OracleCache>()) {}

const std::vector<AlertEvent>& Workload::GroundTruth() const {
  const size_t update_count = world.scheduled_updates().size();
  if (update_count == 0) return ground_truth;  // Build-time oracle holds.
  OracleCache& cache = *oracle_cache_;
  // First call wins, concurrent first-callers block on the one scan:
  // SweepRunner fans its method cells across the pool and they all arrive
  // here together on dynamic-graph points. After the call_once completes,
  // reads are lock-free.
  std::call_once(cache.once, [&] {
    cache.alerts = world.GroundTruthAlerts();
    cache.update_count = update_count;
  });
  if (cache.update_count != update_count) {
    // The schedule grew again after the memoized scan. ScheduleUpdate is
    // documented as must-not-race-with-readers, so this path only runs
    // from serial driver code; the mutex just serializes repeat callers.
    std::lock_guard<std::mutex> lock(cache.rekey_mutex);
    if (cache.update_count != update_count) {
      cache.alerts = world.GroundTruthAlerts();
      cache.update_count = update_count;
    }
  }
  return cache.alerts;
}

std::unique_ptr<Detector> MakeDetector(Method method, const Workload& workload,
                                       RegionDetector::Options options) {
  switch (method) {
    case Method::kNaive:
      return std::make_unique<NaiveDetector>();
    case Method::kStatic:
      return std::make_unique<RegionDetector>(
          std::make_unique<StaticPolygonPolicy>(), options);
    case Method::kFmd: {
      MobileCirclePolicy::Options mopts;
      mopts.self_tuning = false;
      return std::make_unique<RegionDetector>(
          std::make_unique<MobileCirclePolicy>(mopts), options);
    }
    case Method::kCmd: {
      MobileCirclePolicy::Options mopts;
      mopts.self_tuning = true;
      return std::make_unique<RegionDetector>(
          std::make_unique<MobileCirclePolicy>(mopts), options);
    }
    default: {
      std::unique_ptr<Predictor> predictor =
          MakeTrainedPredictor(PredictorForMethod(method), workload);
      const StripePolicy::Options sopts =
          CalibratedStripeOptions(predictor.get(), workload);
      return std::make_unique<RegionDetector>(
          std::make_unique<StripePolicy>(std::move(predictor), sopts),
          options);
    }
  }
}

std::unique_ptr<Predictor> MakeTrainedPredictor(PredictorKind kind,
                                                const Workload& workload) {
  std::unique_ptr<Predictor> predictor;
  if (kind == PredictorKind::kKalman) {
    predictor =
        MakeTunedKalman(workload.training, workload.config.seed ^ 0xABCDEF);
  } else {
    // Predictors operate in epoch units (window spacing = 1 epoch).
    predictor = MakePredictor(kind, 1.0, workload.config.seed ^ 0x5bd1e);
  }
  predictor->Train(workload.training);
  return predictor;
}

StripePolicy::Options CalibratedStripeOptions(Predictor* predictor,
                                              const Workload& workload) {
  Rng rng(workload.config.seed ^ 0xC0FFEE);
  StripePolicy::Options sopts;
  // The stripe is time-independent, so the relevant error scale is the
  // cross-track distance to the predicted path, resolved per horizon step
  // (DESIGN.md §2.2): a 3-step stripe is priced much thinner than a
  // 20-step one.
  sopts.build.sigma_per_step = CalibrateCrossTrackSigmaPerStep(
      predictor, workload.training, 10, sopts.build.max_horizon, 240, &rng);
  for (double& s : sopts.build.sigma_per_step) s = std::max(s, 1.0);
  return sopts;
}

RunResult RunMethod(Method method, const Workload& workload,
                    RegionDetector::Options options) {
  std::unique_ptr<Detector> detector = MakeDetector(method, workload, options);
  detector->Run(workload.world);
  RunResult result;
  result.method = method;
  result.stats = detector->stats();
  if (const auto* rd = dynamic_cast<const RegionDetector*>(detector.get())) {
    result.rebuild_count = rd->rebuild_count();
    result.validation_failures = rd->validation_failures();
  }
  const std::vector<AlertEvent> alerts = detector->SortedAlerts();
  result.alert_count = alerts.size();
  // GroundTruth() memoizes the post-build-update oracle, so methods on a
  // dynamic-graph workload share one recomputation instead of paying one
  // full scan each. Workloads built without an oracle (million-user
  // streaming runs) pass vacuously.
  result.alerts_exact =
      !workload.oracle_enabled || alerts == workload.GroundTruth();
  return result;
}

}  // namespace proxdet
