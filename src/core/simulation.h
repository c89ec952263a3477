#ifndef PROXDET_CORE_SIMULATION_H_
#define PROXDET_CORE_SIMULATION_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/policies.h"
#include "core/region_detector.h"
#include "predict/predictor.h"
#include "traj/dataset.h"
#include "traj/generator.h"
#include "traj/scenario.h"

namespace proxdet {

/// The comparison methods of Sec. VI-C.
enum class Method {
  kNaive,
  kStatic,
  kFmd,
  kCmd,
  kStripeRmf,
  kStripeHmm,
  kStripeR2d2,
  kStripeKf,
  kStripeLinear,  // Extra ablation: the stripe driven by FMD's own model.
};

std::string MethodName(Method method);

/// The eight methods evaluated in the paper's figures, in paper order.
std::vector<Method> PaperMethodSet();

/// A complete experiment configuration (Table II, laptop-scaled defaults).
struct WorkloadConfig {
  DatasetKind dataset = DatasetKind::kTruck;
  size_t num_users = 300;       // N
  int epochs = 200;             // S
  int speed_steps = 8;          // V (raw ticks per epoch)
  double avg_friends = 30.0;    // F
  double alert_radius_m = 6000.0;  // r; per-user preference drawn around it.
  uint64_t seed = 42;
  /// Offline training set for HMM/R2-D2 and sigma calibration (the paper
  /// trains on 1,600 synchronized timestamps).
  size_t training_users = 60;
  int training_epochs = 200;
};

/// A built experiment: the world plus the (epoch-spaced) training set that
/// shares the same road network, and the precomputed ground truth.
struct Workload {
  WorkloadConfig config;
  World world;
  std::vector<Trajectory> training;
  /// Oracle computed at build time (valid while no updates are scheduled
  /// after BuildWorkload). Prefer GroundTruth(), which handles both cases.
  std::vector<AlertEvent> ground_truth;

  Workload(WorkloadConfig config, World world,
           std::vector<Trajectory> training,
           std::vector<AlertEvent> ground_truth);

  /// Whether RunMethod checks alerts against GroundTruth(). Scenario
  /// workloads built with compute_ground_truth=false (the million-user
  /// streaming runs, where even the O(N) oracle sweep is unwanted) set
  /// this false and RunResult::alerts_exact becomes vacuous.
  bool oracle_enabled = true;

  /// The oracle matching the world's *current* update schedule. Returns
  /// `ground_truth` when nothing was scheduled after build; otherwise
  /// recomputes the full scan exactly once and memoizes it. The first
  /// call is `std::call_once`-guarded: SweepRunner fans method cells out
  /// across the pool and they all land here concurrently — every caller
  /// blocks until the one scan finishes, then reads lock-free.
  /// RunMethod historically re-ran the scan for every method on
  /// dynamic-graph workloads — fig13 paid the oracle 8x per sweep point.
  const std::vector<AlertEvent>& GroundTruth() const;

 private:
  // Heap-held so Workload stays movable (once_flag/mutex members are not).
  struct OracleCache {
    std::once_flag once;
    size_t update_count = 0;  // Schedule length the cache was computed at.
    std::vector<AlertEvent> alerts;
    // Rekey path for the rare schedule-mutated-again case; like
    // ScheduleUpdate itself it must not race with concurrent readers.
    std::mutex rekey_mutex;
  };
  std::unique_ptr<OracleCache> oracle_cache_;
};

/// Generates trajectories, the interest graph and the training set.
Workload BuildWorkload(const WorkloadConfig& config);

/// A city-scale scenario workload (the streaming substrate's driver).
/// `stream=true` builds a streaming World — O(active users) steady-state
/// memory, positions generated per epoch inside the detectors'
/// BeginEpoch — while `stream=false` materializes the *same* per-user
/// streams into full trajectories (the oracle twin): the two modes are
/// bit-exact in alerts, CommStats, rebuild counts and obs digests for
/// every method, thread count and shard count.
struct ScenarioWorkloadConfig {
  ScenarioSpec scenario;
  bool stream = true;
  /// False skips the ground-truth sweep entirely (million-user runs);
  /// the workload's oracle_enabled flag records it.
  bool compute_ground_truth = true;
  size_t training_users = 60;
  int training_epochs = 200;
};

Workload BuildScenarioWorkload(const ScenarioWorkloadConfig& config);

/// Constructs a ready-to-run detector for the method: stripe methods get
/// their predictor built, trained on the workload's training set, and their
/// cost-model sigma calibrated on it (Kalman noise parameters are grid
/// tuned, mirroring Sec. VI-B).
std::unique_ptr<Detector> MakeDetector(Method method, const Workload& workload,
                                       RegionDetector::Options options = {});

/// Builds and trains the prediction model a stripe method would use
/// (Kalman noise parameters grid-tuned on the training set). Exposed for
/// ablation studies and custom detector assembly.
std::unique_ptr<Predictor> MakeTrainedPredictor(PredictorKind kind,
                                                const Workload& workload);

/// Calibrates the per-step cross-track sigma of `predictor` on the workload
/// training set and returns stripe-policy options carrying it.
StripePolicy::Options CalibratedStripeOptions(Predictor* predictor,
                                              const Workload& workload);

/// Outcome of one (method, workload) simulation.
struct RunResult {
  Method method = Method::kNaive;
  CommStats stats;
  size_t alert_count = 0;
  /// Safe-region constructions performed (0 for Naive); part of the
  /// bit-exact determinism contract across thread counts.
  uint64_t rebuild_count = 0;
  /// RegionDetector soundness-check violations (0 for Naive; always 0
  /// unless Options::validate_builds is set).
  uint64_t validation_failures = 0;
  /// Whether the detector's alert stream matched the ground truth exactly
  /// (the correctness contract; always checked).
  bool alerts_exact = false;
};

RunResult RunMethod(Method method, const Workload& workload,
                    RegionDetector::Options options = {});

}  // namespace proxdet

#endif  // PROXDET_CORE_SIMULATION_H_
