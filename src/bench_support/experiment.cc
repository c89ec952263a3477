#include "bench_support/experiment.h"

namespace proxdet {

WorkloadConfig DefaultExperimentConfig(DatasetKind dataset) {
  WorkloadConfig config;
  config.dataset = dataset;
  config.num_users = 400;       // Paper: 10K (laptop-scaled).
  config.epochs = 150;          // Paper: 900 (laptop-scaled).
  config.speed_steps = 8;       // Paper default V.
  config.avg_friends = 30.0;    // Paper default F.
  config.alert_radius_m = 6000.0;  // Paper default r.
  config.seed = 20180416;       // ICDE'18 vintage.
  config.training_users = 60;
  config.training_epochs = 200;
  return config;
}

}  // namespace proxdet
