#ifndef PROXDET_BENCH_SUPPORT_EXPERIMENT_H_
#define PROXDET_BENCH_SUPPORT_EXPERIMENT_H_

#include "core/simulation.h"

namespace proxdet {

/// Laptop-scaled analogue of the paper's Table II defaults (N=10K, F=30,
/// S=900, V=8, r=6km). The sweep *shapes* of Figures 8-13 are preserved;
/// absolute message counts scale with N and S. See EXPERIMENTS.md.
WorkloadConfig DefaultExperimentConfig(DatasetKind dataset);

}  // namespace proxdet

#endif  // PROXDET_BENCH_SUPPORT_EXPERIMENT_H_
