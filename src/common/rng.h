#ifndef PROXDET_COMMON_RNG_H_
#define PROXDET_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace proxdet {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component in the library takes an explicit
/// `Rng&` so that workloads, datasets and simulations are reproducible from
/// a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller, cached spare).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool NextBool(double p);

  /// Samples an index according to the (non-negative, not necessarily
  /// normalized) weight vector. Returns weights.size() - 1 on degenerate
  /// input (all zero weights).
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace proxdet

#endif  // PROXDET_COMMON_RNG_H_
