// Micro-benchmark for Algorithm 2 (stripe construction): latency as a
// function of the number of friend constraints and of the prediction
// horizon. This is the dominant server-side cost of the stripe methods
// (Fig. 8's CPU gap between Stripe+KF and FMD/CMD).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/stripe_builder.h"

namespace proxdet {
namespace {

/// Constraint regions plus the constraint records borrowing them (the
/// builder takes region handles, not copies).
struct FriendSet {
  std::vector<SafeRegionShape> shapes;
  std::vector<StripeFriendConstraint> constraints;
};

FriendSet MakeFriends(Rng* rng, int count) {
  FriendSet out;
  out.shapes.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double angle = rng->Uniform(0, 6.2831853);
    const double dist = rng->Uniform(4000, 20000);
    out.shapes.push_back(
        Circle{{dist * std::cos(angle), dist * std::sin(angle)},
               rng->Uniform(50, 400)});
    out.constraints.push_back(
        {&out.shapes.back(), 3000.0, rng->Uniform(50, 400)});
  }
  return out;
}

void BM_BuildStripe(benchmark::State& state) {
  Rng rng(11);
  const int num_friends = static_cast<int>(state.range(0));
  const int horizon = static_cast<int>(state.range(1));
  StripeBuildConfig config;
  config.sigma = 150.0;
  config.max_horizon = horizon;
  const FriendSet friends = MakeFriends(&rng, num_friends);
  std::vector<Vec2> predicted;
  Vec2 p{0, 0};
  for (int i = 0; i < horizon; ++i) {
    p += Vec2{400.0, rng.Uniform(-100, 100)};
    predicted.push_back(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPredictiveStripe(
        {0, 0}, predicted, friends.constraints, 400.0, config));
  }
}
BENCHMARK(BM_BuildStripe)
    ->Args({0, 10})
    ->Args({10, 10})
    ->Args({30, 10})
    ->Args({30, 20})
    ->Args({50, 20});

void BM_SolveRadiusOnly(benchmark::State& state) {
  std::vector<FriendGap> gaps;
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    gaps.push_back({rng.Uniform(7000, 20000), 3000.0, rng.Uniform(50, 400)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveStripeRadius(gaps, 10, 150.0, 400.0, 1e9, 1e-3));
  }
}
BENCHMARK(BM_SolveRadiusOnly);

/// Radius solves shaped like kf_rush's (Stripe+KF on commuter_rush): the
/// per-step sigma grows from ~220 m at m = 1 to ~1.5 km at m = 20, the cap
/// is the builder's max(sigma_cap_mult * sigma, kStripeMinRadius), the user moves
/// ~200 m/epoch, and each of the F friends sits 100-1800 m outside a
/// ~300-440 m alert radius with an approach-scaled speed of 0-22 m/epoch —
/// or, for one friend in five, a parked 8e-5 m/epoch, whose steep E_p
/// makes the bisection run to ~40 steps. 256 inputs per shape are cycled
/// so no single branch history is timed.
void BM_SolveRadiusKfRush(benchmark::State& state) {
  const int num_friends = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  StripeBuildConfig config;
  for (int step = 1; step <= 20; ++step) {
    config.sigma_per_step.push_back(150.0 * (1.0 + 0.45 * step));
  }
  const double sigma = config.SigmaForStep(m == 0 ? 1 : m);
  const double cap = std::max(config.sigma_cap_mult * sigma, kStripeMinRadius);
  Rng rng(17);
  struct Input {
    std::vector<FriendGap> gaps;
    double speed;
  };
  std::vector<Input> inputs(256);
  for (Input& in : inputs) {
    in.speed = rng.Uniform(140.0, 270.0);
    for (int i = 0; i < num_friends; ++i) {
      const double alert = rng.Uniform(290.0, 440.0);
      const double speed = rng.NextBool(0.2)
                               ? 8e-5
                               : std::max(rng.Uniform(0.0, 22.0), 1e-6);
      in.gaps.push_back({alert + rng.Uniform(100.0, 1800.0), alert, speed});
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const Input& in = inputs[i++ & 255];
    benchmark::DoNotOptimize(SolveStripeRadius(in.gaps, m, sigma, in.speed,
                                               cap, kStripeEpsilon));
  }
}
BENCHMARK(BM_SolveRadiusKfRush)
    ->ArgsProduct({{0, 1, 2, 4}, {0, 1, 5, 10, 20}});

}  // namespace
}  // namespace proxdet
