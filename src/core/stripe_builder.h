#ifndef PROXDET_CORE_STRIPE_BUILDER_H_
#define PROXDET_CORE_STRIPE_BUILDER_H_

#include <vector>

#include "core/cost_model.h"
#include "geom/stripe.h"
#include "region/region.h"

namespace proxdet {

/// A friend as seen by the stripe builder: the region the server currently
/// attributes to the friend (or a virtual circle around an exact location
/// when the friend is rebuilding in the same epoch), the pair's alert
/// radius, and the friend's speed estimate. The region is a Circle or a
/// Stripe (the Stripe family, region/region.h); any other shape aborts
/// the build. The region is borrowed — the
/// caller's shape must outlive the BuildPredictiveStripe call. (A variant
/// holding a Stripe is several hundred bytes plus heap blocks; copying one
/// per friend per rebuild dominated the resolve phase before this became a
/// handle.)
struct StripeFriendConstraint {
  const SafeRegionShape* region = nullptr;
  double alert_radius = 0.0;
  double speed = 0.0;  // m/epoch
};

/// Confidence floor: stop extending the stripe once p^m < kStripePMin
/// (Algorithm 2's tolerance threshold on step-m prediction accuracy).
constexpr double kStripePMin = 0.05;
/// Bisection tolerance on |E_m - E_p| in epochs.
constexpr double kStripeEpsilon = 1e-3;
/// Floor of the stripe's radius cap, in meters (see sigma_cap_mult).
constexpr double kStripeMinRadius = 30.0;

struct StripeBuildConfig {
  /// Calibrated prediction-error scale of the underlying model (meters).
  double sigma = 20.0;
  /// Horizon-resolved calibration (element j-1 = cross-track sigma of step
  /// j); when non-empty it overrides `sigma`, letting Algorithm 2 price
  /// short stripes thin and long stripes thick.
  std::vector<double> sigma_per_step;

  /// Error scale used when the stripe encloses `m` predicted steps.
  double SigmaForStep(int m) const {
    if (sigma_per_step.empty()) return sigma;
    if (m < 1) m = 1;
    const size_t idx = std::min(static_cast<size_t>(m) - 1,
                                sigma_per_step.size() - 1);
    return sigma_per_step[idx];
  }
  /// Hard cap on the number of predicted steps enclosed (the paper's
  /// prediction output lengths run 10-30, Fig. 7).
  int max_horizon = 20;
  /// Radius cap when no friend constrains the stripe (and a global cap
  /// otherwise): max(sigma_cap_mult * sigma, kStripeMinRadius). Sized by the
  /// prediction-error scale — beyond a few sigmas the stay probability
  /// saturates and extra radius only attracts probes.
  double sigma_cap_mult = 4.0;
  /// E_p pessimism calibration. Eq. (4)'s estimate assumes every friend
  /// beelines toward the stripe at full speed; in the running system probes
  /// fire only when a nearby friend actually rebuilds within the alert
  /// radius, which is rarer, so the E_m = E_p balance sacrifices more
  /// radius than the realized probe pressure justifies. Friend speeds
  /// entering E_p are scaled by this factor (a few percent of total I/O at
  /// default density; see bench/ablation_cost_model).
  double approach_factor = 0.08;
};

struct StripeBuildResult {
  Stripe stripe;
  int m = 0;  // Number of predicted steps enclosed.
  RadiusSolution solution;
  /// SoA lanes the friends offer for staging (point-like constraints;
  /// concatenated stripe segments), counted before screening, and the
  /// number of batched-kernel dispatches issued. The builder itself is
  /// obs-free; the policy layer surfaces these as the simd.batch.stripe_*
  /// histograms and the simd.dispatch.* counter.
  size_t staged_point_lanes = 0;
  size_t staged_segment_lanes = 0;
  size_t kernel_dispatches = 0;
  /// Friends screened out before staging: provably never a minimum of
  /// Algorithm 2 over this build (see BuildPredictiveStripe).
  size_t screened_friends = 0;
  /// Radius solves (one per horizon tried, m = 0 included) and the exact
  /// E_m evaluations they made (RadiusSolution::exact_evaluations).
  size_t radius_solves = 0;
  size_t exact_evaluations = 0;
};

/// Algorithm 2: given the user's exact location, the predictor's future
/// locations and the friend constraints, pick the (m, s) pair maximizing
/// min(E_m, E_p). The stripe path is anchored at the current location so
/// the user is inside the region it is handed. Every anchor is first snapped
/// onto the anchor grid (geom/anchor_grid.h, sub-4 mm, far below sigma), so
/// the stripe ships as the wire's quantized-delta polyline as-is; all
/// clearance and radius math sees the snapped anchors.
///
/// Friends whose clearance provably can never be one of the minima the
/// algorithm reads (the anchor prune, the radius bound, E_p) are screened
/// out before staging, from a box bound over the whole horizon; the result
/// is bit-identical to the unscreened algorithm's (DESIGN.md §2.2).
///
/// Guarantee: the returned stripe keeps distance >= alert_radius from every
/// constraint region (E_p >= 0 by construction), so installing it preserves
/// the pairwise safety invariant (Definition 2).
StripeBuildResult BuildPredictiveStripe(
    const Vec2& current, const std::vector<Vec2>& predicted,
    const std::vector<StripeFriendConstraint>& friends, double user_speed,
    const StripeBuildConfig& config);

}  // namespace proxdet

#endif  // PROXDET_CORE_STRIPE_BUILDER_H_
