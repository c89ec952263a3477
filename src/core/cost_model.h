#ifndef PROXDET_CORE_COST_MODEL_H_
#define PROXDET_CORE_COST_MODEL_H_

#include <vector>

namespace proxdet {

/// The holistic cost model of Sec. V: communication is minimized by
/// maximizing the expected time until the *next* communication, which is
/// min(E_m, E_p) — the expected stripe-exit time versus the expected time
/// until a friend forces a probe. Time is measured in epochs (Delta_t = 1)
/// and lengths in meters throughout.

/// Per-step probability of staying within `radius` of the predicted
/// location when the prediction error is |N(0, sigma^2)| (Eq. 6, folded
/// form per DESIGN.md §2.2).
double StayProbability(double radius, double sigma);

/// Closed-form E_m (Sec. V-D): expected epochs before the user leaves a
/// stripe with `radius`, for per-epoch speed `speed` (m/epoch), stay
/// probability `p` and `m` predicted steps:
///   E_m = radius / speed + p (1 - p^m) / (1 - p).
double ExpectedExitTime(double radius, double speed, double p, int m);

/// One friend's contribution to E_p: the slack y0 (distance from the new
/// stripe's *path* to the friend's region, before subtracting the stripe
/// radius), the pair alert radius, and the friend's speed estimate.
struct FriendGap {
  double y0 = 0.0;            // meters
  double alert_radius = 0.0;  // meters
  double speed = 0.0;         // m/epoch, clamped to >= kMinSpeed by users
};

/// E_p = min_w (y0_w - radius - r_w) / v_w; +inf when `gaps` is empty.
double ExpectedProbeTime(const std::vector<FriendGap>& gaps, double radius);

/// Largest radius keeping E_p >= 0: min_w (y0_w - r_w); +inf when empty.
double RadiusUpperBound(const std::vector<FriendGap>& gaps);

/// The Eq. (5) initialization radius: speed-proportional split of the
/// slack between two users (Sec. V-C, Lemma 2 guarantees the pairwise
/// constraint). Exposed as a library primitive and property-tested.
double InitializationRadius(double my_speed, double friend_speed,
                            double center_distance, double alert_radius);

/// A cheap, certified view of E_m(s) - e_p, where E_m(s) is the exact
/// double ExpectedExitTime(s, speed, StayProbability(s, sigma), m)
/// (DESIGN.md §2.2): a static piecewise-cubic erf table, an integer
/// power, per-solve reciprocals, and the gap scaled by 1 - p so no division
/// is needed. SolveStripeRadius decides its bisection steps from it; it is
/// public so the bound can be tested directly.
class ExitTimeScreen {
 public:
  /// `speed` is the solver's clamped speed (>= 1e-9).
  ExitTimeScreen(int m, double sigma, double speed);

  /// (E_m(s) - e_p) * scale lies within margin / 2 of value, scale > 0.
  /// The bound covers the interpolation, both sides' rounding and the
  /// reference's own erf/pow error. margin = 0: value is exactly the
  /// rounded E_m(s) - e_p (m = 0, where E_m = s / speed). margin = +inf:
  /// nothing is proven (1 - p too small, sigma NaN or subnormal, m < 0).
  /// exit_noise bounds |E_m(s') - E(s')| at every s' <= s, where E(s') =
  /// s'/speed + g(erf(s' / (sigma sqrt 2))), g(p) = p + ... + p^m, is the
  /// true, real-valued and increasing function E_m rounds (+inf where
  /// nothing is proven).
  struct Gap {
    double value = 0.0;
    double scale = 1.0;
    double margin = 0.0;
    double exit_noise = 0.0;
  };
  /// Requires s >= 0 and finite.
  Gap At(double s, double e_p) const;

 private:
  int m_;
  bool exact_;      // m == 0: E_m = s / speed, bit for bit.
  bool screened_;   // Otherwise false: every gap is unbounded.
  double speed_;
  double inv_speed_;
  double table_scale_;
  const double* erf_pieces_;
  double horizon_;    // m as a double
  double lipschitz_;  // m (m + 1) / 2 = max dE_m/dp
};

/// Result of solving E_m = E_p for one fixed m.
struct RadiusSolution {
  double radius = 0.0;
  double e_m = 0.0;
  double e_p = 0.0;
  /// StayProbability(radius, sigma) and its m-th power (the chance of
  /// staying inside through all m steps, Algorithm 2's p_min test), from
  /// the same evaluation as e_m.
  double stay = 0.0;
  double stay_pow = 1.0;
  /// Exact E_m evaluations (one erf, one pow) the solve made: 1 for the
  /// returned solution plus one per step its screen could not decide.
  int exact_evaluations = 0;
  /// min(e_m, e_p): the objective Algorithm 2 maximizes over m.
  double Objective() const { return e_m < e_p ? e_m : e_p; }
};

/// Solves for the radius balancing E_m and E_p at horizon `m`:
/// - with no friends, returns `radius_cap` (bigger is strictly better);
/// - when E_m <= E_p already holds at the upper-bound radius, returns the
///   upper bound (decreasing the radius only widens the gap);
/// - otherwise bisects on [0, upper] for |E_m - E_p| < epsilon, at most
///   100 steps.
/// Each step's tests are decided, in order of cost, from E_p against a
/// proven bracket of E_m, from ExitTimeScreen's bound, or from the exact
/// expression, so the iterates — and the returned solution, always
/// evaluated exactly — are those of the plain bisection bit for bit
/// (DESIGN.md §2.2).
/// `sigma` is the predictor's calibrated error scale; `speed` the user's
/// m/epoch estimate. Requires RadiusUpperBound(gaps) > 0 (probe logic
/// upstream guarantees it).
RadiusSolution SolveStripeRadius(const std::vector<FriendGap>& gaps, int m,
                                 double sigma, double speed,
                                 double radius_cap, double epsilon);

}  // namespace proxdet

#endif  // PROXDET_CORE_COST_MODEL_H_
