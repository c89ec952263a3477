#include "core/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/gaussian.h"

namespace proxdet {

namespace {

/// E_m given p and p^m: ExpectedExitTime's expression, with the power
/// supplied so the solver can hand the same p^m to the p_min test.
double ExitTime(double radius, double speed, double p, double p_pow_m,
                int m) {
  const double base = radius / std::max(speed, 1e-9);
  if (p >= 1.0) return base + static_cast<double>(m);
  if (p <= 0.0) return base;
  // Delta_t = 1 epoch: E_m = radius/speed + p (1 - p^m) / (1 - p).
  return base + p * (1.0 - p_pow_m) / (1.0 - p);
}

/// erf on [0, 6) as 384 cubic Hermite pieces of width h = 2^-6 (erf and
/// erf' matched at the nodes), 12 KiB: within h^4/384 max|erf''''| =
/// 2^-24/384 * 4.405 = 6.84e-10 of erf. h is a power of two, so the piece
/// index and the offset in it are exact.
constexpr double kErfNodesPerUnit = 64.0;
constexpr double kErfEnd = 6.0;
constexpr int kErfIntervals = 6 * 64;

/// Piece i in powers of its offset f in [0, 1): c[0] + c[1] f + c[2] f^2 +
/// c[3] f^3, so c[1] = h erf'(x_i).
struct ErfTable {
  alignas(32) double piece[kErfIntervals][4];
  ErfTable() {
    constexpr double h = 1.0 / kErfNodesPerUnit;
    const auto slope = [](double x) {
      return 1.1283791670955126 * std::exp(-x * x);
    };
    for (int i = 0; i < kErfIntervals; ++i) {
      const double y0 = std::erf(i * h);
      const double y1 = std::erf((i + 1) * h);
      const double d0 = h * slope(i * h);
      const double d1 = h * slope((i + 1) * h);
      piece[i][0] = y0;
      piece[i][1] = d0;
      piece[i][2] = 3.0 * (y1 - y0) - 2.0 * d0 - d1;
      piece[i][3] = 2.0 * (y0 - y1) + d0 + d1;
    }
  }
};

const double* ErfPieces() {
  static const ErfTable table;
  return table.piece[0];
}

/// |p~ - p| for an interpolated p~: the 6.84e-10 above plus < 1e-14 from
/// the rounding of the nodes, the coefficients, the evaluation, the
/// argument (which multiplies by a reciprocal where the reference divides)
/// and the reference erf's last bit.
constexpr double kStayError = 6.9e-10;

/// A power of two in [1 / y, 2 / y) for a normal y > 0, without a division.
double ReciprocalBound(double y) {
  const uint64_t biased_exponent = std::bit_cast<uint64_t>(y) >> 52;
  return std::bit_cast<double>((2046 - biased_exponent) << 52);
}

/// Past x = 6 the reference erf returns exactly 1.0 (erfc(6) = 2.2e-17 is
/// under half an ulp of 1; glibc returns 1 - tiny). The factor covers the
/// relative gap between this argument and the reference's, so x at or
/// above it puts the reference there too.
constexpr double kErfSaturated = kErfEnd * (1.0 + 0x1p-45);

constexpr double kUnitRoundoff = 0x1p-53;

/// Widen or narrow a computed bound by 2^-40 relative: far more than the
/// rounding of the few operations that combine proven bounds.
constexpr double kWiden = 1.0 + 0x1p-40;
double Up(double x) { return x > 0.0 ? x * kWiden : x / kWiden; }
double Down(double x) { return x > 0.0 ? x / kWiden : x * kWiden; }

/// x^m by squaring; relative error <= (m - 1) u.
double IntPow(double x, int m) {
  double result = 1.0;
  for (;;) {
    if (m & 1) result *= x;
    m >>= 1;
    if (m == 0) return result;
    x *= x;
  }
}

enum class Test : unsigned char { kFalse, kTrue, kUnknown };

Test Known(bool b) { return b ? Test::kTrue : Test::kFalse; }

/// The two tests of one bisection step on the exact doubles — the stop
/// test |e_m - e_p| < epsilon and the branch e_m <= e_p.
struct Verdict {
  Test stop;
  Test lower;
};

Verdict DecideExact(double e_m, double e_p, double epsilon) {
  return {Known(std::fabs(e_m - e_p) < epsilon), Known(e_m <= e_p)};
}

/// The same tests decided from a screened gap. With D = E_m - e_p and
/// k = gap.scale > 0, |D k - value| <= margin / 2 (the factor 2 absorbs
/// the rounding of the sums and products below), so value + margin < 0
/// proves D < 0, and |value| + margin < epsilon (1 - 2^-50) k proves
/// |D| < epsilon (1 - u), which the reference's rounded |e_m - e_p| cannot
/// lift to epsilon. A zero margin means value is the reference's own
/// e_m - e_p (E_m exact, m = 0); its sign test equals e_m <= e_p because
/// E_p is never +inf inside the bisection. NaN leaves both tests unknown.
Verdict Decide(const ExitTimeScreen::Gap& gap, double epsilon,
               double epsilon_inside, double epsilon_outside) {
  if (gap.margin == 0.0) {
    return {Known(std::fabs(gap.value) < epsilon), Known(gap.value <= 0.0)};
  }
  const double magnitude = std::fabs(gap.value);
  Verdict v{Test::kUnknown, Test::kUnknown};
  if (magnitude + gap.margin < epsilon_inside * gap.scale) {
    v.stop = Test::kTrue;
  } else if (magnitude - gap.margin >= epsilon_outside * gap.scale) {
    v.stop = Test::kFalse;
  }
  if (gap.value < -gap.margin) {
    v.lower = Test::kTrue;
  } else if (gap.value > gap.margin) {
    v.lower = Test::kFalse;
  }
  return v;
}

}  // namespace

double StayProbability(double radius, double sigma) {
  return FoldedNormalCdf(radius, sigma);
}

double ExpectedExitTime(double radius, double speed, double p, int m) {
  return ExitTime(radius, speed, p, std::pow(p, m), m);
}

double ExpectedProbeTime(const std::vector<FriendGap>& gaps, double radius) {
  double e_p = std::numeric_limits<double>::infinity();
  for (const FriendGap& g : gaps) {
    const double t = (g.y0 - radius - g.alert_radius) / std::max(g.speed, 1e-9);
    e_p = std::min(e_p, t);
  }
  return e_p;
}

double RadiusUpperBound(const std::vector<FriendGap>& gaps) {
  double ub = std::numeric_limits<double>::infinity();
  for (const FriendGap& g : gaps) {
    ub = std::min(ub, g.y0 - g.alert_radius);
  }
  return ub;
}

double InitializationRadius(double my_speed, double friend_speed,
                            double center_distance, double alert_radius) {
  const double slack = center_distance - alert_radius;
  if (slack <= 0.0) return 0.0;
  const double total = std::max(my_speed + friend_speed, 1e-9);
  return my_speed * slack / total;
}

ExitTimeScreen::ExitTimeScreen(int m, double sigma, double speed)
    : m_(m),
      exact_(m == 0 && !std::isnan(sigma)),
      // A subnormal sigma * sqrt(2) has no accurate reciprocal.
      screened_(m >= 1 && (sigma <= 0.0 || sigma >= 1e-300)),
      speed_(speed),
      inv_speed_(1.0 / speed),
      // x = s / (sigma sqrt 2) in table units, scaled by a power of two so
      // t = s * table_scale_ is exactly x * 64. sigma <= 0: +inf, so every
      // s > 0 lands on the saturated branch, as FoldedNormalCdf returns 1.
      table_scale_(sigma > 0.0 ? kErfNodesPerUnit /
                                     (sigma * 1.4142135623730950488016887)
                               : std::numeric_limits<double>::infinity()),
      erf_pieces_(ErfPieces()),
      horizon_(static_cast<double>(m)),
      lipschitz_(0.5 * horizon_ * (horizon_ + 1.0)) {}

ExitTimeScreen::Gap ExitTimeScreen::At(double s, double e_p) const {
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  if (exact_) {
    // m = 0: every branch of ExitTime adds +0 to s / speed (p^0 = 1),
    // unless p is NaN, which only a NaN sigma produces. E = s / speed.
    const double e_m = s / speed_;
    return {e_m - e_p, 1.0, 0.0, 0x1p-52 * e_m};
  }
  constexpr Gap kNothing{0.0, 1.0, kUnbounded, kUnbounded};
  if (!screened_) return kNothing;
  // E_m = s/speed + g(p) with g(p) = p + ... + p^m, continuous across
  // ExitTime's three branches (g(0) = 0, g(1) = m) and increasing with
  // g'(p) <= min(m (m + 1) / 2, 1 / (1 - p)^2).
  const double base = s * inv_speed_;
  const double t = s * table_scale_;
  if (t < kErfIntervals) {
    const int i = static_cast<int>(t);
    const double* c = erf_pieces_ + 4 * i;
    const double f = t - i;
    const double p = (c[0] + c[1] * f) + (f * f) * (c[2] + c[3] * f);
    const double p_hi = p + kStayError;
    // Near p = 1 the reference's (1 - p^m) / (1 - p) is dominated by the
    // last bit of its pow: no useful bound.
    if (!(p_hi < 1.0)) return kNothing;
    // Scaled by k = 1 - p > 0: D k = (s/speed - e_p) k + p (1 - p^m), with
    // no division on the bisection's critical path.
    const double k = 1.0 - p;
    const double value = (base - e_p) * k + p * (1.0 - IntPow(p, m_));
    const double r = ReciprocalBound(1.0 - p_hi);  // >= 1 / (1 - p_ref)
    const double g_slope = std::min(lipschitz_, r * r);
    // Error terms, u = 2^-53: the stay probability's kStayError through
    // g'; the reference's pow (<= 1 ulp, divided by 1 - p: 2r), sums and
    // quotient (5.1 m + 4.02 base); this side's speed reciprocal, IntPow
    // ((m - 1) u) and products (m + 2 + 2 base + 2 |e_p|), and the final
    // sum's u |value| <= u (k (base + |e_p|) + 1). Nothing here waits for
    // value, so the margin is ready when it is.
    const double margin =
        2.0 * (k * (g_slope * kStayError +
                    kUnitRoundoff * (2.0 * r + 6.0 * horizon_ + 8.0 * base +
                                     4.0 * std::fabs(e_p))) +
               kUnitRoundoff * (horizon_ + 4.0));
    // The reference against E at s' <= s (p there is at most p_hi): its
    // base (u s/speed), erf (1 ulp) and argument (3u x erf'(x) <= 1.5u)
    // through g', its pow (2r), arithmetic and final sum (5.1 m +
    // u s/speed). Doubled.
    const double exit_noise =
        2.0 * kUnitRoundoff *
        (2.0 * base + 4.0 * g_slope + 2.0 * r + 6.0 * horizon_);
    return {value, k, margin, exit_noise};
  }
  if (t >= kErfSaturated * kErfNodesPerUnit) {
    // p = 1 exactly on both sides: E_m = s/speed + m. Left of s lies the
    // band where nothing is proven, so no noise bound reaches over it.
    const double value = (base - e_p) + horizon_;
    const double margin = 2.0 * kUnitRoundoff *
                          (8.0 * base + 4.0 * horizon_ + 4.0 * std::fabs(e_p));
    return {value, 1.0, margin, kUnbounded};
  }
  return kNothing;  // the saturation edge, or NaN t
}

namespace {

/// E_p with the per-friend slack y0 - r and 1/v hoisted out of the
/// bisection: a step costs a subtraction and a multiplication per friend
/// instead of two subtractions and a division. Both this and the
/// reference's ExpectedProbeTime are within 3.02u (|y0| + |r| + s) / v of
/// the true (y0 - s - r) / v per friend (+inf gaps are exact on both
/// sides, NaN ones ignored by both mins), so Error(s) = 16u (A + s B),
/// with A and B the maxima of (|y0| + |r|) / v and 1 / v, bounds their
/// difference with room for the rounding of the bound itself. Solves with
/// more friends than lanes use the reference loop (error 0).
class ProbeLanes {
 public:
  explicit ProbeLanes(const std::vector<FriendGap>& gaps) : gaps_(gaps) {
    if (gaps.size() > kLanes) return;
    lanes_ = 0;
    for (const FriendGap& g : gaps) {
      const double inv_v = 1.0 / std::max(g.speed, 1e-9);
      slack_[lanes_] = g.y0 - g.alert_radius;
      inv_speed_[lanes_] = inv_v;
      ++lanes_;
      if (g.y0 == std::numeric_limits<double>::infinity() &&
          std::isfinite(g.alert_radius)) {
        continue;
      }
      error_base_ = std::max(
          error_base_, (std::fabs(g.y0) + std::fabs(g.alert_radius)) * inv_v);
      error_per_meter_ = std::max(error_per_meter_, inv_v);
    }
    error_base_ *= 16.0 * kUnitRoundoff;
    error_per_meter_ *= 16.0 * kUnitRoundoff;
  }

  double At(double s) const {
    if (lanes_ < 0) return ExpectedProbeTime(gaps_, s);
    double e_p = std::numeric_limits<double>::infinity();
    for (int w = 0; w < lanes_; ++w) {
      e_p = std::min(e_p, (slack_[w] - s) * inv_speed_[w]);
    }
    return e_p;
  }
  double Error(double s) const {
    return lanes_ < 0 ? 0.0 : error_base_ + s * error_per_meter_;
  }

 private:
  static constexpr size_t kLanes = 64;
  const std::vector<FriendGap>& gaps_;
  int lanes_ = -1;  // -1: the reference loop
  double slack_[kLanes];
  double inv_speed_[kLanes];
  double error_base_ = 0.0;
  double error_per_meter_ = 0.0;
};

/// Bounds on the reference's E_m across the bisection bracket. The true E
/// is increasing and E_m stays within `noise` of it up to the upper bound,
/// so for lo <= s <= hi
///   floor - 2 noise <= E_m(s) <= ceil + 2 noise,
/// where floor bounds E_m at the last evaluated lo from below (E_m(0) = 0)
/// and ceil at the last evaluated hi from above. A step whose probe time
/// clears them by epsilon is decided from E_p alone: the reference takes
/// the same branch, its stop test false.
class ExitTimeBracket {
 public:
  ExitTimeBracket(double noise, double epsilon, double ceil)
      : slack_(2.0 * noise + std::max(epsilon, 0.0)) {
    Floor(0.0);
    Ceil(ceil);
  }
  /// e_p (within error of the reference) proves E_m - E_p < -epsilon.
  bool Lower(double e_p, double error) const {
    return e_p - error > lower_above_;
  }
  /// e_p proves E_m - E_p > epsilon.
  bool Higher(double e_p, double error) const {
    return e_p + error < higher_below_;
  }
  void Floor(double e_m_lo) { higher_below_ = Down(e_m_lo - slack_); }
  void Ceil(double e_m_hi) { lower_above_ = Up(e_m_hi + slack_); }

 private:
  double slack_;
  double lower_above_ = 0.0;
  double higher_below_ = 0.0;
};

}  // namespace

// Flattened: the screen, the probe lanes, the bracket and the tests inline
// into the bisection loop (a fifth of a solve was call overhead).
[[gnu::flatten]] RadiusSolution SolveStripeRadius(
    const std::vector<FriendGap>& gaps, int m, double sigma, double speed,
    double radius_cap, double epsilon) {
  speed = std::max(speed, 1e-9);
  int exact_evaluations = 0;
  // `e_p` is ExpectedProbeTime(gaps, s), which every caller already has.
  auto evaluate = [&](double s, double e_p) {
    RadiusSolution sol;
    sol.radius = s;
    sol.stay = StayProbability(s, sigma);
    sol.stay_pow = std::pow(sol.stay, m);
    sol.e_m = ExitTime(s, speed, sol.stay, sol.stay_pow, m);
    sol.e_p = e_p;
    sol.exact_evaluations = ++exact_evaluations;
    return sol;
  };

  double upper = RadiusUpperBound(gaps);
  if (!std::isfinite(upper)) {
    // No friend constrains the stripe; take the configured cap.
    return evaluate(radius_cap, ExpectedProbeTime(gaps, radius_cap));
  }
  upper = std::min(upper, radius_cap);
  if (upper <= 0.0) return evaluate(0.0, ExpectedProbeTime(gaps, 0.0));

  const ExitTimeScreen screen(m, sigma, speed);
  const double epsilon_inside = epsilon * (1.0 - 0x1p-50);
  const double epsilon_outside = epsilon * (1.0 + 0x1p-50);

  const double e_p_upper = ExpectedProbeTime(gaps, upper);
  const ExitTimeScreen::Gap gap_upper = screen.At(upper, e_p_upper);
  // Bounds on the reference's gap at a screened point.
  auto gap_floor = [](const ExitTimeScreen::Gap& gap) {
    return Down((gap.value - gap.margin) / gap.scale);
  };
  auto gap_ceil = [](const ExitTimeScreen::Gap& gap) {
    return Up((gap.value + gap.margin) / gap.scale);
  };
  const Test upper_lower =
      Decide(gap_upper, epsilon, epsilon_inside, epsilon_outside).lower;
  if (upper_lower == Test::kTrue) return evaluate(upper, e_p_upper);
  double e_m_upper_ceil = e_p_upper + gap_ceil(gap_upper);
  if (upper_lower == Test::kUnknown) {
    const RadiusSolution at_upper = evaluate(upper, e_p_upper);
    // Shrinking the radius lowers E_m and raises E_p — the gap only grows
    // (Algorithm 2's early exit).
    if (at_upper.e_m <= at_upper.e_p) return at_upper;
    e_m_upper_ceil = at_upper.e_m;
  }
  // E_m(0) = 0 <= E_p(0) and E_m(upper) > E_p(upper): bisect the crossing.
  const ProbeLanes probe(gaps);
  ExitTimeBracket bracket(gap_upper.exit_noise, epsilon, e_m_upper_ceil);
  double lo = 0.0;
  double hi = upper;
  double mid = upper;
  RadiusSolution exact_mid;  // set when the last step fell back
  bool mid_is_exact = false;
  for (int iter = 0; iter < 100; ++iter) {
    mid = 0.5 * (lo + hi);
    mid_is_exact = false;
    const double e_p = probe.At(mid);
    const double e_p_error = probe.Error(mid);
    if (bracket.Lower(e_p, e_p_error)) {
      lo = mid;
      continue;
    }
    if (bracket.Higher(e_p, e_p_error)) {
      hi = mid;
      continue;
    }
    ExitTimeScreen::Gap gap = screen.At(mid, e_p);
    gap.margin += 2.0 * gap.scale * e_p_error;
    Verdict v = Decide(gap, epsilon, epsilon_inside, epsilon_outside);
    mid_is_exact = v.stop == Test::kUnknown ||
                   (v.stop == Test::kFalse && v.lower == Test::kUnknown);
    if (mid_is_exact) {
      exact_mid = evaluate(mid, ExpectedProbeTime(gaps, mid));
      v = DecideExact(exact_mid.e_m, exact_mid.e_p, epsilon);
    }
    if (v.stop == Test::kTrue) break;
    if (v.lower == Test::kTrue) {
      lo = mid;
      bracket.Floor(mid_is_exact ? exact_mid.e_m
                                 : e_p - e_p_error + gap_floor(gap));
    } else {
      hi = mid;
      bracket.Ceil(mid_is_exact ? exact_mid.e_m
                                : e_p + e_p_error + gap_ceil(gap));
    }
  }
  return mid_is_exact ? exact_mid
                      : evaluate(mid, ExpectedProbeTime(gaps, mid));
}

}  // namespace proxdet
