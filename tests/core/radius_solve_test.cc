// Algorithm 2's radius solve against its reference. The plain bisection —
// the exact E_m at every step — lives on here as the oracle; the library's
// screened solve must return the same bits on every input (radius, E_m,
// E_p and the stay fields), and ExitTimeScreen's bound must hold wherever
// it claims one. Labelled `core`: scripts/check.sh also runs this suite
// under -DPROXDET_SANITIZE=undefined (the erf-table index is a
// double-to-int conversion).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "traj/scenario.h"

namespace proxdet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The reference solve. `steps`, when given, receives e_m - e_p at every
/// bisection step, so a caller can place epsilon exactly on a stop test.
RadiusSolution ReferenceBisection(const std::vector<FriendGap>& gaps, int m,
                                  double sigma, double speed,
                                  double radius_cap, double epsilon,
                                  std::vector<double>* steps) {
  speed = std::max(speed, 1e-9);
  auto evaluate = [&gaps, m, sigma, speed](double s) {
    RadiusSolution sol;
    sol.radius = s;
    sol.e_m = ExpectedExitTime(s, speed, StayProbability(s, sigma), m);
    sol.e_p = ExpectedProbeTime(gaps, s);
    return sol;
  };

  double upper = RadiusUpperBound(gaps);
  if (!std::isfinite(upper)) return evaluate(radius_cap);
  upper = std::min(upper, radius_cap);
  if (upper <= 0.0) return evaluate(0.0);

  RadiusSolution at_upper = evaluate(upper);
  if (at_upper.e_m <= at_upper.e_p) return at_upper;
  double lo = 0.0;
  double hi = upper;
  RadiusSolution sol = at_upper;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    sol = evaluate(mid);
    if (steps != nullptr) steps->push_back(sol.e_m - sol.e_p);
    if (std::fabs(sol.e_m - sol.e_p) < epsilon) break;
    if (sol.e_m <= sol.e_p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return sol;
}

/// The oracle: the reference bisection plus the stay fields as
/// BuildPredictiveStripe's p_min test used to compute them.
RadiusSolution ReferenceSolveStripeRadius(const std::vector<FriendGap>& gaps,
                                          int m, double sigma, double speed,
                                          double radius_cap, double epsilon,
                                          std::vector<double>* steps =
                                              nullptr) {
  RadiusSolution sol =
      ReferenceBisection(gaps, m, sigma, speed, radius_cap, epsilon, steps);
  sol.stay = StayProbability(sol.radius, sigma);
  sol.stay_pow = std::pow(sol.stay, m);
  return sol;
}

struct SolveCase {
  std::vector<FriendGap> gaps;
  int m = 0;
  double sigma = 0.0;
  double speed = 0.0;
  double cap = 0.0;
  double epsilon = 0.0;
};

std::string Describe(const SolveCase& c) {
  std::ostringstream out;
  out.precision(17);
  out << "m=" << c.m << " sigma=" << c.sigma << " speed=" << c.speed
      << " cap=" << c.cap << " epsilon=" << c.epsilon << " gaps=";
  for (const FriendGap& g : c.gaps) {
    out << "{" << g.y0 << "," << g.alert_radius << "," << g.speed << "}";
  }
  return out.str();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Solves `c` both ways; on a mismatch, adds a failure naming the case.
/// Returns the fast solve's exact-evaluation count.
int ExpectSameSolve(const SolveCase& c) {
  const RadiusSolution fast =
      SolveStripeRadius(c.gaps, c.m, c.sigma, c.speed, c.cap, c.epsilon);
  const RadiusSolution ref = ReferenceSolveStripeRadius(
      c.gaps, c.m, c.sigma, c.speed, c.cap, c.epsilon);
  const bool same = SameBits(fast.radius, ref.radius) &&
                    SameBits(fast.e_m, ref.e_m) &&
                    SameBits(fast.e_p, ref.e_p) &&
                    SameBits(fast.stay, ref.stay) &&
                    SameBits(fast.stay_pow, ref.stay_pow);
  EXPECT_TRUE(same) << Describe(c) << "\n  fast radius=" << fast.radius
                    << " e_m=" << fast.e_m << " e_p=" << fast.e_p
                    << "\n  ref  radius=" << ref.radius << " e_m=" << ref.e_m
                    << " e_p=" << ref.e_p;
  EXPECT_GE(fast.exact_evaluations, 1) << Describe(c);
  return fast.exact_evaluations;
}

double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

/// A kf_rush-shaped solve: per-step sigmas of 150-1500 m, user speeds of
/// 100-300 m/epoch (a few near-stationary), the 4-sigma cap, and up to five
/// friends at 50-2500 m of slack outside ~300-440 m alert radii with
/// approach-scaled speeds, one in five parked (8e-5 m/epoch).
SolveCase RushCase(Rng& rng) {
  SolveCase c;
  c.m = static_cast<int>(rng.UniformInt(0, 20));
  c.sigma = LogUniform(rng, 150.0, 1500.0);
  c.speed = rng.NextBool(0.05) ? 1e-3 : rng.Uniform(100.0, 300.0);
  c.cap = 4.0 * c.sigma;
  c.epsilon = 1e-3;
  const int friends = static_cast<int>(rng.UniformInt(0, 5));
  for (int i = 0; i < friends; ++i) {
    FriendGap g;
    g.alert_radius = rng.Uniform(290.0, 440.0);
    g.y0 = g.alert_radius + LogUniform(rng, 50.0, 2500.0);
    g.speed = rng.NextBool(0.2) ? 8e-5 : rng.Uniform(0.05, 25.0);
    c.gaps.push_back(g);
  }
  return c;
}

/// Anything: m in [0, 24], F in [0, 80] (past the solver's 64 probe lanes),
/// sigma and speed across many decades including sigma <= 0 and speed <=
/// 1e-9, caps that saturate p, +inf gaps, non-positive slack and
/// tolerances from 0 (the 100-step cap) through far below the screen's
/// margin up to 1.
SolveCase WideCase(Rng& rng) {
  SolveCase c;
  c.m = static_cast<int>(rng.UniformInt(0, 24));
  const double u = rng.NextDouble();
  if (u < 0.03) {
    c.sigma = rng.NextBool(0.5) ? 0.0 : -rng.Uniform(0.0, 10.0);
  } else if (u < 0.05) {
    c.sigma = LogUniform(rng, 1e-3, 0.5);
  } else {
    c.sigma = LogUniform(rng, 0.5, 5000.0);
  }
  const double v = rng.NextDouble();
  if (v < 0.03) {
    c.speed = rng.NextBool(0.5) ? 0.0 : LogUniform(rng, 1e-15, 1e-9);
  } else {
    c.speed = LogUniform(rng, 1e-3, 3000.0);
  }
  const double w = rng.NextDouble();
  if (w < 0.1) {
    c.cap = 1e9;
  } else if (w < 0.15) {
    c.cap = kInf;
  } else {
    // Up to 12 sigma: p rounds to 1 well before the cap.
    c.cap = std::max(rng.Uniform(0.5, 12.0) * std::fabs(c.sigma), 30.0);
  }
  const double e = rng.NextDouble();
  if (e < 0.05) {
    c.epsilon = 0.0;
  } else if (e < 0.15) {
    c.epsilon = 1e-9;
  } else if (e < 0.25) {
    c.epsilon = LogUniform(rng, 1e-14, 1e-6);
  } else if (e < 0.35) {
    c.epsilon = LogUniform(rng, 1e-2, 1.0);
  } else {
    c.epsilon = 1e-3;
  }
  const int friends = static_cast<int>(
      rng.NextBool(0.7) ? rng.UniformInt(0, 4) : rng.UniformInt(5, 80));
  const double slack_scale = LogUniform(rng, 1e-3, 1e5);
  for (int i = 0; i < friends; ++i) {
    FriendGap g;
    g.alert_radius = rng.Uniform(0.0, 6000.0);
    const double r = rng.NextDouble();
    if (r < 0.03) {
      g.y0 = kInf;
    } else if (r < 0.06) {
      g.y0 = g.alert_radius - rng.Uniform(0.0, 100.0);  // upper <= 0
    } else {
      g.y0 = g.alert_radius + slack_scale * rng.Uniform(0.01, 1.0);
    }
    g.speed = rng.NextBool(0.05) ? 0.0 : LogUniform(rng, 1e-6, 500.0);
    c.gaps.push_back(g);
  }
  return c;
}

/// One friend whose E_p at the cap equals the exact E_m there, then its
/// speed nudged by up to 3 ulps either way: ties of the early exit on both
/// sides.
std::vector<SolveCase> TiesAtUpper(Rng& rng) {
  SolveCase c;
  c.m = static_cast<int>(rng.UniformInt(0, 24));
  c.sigma = LogUniform(rng, 1.0, 2000.0);
  c.speed = LogUniform(rng, 1.0, 500.0);
  c.cap = c.sigma * rng.Uniform(0.5, 8.0);
  c.epsilon = rng.NextBool(0.5) ? 1e-3 : 1e-9;
  const double e_m = ExpectedExitTime(c.cap, c.speed,
                                      StayProbability(c.cap, c.sigma), c.m);
  FriendGap g;
  g.alert_radius = rng.Uniform(50.0, 500.0);
  g.y0 = g.alert_radius + c.cap * rng.Uniform(1.5, 20.0);
  const double v = (g.y0 - c.cap - g.alert_radius) / e_m;
  std::vector<SolveCase> out;
  double lo = v;
  double hi = v;
  for (int i = 0; i < 3; ++i) {
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, kInf);
  }
  for (double speed = lo; speed <= hi; speed = std::nextafter(speed, kInf)) {
    g.speed = speed;
    c.gaps = {g};
    out.push_back(c);
  }
  return out;
}

/// A crossing case solved once with epsilon = 0 to record every step's
/// e_m - e_p, then re-solved with epsilon placed on one step's |d| and one
/// ulp either side: the stop test's ties.
std::vector<SolveCase> TiesAtStop(Rng& rng) {
  SolveCase c = RushCase(rng);
  if (c.gaps.empty()) c.gaps.push_back({c.cap * 2.0, 300.0, 10.0});
  c.epsilon = 0.0;
  std::vector<double> steps;
  ReferenceSolveStripeRadius(c.gaps, c.m, c.sigma, c.speed, c.cap, 0.0,
                             &steps);
  std::vector<SolveCase> out;
  if (steps.empty()) return out;
  const double d = std::fabs(steps[rng.NextIndex(steps.size())]);
  for (const double eps :
       {std::nextafter(d, 0.0), d, std::nextafter(d, kInf)}) {
    c.epsilon = eps;
    out.push_back(c);
  }
  return out;
}

TEST(RadiusSolvePropertyTest, FastSolveEqualsReferenceBitForBit) {
  Rng rng(20240611);
  long calls = 0;
  long rush_calls = 0;
  long rush_exact = 0;
  while (calls < 1000000) {
    const double kind = rng.NextDouble();
    if (kind < 0.45) {
      rush_exact += ExpectSameSolve(RushCase(rng));
      ++rush_calls;
      ++calls;
    } else if (kind < 0.9) {
      ExpectSameSolve(WideCase(rng));
      ++calls;
    } else if (kind < 0.95) {
      for (const SolveCase& c : TiesAtUpper(rng)) {
        ExpectSameSolve(c);
        ++calls;
      }
    } else {
      for (const SolveCase& c : TiesAtStop(rng)) {
        ExpectSameSolve(c);
        ++calls;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  // On kf_rush-shaped inputs nearly every step is screened.
  EXPECT_LE(static_cast<double>(rush_exact), 1.1 * rush_calls);
}

TEST(RadiusSolvePropertyTest, EdgeCasesEqualReference) {
  const FriendGap near{1000.0, 300.0, 12.0};
  for (int m = 0; m <= 24; ++m) {
    // No friends; every y0 infinite; upper exactly 0 and negative.
    ExpectSameSolve({{}, m, 200.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{{kInf, 300.0, 5.0}, {kInf, 10.0, 1.0}},
                     m, 200.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{{300.0, 300.0, 5.0}}, m, 200.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{{200.0, 300.0, 5.0}}, m, 200.0, 150.0, 800.0, 1e-3});
    // The 100-step cap and a tolerance far below the screen's margin.
    ExpectSameSolve({{near}, m, 200.0, 150.0, 800.0, 0.0});
    ExpectSameSolve({{near}, m, 200.0, 150.0, 800.0, 1e-12});
    // sigma <= 0 (p = 1), a subnormal and a NaN sigma, saturating p.
    ExpectSameSolve({{near}, m, 0.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, -3.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, 1e-310, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, std::nan(""), 150.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, 5.0, 150.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, 5.0, 150.0, 800.0, 0.0});
    // speed <= 1e-9 is clamped.
    ExpectSameSolve({{near}, m, 200.0, 0.0, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, 200.0, 1e-12, 800.0, 1e-3});
    ExpectSameSolve({{near}, m, 200.0, -4.0, 800.0, 1e-3});
    // An infinite cap with friends; a friend at zero speed.
    ExpectSameSolve({{near}, m, 200.0, 150.0, kInf, 1e-3});
    ExpectSameSolve({{{1000.0, 300.0, 0.0}}, m, 200.0, 150.0, 800.0, 1e-3});
  }
}

/// The real-valued E(s) = s/speed + p + ... + p^m, p = erf(s/(sigma sqrt 2)),
/// in long double.
long double TrueExitTime(double s, double speed, double sigma, int m) {
  const long double p = std::erf(static_cast<long double>(s) /
                                 (static_cast<long double>(sigma) *
                                  std::sqrt(2.0L)));
  long double g = 0.0L;
  long double power = 1.0L;
  for (int i = 1; i <= m; ++i) {
    power *= p;
    g += power;
  }
  return static_cast<long double>(s) / speed + g;
}

// |(E_m - e_p) * scale - value| <= margin / 2 at every point where a bound
// is claimed — over the whole table, the saturated tail and the edge
// between, for E_p near E_m (where the solver's decisions are close) and
// far from it — and exit_noise bounds E_m against the true E at and left
// of each point. Checked in long double, so the check adds no rounding of
// its own at these magnitudes.
TEST(ExitTimeScreenTest, GapBoundHoldsAgainstExactExitTime) {
  Rng rng(99);
  long bounded = 0;
  for (long i = 0; i < 1000000; ++i) {
    const int m = static_cast<int>(rng.UniformInt(0, 24));
    const double sigma = LogUniform(rng, 0.5, 5000.0);
    const double speed = std::max(LogUniform(rng, 1e-3, 3000.0), 1e-9);
    // x = s / (sigma sqrt 2) in [0, 7]: the whole table and past it.
    const double x = rng.NextBool(0.1) ? rng.Uniform(5.9, 6.1)
                                       : rng.Uniform(0.0, 7.0);
    const double s = x * sigma * 1.4142135623730950488016887;
    const double e_m =
        ExpectedExitTime(s, speed, StayProbability(s, sigma), m);
    const double w = rng.NextDouble();
    double e_p;
    if (w < 0.5) {
      e_p = e_m + e_m * rng.Uniform(-1e-6, 1e-6);
    } else if (w < 0.6) {
      e_p = e_m;
    } else {
      e_p = rng.Uniform(-2.0, 3.0) * e_m;
    }
    const ExitTimeScreen::Gap gap = ExitTimeScreen(m, sigma, speed).At(s, e_p);
    if (std::isinf(gap.margin)) continue;
    ++bounded;
    // exit_noise: the exact double against the true E at s and left of it.
    for (const double s2 : {s, s * rng.NextDouble()}) {
      const double e_m2 =
          ExpectedExitTime(s2, speed, StayProbability(s2, sigma), m);
      ASSERT_LE(std::fabs(e_m2 - TrueExitTime(s2, speed, sigma, m)),
                gap.exit_noise)
          << "m=" << m << " sigma=" << sigma << " speed=" << speed
          << " s=" << s << " s'=" << s2;
    }
    if (gap.margin == 0.0) {  // m = 0: the reference's own e_m - e_p
      ASSERT_TRUE(SameBits(gap.value, e_m - e_p)) << "s=" << s;
      continue;
    }
    const long double error =
        (static_cast<long double>(e_m) - e_p) * gap.scale - gap.value;
    ASSERT_LE(std::fabs(error), 0.5L * gap.margin)
        << "m=" << m << " sigma=" << sigma << " speed=" << speed
        << " s=" << s << " e_p=" << e_p << " value=" << gap.value
        << " scale=" << gap.scale << " exact E_m=" << e_m;
  }
  // Only x in ~(3.9, 6 + 2^-45 * 6), where 1 - p < kStayError, goes
  // unbounded.
  EXPECT_GT(bounded, 600000);
}

TEST(ExitTimeScreenTest, HorizonZeroIsExact) {
  for (const double s : {0.0, 1e-300, 3.5, 1234.5, 1e12}) {
    const ExitTimeScreen::Gap gap = ExitTimeScreen(0, 150.0, 7.0).At(s, 2.5);
    EXPECT_EQ(gap.margin, 0.0);
    EXPECT_TRUE(SameBits(
        gap.value,
        ExpectedExitTime(s, 7.0, StayProbability(s, 150.0), 0) - 2.5));
  }
}

TEST(ExitTimeScreenTest, UnboundedWhereNothingIsProven) {
  // 1 - p within kStayError (x = 4.95), a NaN sigma, a negative horizon.
  EXPECT_TRUE(std::isinf(ExitTimeScreen(5, 1.0, 1.0).At(7.0, 0.0).margin));
  EXPECT_TRUE(std::isinf(
      ExitTimeScreen(5, std::nan(""), 1.0).At(1.0, 0.0).margin));
  EXPECT_TRUE(std::isinf(ExitTimeScreen(-1, 1.0, 1.0).At(1.0, 0.0).margin));
}

// The deterministic count behind the solve's cost: on a small commuter_rush
// Stripe+KF run, nearly every solve makes only the one exact evaluation of
// the solution it returns.
TEST(RadiusSolveCountTest, CommuterRushStripeKfStaysUnderThreeExactPerSolve) {
  ScenarioWorkloadConfig config;
  config.scenario.kind = ScenarioKind::kCommuterRush;
  config.scenario.num_users = 300;
  config.scenario.epochs = 20;
  config.scenario.seed = 7;
  config.training_users = 20;
  config.training_epochs = 60;
  const Workload workload = BuildScenarioWorkload(config);
  obs::Metrics().Reset();
  const RunResult run = RunMethod(Method::kStripeKf, workload);
  EXPECT_TRUE(run.alerts_exact);
  const auto counters = obs::Metrics().Snapshot().counters;
  const uint64_t solves = counters.at("stripe.radius_solves").second;
  const uint64_t exact = counters.at("stripe.exact_evaluations").second;
  const uint64_t builds = counters.at("stripe.builds").second;
  ASSERT_GT(builds, 0u);
  EXPECT_GE(solves, builds);  // at least the m = 0 solve per build
  EXPECT_GE(exact, solves);   // every returned solution is exact
  EXPECT_LE(exact, 3 * solves);
  std::printf("builds %llu  solves %llu  exact evaluations %llu (%.4f/solve)\n",
              static_cast<unsigned long long>(builds),
              static_cast<unsigned long long>(solves),
              static_cast<unsigned long long>(exact),
              static_cast<double>(exact) / static_cast<double>(solves));
}

}  // namespace
}  // namespace proxdet
