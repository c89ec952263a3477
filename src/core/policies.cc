#include "core/policies.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "geom/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {

namespace {

/// StaticPolygonPolicy: half-extent of the bounding square before friend
/// clipping (caps region size when no friend is nearby), and the
/// verify-and-shrink iterations against non-circular friend regions.
constexpr double kStaticExtentCap = 3000.0;  // meters
constexpr int kStaticMaxShrinkIterations = 6;

/// MobileCirclePolicy: the base radius, and CMD's multiplier steps (grow on
/// exit, shrink on probe) and the bounds it is held within.
constexpr double kMobileBaseRadius = 500.0;  // meters
constexpr double kCmdIncrease = 1.25;
constexpr double kCmdDecrease = 0.8;
constexpr double kCmdMinMultiplier = 0.2;
constexpr double kCmdMaxMultiplier = 6.0;

/// Cost-model internals per rebuild, all deterministic: the chosen
/// prediction horizon m, the unit stripe half-width s^u (via the chosen
/// radius), and the expected message costs E_m / E_p the optimizer settled
/// on (Sec. V-B). Distributions, not totals — the report surfaces p50/p90.
struct StripeMetrics {
  obs::Counter& builds;
  obs::HistogramMetric& m;
  obs::QuantileMetric& radius;
  obs::QuantileMetric& e_m;
  obs::QuantileMetric& e_p;
  /// SoA lane counts the builder staged per rebuild (point-like constraints
  /// vs concatenated stripe segments) — deterministic functions of the
  /// workload, like every other stripe.* metric. Power-of-two-ish buckets.
  obs::HistogramMetric& batch_points;
  obs::HistogramMetric& batch_segments;
  /// Batched-kernel dispatches, keyed by the kernel implementation
  /// (simd.dispatch.scalar). The name carries the implementation, so the
  /// counter is wall-clock-kinded and stays out of the deterministic
  /// digest.
  obs::Counter& dispatches;
  /// Radius solves and the exact E_m evaluations they made (the screened
  /// bisection's fallbacks plus one per returned solution). Whether a step
  /// falls back depends on the host's erf in its last bits, so these are
  /// wall-clock-kinded and stay out of the deterministic digest too.
  obs::Counter& radius_solves;
  obs::Counter& exact_evaluations;

  static const StripeMetrics& Get() {
    static const StripeMetrics metrics{
        obs::Metrics().GetCounter("stripe.builds"),
        obs::Metrics().GetHistogram(
            "stripe.m",
            {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.radius",
                                   obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.e_m", obs::Kind::kDeterministic),
        obs::Metrics().GetQuantile("stripe.e_p", obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram(
            "simd.batch.stripe_points",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
             1024.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram(
            "simd.batch.stripe_segments",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
             1024.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetCounter(
            std::string("simd.dispatch.") +
                simd::BackendName(simd::ActiveBackend()),
            obs::Kind::kWallClock),
        obs::Metrics().GetCounter("stripe.radius_solves",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("stripe.exact_evaluations",
                                  obs::Kind::kWallClock),
    };
    return metrics;
  }
};

/// StripePolicy's build sample: the cost-model outcome and kernel work of
/// one stripe construction, everything StripeMetrics records for it.
struct StripeSample final : BuildSample {
  int m = 0;
  RadiusSolution solution;
  size_t staged_point_lanes = 0;
  size_t staged_segment_lanes = 0;
  size_t kernel_dispatches = 0;
  size_t radius_solves = 0;
  size_t exact_evaluations = 0;
};

/// A representative interior point of a Static friend's region (a Circle
/// or a ConvexPolygon), used only to orient half-plane boundaries;
/// soundness never depends on it (the verify-and-shrink loop checks exact
/// distances).
Vec2 RepresentativePoint(const SafeRegionShape& shape) {
  if (const Circle* c = std::get_if<Circle>(&shape)) return c->center;
  const ConvexPolygon& poly = std::get<ConvexPolygon>(shape);
  Vec2 acc{0.0, 0.0};
  if (poly.vertices().empty()) return acc;
  for (const Vec2& v : poly.vertices()) acc += v;
  return acc / static_cast<double>(poly.vertices().size());
}

}  // namespace

SafeRegionShape StaticPolygonPolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  (void)u;
  (void)recent_window;
  (void)speed;
  // One boundary offset per friend; start at the full measured slack and
  // shrink on verification failure.
  std::vector<double> offsets(friends.size());
  std::vector<Vec2> directions(friends.size());
  for (size_t i = 0; i < friends.size(); ++i) {
    const double d = ShapeDistanceToPoint(friends[i].region(), location, epoch);
    offsets[i] = std::max(0.0, d - friends[i].alert_radius);
    Vec2 dir = RepresentativePoint(friends[i].region()) - location;
    if (dir.SquaredNorm() < 1e-12) dir = Vec2{1.0, 0.0};
    directions[i] = dir.Normalized();
  }

  for (int iter = 0;; ++iter) {
    ConvexPolygon poly = ConvexPolygon::Square(location, kStaticExtentCap);
    for (size_t i = 0; i < friends.size(); ++i) {
      poly = poly.ClippedBy(
          {location + directions[i] * offsets[i], directions[i]});
      if (poly.empty()) break;
    }
    if (poly.empty()) break;  // Degenerate: fall through to the point region.
    bool violated = false;
    for (size_t i = 0; i < friends.size(); ++i) {
      const double d = ShapeMinDistance(SafeRegionShape(poly),
                                        friends[i].region(), epoch);
      if (d < friends[i].alert_radius - 1e-9) {
        offsets[i] *= 0.5;
        violated = true;
      }
    }
    if (!violated) return poly;
    if (iter >= kStaticMaxShrinkIterations) break;
  }
  // Friends leave no polygonal room: a point region (the user reports again
  // next epoch, which is the correct behavior when squeezed).
  return Circle{location, 0.0};
}

SafeRegionShape MobileCirclePolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  Vec2 velocity{0.0, 0.0};
  if (recent_window.size() >= 2) {
    velocity = (recent_window.back() - recent_window.front()) /
               static_cast<double>(recent_window.size() - 1);
  }
  (void)speed;
  double multiplier = 1.0;
  if (options_.self_tuning) {
    const auto it = multiplier_.find(u);
    if (it != multiplier_.end()) multiplier = it->second;
  }
  double radius = kMobileBaseRadius * multiplier;
  for (const FriendView& f : friends) {
    const double d = ShapeDistanceToPoint(f.region(), location, epoch);
    radius = std::min(radius, std::max(0.0, d - f.alert_radius));
  }
  MovingCircle circle;
  circle.center_at_build = location;
  circle.velocity_per_epoch = velocity;
  circle.radius = radius;
  circle.built_epoch = epoch;
  return circle;
}

void MobileCirclePolicy::OnExit(UserId u) {
  if (!options_.self_tuning) return;
  double& m = multiplier_.try_emplace(u, 1.0).first->second;
  m = std::min(m * kCmdIncrease, kCmdMaxMultiplier);
}

void MobileCirclePolicy::OnProbe(UserId u) {
  if (!options_.self_tuning) return;
  double& m = multiplier_.try_emplace(u, 1.0).first->second;
  m = std::max(m * kCmdDecrease, kCmdMinMultiplier);
}

StripePolicy::StripePolicy(std::unique_ptr<Predictor> predictor)
    : StripePolicy(std::move(predictor), Options()) {}

StripePolicy::StripePolicy(std::unique_ptr<Predictor> predictor,
                           Options options)
    : predictor_(std::move(predictor)), options_(options) {}

SafeRegionShape StripePolicy::BuildRegion(
    UserId u, const Vec2& location, const std::vector<Vec2>& recent_window,
    double speed, const std::vector<FriendView>& friends, int epoch) {
  ConcurrentBuild build;
  BuildConcurrent(u, location, recent_window, speed, friends, epoch, &build);
  RecordBuild(*build.sample);
  return std::move(build.shape);
}

bool StripePolicy::BuildConcurrent(UserId u, const Vec2& location,
                                   const std::vector<Vec2>& recent_window,
                                   double speed,
                                   const std::vector<FriendView>& friends,
                                   int epoch, ConcurrentBuild* out) const {
  (void)u;
  (void)epoch;  // Circles and stripes, a stripe build's friends, are static.
  std::vector<Vec2> predicted;
  {
    obs::TraceScope span("predict", "engine");
    predicted = predictor_->Predict(
        recent_window, static_cast<size_t>(options_.build.max_horizon));
  }
  // Constraints borrow the FriendView regions (alive for the whole build);
  // the per-thread scratch keeps steady-state rebuilds allocation-free.
  thread_local std::vector<StripeFriendConstraint> constraints;
  constraints.clear();
  constraints.reserve(friends.size());
  for (const FriendView& f : friends) {
    constraints.push_back({&f.region(), f.alert_radius, f.speed});
  }
  obs::TraceScope span("stripe_build", "engine");
  StripeBuildResult result = BuildPredictiveStripe(
      location, predicted, constraints, speed, options_.build);
  auto sample = std::make_unique<StripeSample>();
  sample->m = result.m;
  sample->solution = result.solution;
  sample->staged_point_lanes = result.staged_point_lanes;
  sample->staged_segment_lanes = result.staged_segment_lanes;
  sample->kernel_dispatches = result.kernel_dispatches;
  sample->radius_solves = result.radius_solves;
  sample->exact_evaluations = result.exact_evaluations;
  out->shape = std::move(result.stripe);
  out->sample = std::move(sample);
  return true;
}

void StripePolicy::RecordBuild(const BuildSample& sample) {
  const StripeSample& s = static_cast<const StripeSample&>(sample);
  const StripeMetrics& sm = StripeMetrics::Get();
  sm.builds.Inc();
  sm.m.Record(static_cast<double>(s.m));
  sm.radius.Record(s.solution.radius);
  sm.e_m.Record(s.solution.e_m);
  sm.e_p.Record(s.solution.e_p);
  sm.batch_points.Record(static_cast<double>(s.staged_point_lanes));
  sm.batch_segments.Record(static_cast<double>(s.staged_segment_lanes));
  sm.dispatches.Inc(s.kernel_dispatches);
  sm.radius_solves.Inc(s.radius_solves);
  sm.exact_evaluations.Inc(s.exact_evaluations);
}

}  // namespace proxdet
