#include "core/stripe_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "geom/anchor_grid.h"

namespace proxdet {
namespace {

std::vector<Vec2> StraightPrediction(const Vec2& from, const Vec2& step,
                                     int count) {
  std::vector<Vec2> out;
  Vec2 p = from;
  for (int i = 0; i < count; ++i) {
    p += step;
    out.push_back(p);
  }
  return out;
}

TEST(StripeBuilderTest, NoFriendsFullHorizon) {
  StripeBuildConfig config;
  config.sigma = 10.0;
  config.max_horizon = 8;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {100, 0}, 8);
  const StripeBuildResult res =
      BuildPredictiveStripe(current, predicted, {}, 100.0, config);
  EXPECT_EQ(res.m, 8);
  EXPECT_EQ(res.stripe.anchor_count(), 9u);  // Anchored at current.
  EXPECT_DOUBLE_EQ(res.stripe.radius(), config.sigma_cap_mult * config.sigma);
  EXPECT_TRUE(res.stripe.Contains(current));
}

TEST(StripeBuilderTest, ContainsCurrentLocationAlways) {
  StripeBuildConfig config;
  config.sigma = 5.0;
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec2 current{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    std::vector<Vec2> predicted;
    Vec2 p = current;
    for (int i = 0; i < 6; ++i) {
      p += Vec2{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
      predicted.push_back(p);
    }
    const SafeRegionShape friend_region =
        Circle{{rng.Uniform(100, 400), 0}, 10.0};
    std::vector<StripeFriendConstraint> friends;
    friends.push_back({&friend_region, 50.0, 3.0});
    const StripeBuildResult res = BuildPredictiveStripe(
        current, predicted, friends, 10.0, config);
    EXPECT_TRUE(res.stripe.Contains(current));
  }
}

TEST(StripeBuilderTest, RespectsFriendSafetyInvariant) {
  // Whatever (m, s) the builder picks, the stripe keeps alert-radius
  // clearance from every constraint region.
  StripeBuildConfig config;
  config.sigma = 20.0;
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 current{0, 0};
    std::vector<Vec2> predicted;
    Vec2 p = current;
    for (int i = 0; i < 10; ++i) {
      p += Vec2{rng.Uniform(0, 40), rng.Uniform(-20, 20)};
      predicted.push_back(p);
    }
    std::vector<SafeRegionShape> shapes;
    std::vector<StripeFriendConstraint> friends;
    const int nf = 1 + static_cast<int>(rng.NextIndex(3));
    shapes.reserve(nf);
    for (int f = 0; f < nf; ++f) {
      shapes.push_back(Circle{{rng.Uniform(150, 600), rng.Uniform(-300, 300)},
                              rng.Uniform(5, 40)});
      friends.push_back(
          {&shapes.back(), rng.Uniform(20, 80), rng.Uniform(1, 10)});
    }
    // Ensure positive initial slack, else the engine would have probed.
    bool feasible = true;
    for (const auto& f : friends) {
      if (ShapeDistanceToPoint(*f.region, current, 0) <= f.alert_radius) {
        feasible = false;
      }
    }
    if (!feasible) continue;
    const StripeBuildResult res = BuildPredictiveStripe(
        current, predicted, friends, 20.0, config);
    for (const auto& f : friends) {
      const double d =
          ShapeMinDistance(SafeRegionShape(res.stripe), *f.region, 0);
      EXPECT_GE(d, f.alert_radius - 1e-6);
    }
  }
}

TEST(StripeBuilderTest, TruncatesAtFriendViolatingAnchor) {
  // Predictions head straight into a friend's alert zone; anchors past the
  // violation must not be enclosed (Algorithm 2 lines 2-6).
  StripeBuildConfig config;
  config.sigma = 5.0;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {100, 0}, 10);
  const SafeRegionShape friend_region = Circle{{520, 0}, 10.0};
  std::vector<StripeFriendConstraint> friends;
  friends.push_back({&friend_region, 60.0, 2.0});
  // Anchor 5 is at x=500, within 60+10 of the friend: m <= 4.
  const StripeBuildResult res =
      BuildPredictiveStripe(current, predicted, friends, 100.0, config);
  EXPECT_LE(res.m, 4);
}

TEST(StripeBuilderTest, EmptyPredictionDegeneratesToDisk) {
  StripeBuildConfig config;
  config.sigma = 8.0;
  const StripeBuildResult res =
      BuildPredictiveStripe({5, 5}, {}, {}, 2.0, config);
  EXPECT_EQ(res.m, 0);
  EXPECT_EQ(res.stripe.anchor_count(), 1u);
  EXPECT_DOUBLE_EQ(res.stripe.radius(), config.sigma_cap_mult * config.sigma);
  EXPECT_TRUE(res.stripe.Contains({5, 5}));
}

TEST(StripeBuilderTest, SqueezedUserGetsPointRegion) {
  // Friend region almost touching: no feasible radius, stripe collapses.
  StripeBuildConfig config;
  config.sigma = 5.0;
  const Vec2 current{0, 0};
  const SafeRegionShape friend_region = Circle{{61.0, 0}, 10.0};
  std::vector<StripeFriendConstraint> friends;
  friends.push_back({&friend_region, 50.0, 2.0});  // Slack = 1.
  const StripeBuildResult res = BuildPredictiveStripe(
      current, StraightPrediction(current, {50, 0}, 5), friends, 50.0,
      config);
  EXPECT_LE(res.stripe.radius(), 1.0);
  EXPECT_TRUE(res.stripe.Contains(current));
}

TEST(StripeBuilderTest, BetterPredictorLongerObjectiveAtEqualCap) {
  // At the same radius cap, a smaller sigma (better model) yields a stay
  // probability and hence an objective at least as large. (With unequal
  // caps the comparison is not monotone: the cap scales with sigma, so a
  // sloppy model is allowed a bigger — longer-lived — region when no
  // friend pressure punishes it.)
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {50, 0}, 10);
  const SafeRegionShape friend_region = Circle{{0, 800}, 10.0};
  std::vector<StripeFriendConstraint> friends;
  friends.push_back({&friend_region, 50.0, 4.0});
  StripeBuildConfig good;
  good.sigma = 5.0;
  good.sigma_cap_mult = 64.0;  // Cap 320.
  StripeBuildConfig bad;
  bad.sigma = 80.0;
  bad.sigma_cap_mult = 4.0;  // Cap 320.
  const auto res_good =
      BuildPredictiveStripe(current, predicted, friends, 50.0, good);
  const auto res_bad =
      BuildPredictiveStripe(current, predicted, friends, 50.0, bad);
  EXPECT_GE(res_good.solution.Objective() + 1e-9,
            res_bad.solution.Objective());
}

TEST(StripeBuilderTest, HorizonCapRespected) {
  StripeBuildConfig config;
  config.sigma = 10.0;
  config.max_horizon = 3;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {50, 0}, 10);
  const StripeBuildResult res =
      BuildPredictiveStripe(current, predicted, {}, 50.0, config);
  EXPECT_LE(res.m, 3);
}

// Algorithm 2 without screening, written from the library's per-shape
// distances: every friend's clearance is evaluated at every step, and the
// cost model sees all of them. The builder must return its result bit for
// bit.
StripeBuildResult UnscreenedReference(
    const Vec2& current, const std::vector<Vec2>& predicted_in,
    const std::vector<StripeFriendConstraint>& friends, double user_speed,
    const StripeBuildConfig& config, int epoch) {
  user_speed = std::max(user_speed, 1e-6);
  const Vec2 current_q = SnapToAnchorGrid(current);
  std::vector<Vec2> predicted;
  for (const Vec2& p : predicted_in) predicted.push_back(SnapToAnchorGrid(p));
  const auto cap = [&config](int m) {
    return std::max(config.sigma_cap_mult * config.SigmaForStep(m),
                    kStripeMinRadius);
  };
  StripeBuildResult best;
  std::vector<FriendGap> gaps;
  for (const StripeFriendConstraint& f : friends) {
    FriendGap g;
    g.y0 = ShapeDistanceToPoint(*f.region, current_q, epoch);
    g.alert_radius = f.alert_radius;
    g.speed = std::max(f.speed * config.approach_factor, 1e-6);
    gaps.push_back(g);
    std::visit(
        [&](const auto& shape) {
          using T = std::decay_t<decltype(shape)>;
          if constexpr (std::is_same_v<T, Stripe>) {
            if (shape.anchor_count() == 1) {
              ++best.staged_point_lanes;
            } else {
              best.staged_segment_lanes += shape.anchor_count() - 1;
            }
          } else {
            ++best.staged_point_lanes;
          }
        },
        *f.region);
  }
  best.solution = SolveStripeRadius(gaps, 0, config.SigmaForStep(1),
                                    user_speed, cap(1), kStripeEpsilon);
  std::vector<Vec2> anchors{current_q};
  const int horizon = static_cast<int>(
      std::min<size_t>(predicted.size(), config.max_horizon));
  for (int m = 1; m <= horizon; ++m) {
    const Vec2 next = predicted[m - 1];
    bool violated = false;
    for (const StripeFriendConstraint& f : friends) {
      violated = violated || ShapeDistanceToPoint(*f.region, next, epoch) <=
                                 f.alert_radius;
    }
    if (violated) break;
    const SafeRegionShape segment(Stripe(Polyline({anchors.back(), next}), 0.0));
    for (size_t i = 0; i < friends.size(); ++i) {
      gaps[i].y0 = std::min(
          gaps[i].y0, ShapeMinDistance(segment, *friends[i].region, epoch));
    }
    anchors.push_back(next);
    if (RadiusUpperBound(gaps) <= 0.0) break;
    const RadiusSolution sol =
        SolveStripeRadius(gaps, m, config.SigmaForStep(m), user_speed,
                          cap(m), kStripeEpsilon);
    if (sol.Objective() > best.solution.Objective()) {
      best.solution = sol;
      best.m = m;
    }
    if (sol.stay_pow < kStripePMin) break;
  }
  best.stripe = Stripe(anchors.data(), static_cast<size_t>(best.m) + 1,
                       best.solution.radius);
  return best;
}

// Influential-friend screening drops friends before staging; the oracle
// is the unscreened algorithm above. The friend sets mix circles and
// grid-snapped stripes near and far, with duplicated friends
// (equal terms), alert radii set exactly to a clearance (lb == r_w and
// U0 == 0), friends inside the alert radius (U0 < 0), speeds at the clamps
// (0, approach factor 0, far below 1e-6) and very fast friends. The
// reference reads the friends at a random epoch; the builder takes none,
// since circles and stripes are the same at every epoch.
TEST(StripeBuilderTest, ScreenedBuildIsBitExactWithUnscreenedReference) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  Rng rng(4242);
  size_t screened = 0;
  size_t offered = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    StripeBuildConfig config;
    config.sigma = rng.Uniform(2.0, 80.0);
    if (rng.NextIndex(3) == 0) {
      for (int j = 0; j < 20; ++j) {
        config.sigma_per_step.push_back(rng.Uniform(2.0, 20.0) * (j + 1));
      }
    }
    config.max_horizon = static_cast<int>(rng.NextIndex(21));
    // Layered trials put every friend a few hundred meters outside its
    // alert radius with E_p terms of mixed slopes, against a slow user,
    // so the E_p argmin changes along [0, U] where E_m meets it.
    const bool layered = rng.NextIndex(3) == 0;
    const uint64_t af = layered ? 1 : rng.NextIndex(4);
    config.approach_factor = af == 0 ? 0.0 : (af == 1 ? 1.0 : 0.08);
    const int epoch = static_cast<int>(rng.NextIndex(50));

    const Vec2 current{rng.Uniform(-3000, 3000), rng.Uniform(-3000, 3000)};
    std::vector<Vec2> predicted;
    const double step = rng.Uniform(0.0, layered ? 20.0 : 400.0);
    Vec2 p = current;
    const size_t n_pred = rng.NextIndex(25);
    for (size_t i = 0; i < n_pred; ++i) {
      if (rng.NextIndex(8) != 0) {  // Otherwise the user dwells.
        p += Vec2{rng.Uniform(-step, step), rng.Uniform(-step, step)};
      }
      predicted.push_back(p);
    }

    const size_t n_friends = rng.NextIndex(40);
    const double spreads[] = {600.0, 4000.0, 40000.0};
    const double spread = spreads[rng.NextIndex(3)];
    std::vector<SafeRegionShape> shapes;
    shapes.reserve(n_friends);
    std::vector<StripeFriendConstraint> friends;
    for (size_t i = 0; i < n_friends; ++i) {
      if (!friends.empty() && rng.NextIndex(8) == 0) {
        friends.push_back(friends[rng.NextIndex(friends.size())]);
        continue;
      }
      const double layer_alert = rng.Uniform(50.0, 300.0);
      const double angle = rng.Uniform(0.0, 6.283185307179586);
      const double reach = layer_alert + rng.Uniform(0.0, 600.0);
      const Vec2 at =
          layered ? current + Vec2{reach * std::cos(angle),
                                   reach * std::sin(angle)}
                  : current + Vec2{rng.Uniform(-spread, spread),
                                   rng.Uniform(-spread, spread)};
      const double radius =
          rng.NextIndex(6) == 0 ? 0.0 : rng.Uniform(0, layered ? 20 : 300);
      switch (rng.NextIndex(2)) {
        case 0:
          shapes.push_back(Circle{at, radius});
          break;
        default: {
          std::vector<Vec2> path{SnapToAnchorGrid(at)};
          const size_t n = rng.NextIndex(7);
          for (size_t j = 0; j < n; ++j) {
            path.push_back(SnapToAnchorGrid(
                path.back() + Vec2{rng.Uniform(-300, 300),
                                   rng.Uniform(-300, 300)}));
          }
          shapes.push_back(Stripe(path.data(), path.size(), radius));
        }
      }
      StripeFriendConstraint f;
      f.region = &shapes.back();
      switch (layered ? 5 : rng.NextIndex(6)) {
        case 0:  // Exactly at the alert radius from the current location.
          f.alert_radius =
              ShapeDistanceToPoint(shapes.back(), SnapToAnchorGrid(current),
                                   epoch);
          break;
        case 1:  // Exactly at the alert radius from a predicted anchor.
          f.alert_radius =
              predicted.empty()
                  ? 0.0
                  : ShapeDistanceToPoint(
                        shapes.back(),
                        SnapToAnchorGrid(
                            predicted[rng.NextIndex(predicted.size())]),
                        epoch);
          break;
        default:
          f.alert_radius = layered ? layer_alert : rng.Uniform(0.0, 2000.0);
      }
      switch (layered ? 5 : rng.NextIndex(6)) {
        case 0:
          f.speed = 0.0;
          break;
        case 1:
          f.speed = 1e-12;
          break;
        case 2:
          f.speed = rng.Uniform(1e4, 1e6);
          break;
        case 3:
          f.speed = rng.Uniform(1.0, 300.0);
          break;
        default:  // Log-uniform: mixed slopes of the E_p terms.
          f.speed = std::pow(10.0, rng.Uniform(-1.0, 3.0));
      }
      friends.push_back(f);
    }
    const uint64_t us = layered ? 1 : rng.NextIndex(4);
    const double user_speed =
        us == 0 ? 0.0 : (us == 1 ? rng.Uniform(0.2, 5.0) : step);

    const StripeBuildResult got = BuildPredictiveStripe(
        current, predicted, friends, user_speed, config);
    const StripeBuildResult want = UnscreenedReference(
        current, predicted, friends, user_speed, config, epoch);
    screened += got.screened_friends;
    offered += friends.size();
    ASSERT_EQ(got.m, want.m) << "trial " << trial;
    ASSERT_EQ(bits(got.solution.radius), bits(want.solution.radius))
        << "trial " << trial;
    ASSERT_EQ(bits(got.solution.e_m), bits(want.solution.e_m))
        << "trial " << trial;
    ASSERT_EQ(bits(got.solution.e_p), bits(want.solution.e_p))
        << "trial " << trial;
    ASSERT_EQ(bits(got.solution.stay), bits(want.solution.stay))
        << "trial " << trial;
    ASSERT_EQ(bits(got.solution.stay_pow), bits(want.solution.stay_pow))
        << "trial " << trial;
    ASSERT_TRUE(got.stripe == want.stripe) << "trial " << trial;
    ASSERT_EQ(got.staged_point_lanes, want.staged_point_lanes);
    ASSERT_EQ(got.staged_segment_lanes, want.staged_segment_lanes);
  }
  // The sets exercise the screen: it drops a good share of the friends but
  // not all of them.
  EXPECT_GT(screened, offered / 10);
  EXPECT_LT(screened, offered);
}

// A Stripe build's friends are circles and stripes; any other region aborts
// the build, naming the shape, before a clearance is computed from it.
TEST(StripeBuilderTest, FriendOutsideStripeFamilyAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  StripeBuildConfig config;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {40, 0}, 5);
  const SafeRegionShape circle = Circle{{0, 600}, 10.0};
  MovingCircle mc;
  mc.center_at_build = {0, -600};
  mc.velocity_per_epoch = {1, 0};
  mc.radius = 10.0;
  const SafeRegionShape moving = mc;
  const SafeRegionShape poly = ConvexPolygon::Square({600, 0}, 10.0);
  for (const SafeRegionShape* outside : {&moving, &poly}) {
    const std::vector<StripeFriendConstraint> friends{
        {&circle, 100.0, 1.0}, {outside, 100.0, 1.0}};
    EXPECT_DEATH(BuildPredictiveStripe(current, predicted, friends, 40.0,
                                       config),
                 std::string("friend region is a ") + ShapeName(*outside));
  }
}

// A far friend that moves fast enough owns E_p even though a near, slow
// friend owns the radius bound: the screen must keep it.
TEST(StripeBuilderTest, ScreenKeepsFarFriendThatOwnsProbeTime) {
  StripeBuildConfig config;
  config.sigma = 20.0;
  config.approach_factor = 1.0;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {40, 0}, 10);
  const SafeRegionShape near_slow = Circle{{0, 600}, 10.0};
  const SafeRegionShape far_fast = Circle{{0, -6000}, 10.0};
  std::vector<StripeFriendConstraint> friends;
  friends.push_back({&near_slow, 100.0, 1.0});
  friends.push_back({&far_fast, 100.0, 1e5});
  const StripeBuildResult both =
      BuildPredictiveStripe(current, predicted, friends, 40.0, config);
  EXPECT_EQ(both.screened_friends, 0u);
  const StripeBuildResult want = UnscreenedReference(
      current, predicted, friends, 40.0, config, 0);
  EXPECT_EQ(both.solution.e_p, want.solution.e_p);
  EXPECT_EQ(both.solution.radius, want.solution.radius);
  // A slow far friend is screened, and the result does not move.
  friends[1].speed = 1.0;
  const StripeBuildResult slow =
      BuildPredictiveStripe(current, predicted, friends, 40.0, config);
  EXPECT_EQ(slow.screened_friends, 1u);
  const StripeBuildResult slow_want = UnscreenedReference(
      current, predicted, friends, 40.0, config, 0);
  EXPECT_EQ(slow.solution.e_p, slow_want.solution.e_p);
  EXPECT_EQ(slow.solution.radius, slow_want.solution.radius);
  EXPECT_EQ(slow.m, slow_want.m);
}

// Neither pivot alone bounds E_p over [0, U]: the near slow friend's term
// falls from U to 0, the far fast friend's stays near 50, and a friend in
// between (term 60 at s = 0, 10 at s = U = 100) is the argmin around
// s = 50, the bisection's first probe. Beating each pivot at one end is
// not enough; the screen must keep it.
TEST(StripeBuilderTest, ScreenKeepsFriendThatOwnsProbeTimeMidInterval) {
  StripeBuildConfig config;
  config.sigma = 200.0;
  config.approach_factor = 1.0;
  const Vec2 current{0, 0};
  const auto predicted = StraightPrediction(current, {10, 0}, 10);
  const SafeRegionShape near_slow = Circle{{0, 300}, 0.0};
  const SafeRegionShape between = Circle{{0, -320}, 0.0};
  const SafeRegionShape far_fast = Circle{{0, 5200}, 0.0};
  std::vector<StripeFriendConstraint> friends;
  friends.push_back({&near_slow, 200.0, 1.0});
  friends.push_back({&between, 200.0, 2.0});
  friends.push_back({&far_fast, 200.0, 100.0});
  const StripeBuildResult got =
      BuildPredictiveStripe(current, predicted, friends, 1.0, config);
  const StripeBuildResult want = UnscreenedReference(
      current, predicted, friends, 1.0, config, 0);
  EXPECT_EQ(got.screened_friends, 0u);
  EXPECT_EQ(got.m, want.m);
  EXPECT_EQ(got.solution.e_p, want.solution.e_p);
  EXPECT_EQ(got.solution.radius, want.solution.radius);
}

}  // namespace
}  // namespace proxdet
