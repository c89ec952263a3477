#include "core/stripe_builder.h"

#include <gtest/gtest.h>

#include "common/rng.h"

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
      BuildPredictiveStripe(current, predicted, {}, 100.0, config, 0);
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
        current, predicted, friends, 10.0, config, 0);
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
        current, predicted, friends, 20.0, config, 0);
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
      BuildPredictiveStripe(current, predicted, friends, 100.0, config, 0);
  EXPECT_LE(res.m, 4);
}

TEST(StripeBuilderTest, EmptyPredictionDegeneratesToDisk) {
  StripeBuildConfig config;
  config.sigma = 8.0;
  const StripeBuildResult res =
      BuildPredictiveStripe({5, 5}, {}, {}, 2.0, config, 0);
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
      config, 0);
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
      BuildPredictiveStripe(current, predicted, friends, 50.0, good, 0);
  const auto res_bad =
      BuildPredictiveStripe(current, predicted, friends, 50.0, bad, 0);
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
      BuildPredictiveStripe(current, predicted, {}, 50.0, config, 0);
  EXPECT_LE(res.m, 3);
}

}  // namespace
}  // namespace proxdet
