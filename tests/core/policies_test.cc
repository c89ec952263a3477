#include "core/policies.h"

#include <gtest/gtest.h>

#include "predict/linear_predictor.h"

namespace proxdet {
namespace {

std::vector<Vec2> WindowEastward(const Vec2& end, double step, size_t n) {
  std::vector<Vec2> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({end.x - step * (n - 1 - i), end.y});
  }
  return out;
}

FriendView CircleFriend(const Vec2& center, double radius, double r,
                        double speed) {
  FriendView f;
  f.id = 1;
  f.owned_region = Circle{center, radius};
  f.alert_radius = r;
  f.speed = speed;
  return f;
}

TEST(StaticPolygonPolicyTest, IsolatedUserGetsCappedSquare) {
  StaticPolygonPolicy policy;
  const SafeRegionShape shape =
      policy.BuildRegion(0, {0, 0}, WindowEastward({0, 0}, 10, 5), 10.0, {},
                         0);
  const auto* poly = std::get_if<ConvexPolygon>(&shape);
  ASSERT_NE(poly, nullptr);
  EXPECT_TRUE(poly->Contains({0, 0}));
  EXPECT_NEAR(poly->Area(), 6000.0 * 6000.0, 1.0);  // Full extent cap.
}

TEST(StaticPolygonPolicyTest, FriendClipsPolygon) {
  StaticPolygonPolicy policy;
  std::vector<FriendView> friends{CircleFriend({1000, 0}, 50.0, 200.0, 5.0)};
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 10, 5), 10.0, friends, 0);
  EXPECT_TRUE(ShapeContains(shape, {0, 0}, 0));
  // Safety: the region keeps alert-radius clearance from the friend.
  EXPECT_GE(ShapeMinDistance(shape, friends[0].region(), 0), 200.0 - 1e-6);
}

TEST(StaticPolygonPolicyTest, SqueezedFallsBackToPoint) {
  StaticPolygonPolicy policy;
  // Friend region ends 1 m beyond the alert radius: nearly no room.
  std::vector<FriendView> friends{CircleFriend({301, 0}, 100.0, 200.0, 5.0)};
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 10, 5), 10.0, friends, 0);
  EXPECT_TRUE(ShapeContains(shape, {0, 0}, 0));
  EXPECT_GE(ShapeMinDistance(shape, friends[0].region(), 0), 200.0 - 1e-6);
}

TEST(StaticPolygonPolicyTest, SafeAgainstPolygonFriends) {
  StaticPolygonPolicy policy;
  FriendView f;
  f.id = 2;
  // An elongated friend region to exercise the verify-and-shrink loop.
  f.owned_region = ConvexPolygon(
      {{500, -4000}, {700, -4000}, {700, 4000}, {500, 4000}});
  f.alert_radius = 150.0;
  f.speed = 3.0;
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 10, 5), 10.0, {f}, 0);
  EXPECT_TRUE(ShapeContains(shape, {0, 0}, 0));
  EXPECT_GE(ShapeMinDistance(shape, f.region(), 0), 150.0 - 1e-6);
}

TEST(MobileCirclePolicyTest, VelocityFromWindow) {
  MobileCirclePolicy policy;
  const SafeRegionShape shape = policy.BuildRegion(
      0, {100, 0}, WindowEastward({100, 0}, 20, 5), 20.0, {}, 7);
  const auto* mc = std::get_if<MovingCircle>(&shape);
  ASSERT_NE(mc, nullptr);
  EXPECT_NEAR(mc->velocity_per_epoch.x, 20.0, 1e-9);
  EXPECT_EQ(mc->built_epoch, 7);
  EXPECT_TRUE(mc->Contains({100, 0}, 7));
  // FMD uses the fixed system-wide base radius [19].
  EXPECT_NEAR(mc->radius, 500.0, 1e-9);
}

TEST(MobileCirclePolicyTest, FriendCapsRadius) {
  MobileCirclePolicy policy;
  std::vector<FriendView> friends{CircleFriend({130, 0}, 10.0, 100.0, 5.0)};
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 20, 5), 20.0, friends, 0);
  const auto* mc = std::get_if<MovingCircle>(&shape);
  ASSERT_NE(mc, nullptr);
  // Slack = 130 - 10 - 100 = 20.
  EXPECT_NEAR(mc->radius, 20.0, 1e-9);
}

TEST(MobileCirclePolicyTest, CmdSelfTuning) {
  MobileCirclePolicy::Options opts;
  opts.self_tuning = true;
  MobileCirclePolicy policy(opts);
  const auto window = WindowEastward({0, 0}, 20, 5);
  const auto base = std::get<MovingCircle>(
      policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0));
  policy.OnExit(0);  // Region was too small.
  const auto grown = std::get<MovingCircle>(
      policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0));
  EXPECT_GT(grown.radius, base.radius);
  policy.OnProbe(0);
  policy.OnProbe(0);
  const auto shrunk = std::get<MovingCircle>(
      policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0));
  EXPECT_LT(shrunk.radius, grown.radius);
  // The multiplier is held within [0.2, 6.0]: 20 exits (1.25 each) pin it
  // at the top bound, 40 probes (0.8 each) at the bottom one.
  for (int i = 0; i < 20; ++i) policy.OnExit(0);
  EXPECT_EQ(std::get<MovingCircle>(
                policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0))
                .radius,
            base.radius * 6.0);
  for (int i = 0; i < 40; ++i) policy.OnProbe(0);
  EXPECT_EQ(std::get<MovingCircle>(
                policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0))
                .radius,
            base.radius * 0.2);
}

TEST(MobileCirclePolicyTest, FmdIgnoresTuningHooks) {
  MobileCirclePolicy policy;  // self_tuning = false.
  const auto window = WindowEastward({0, 0}, 20, 5);
  const auto base = std::get<MovingCircle>(
      policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0));
  policy.OnExit(0);
  policy.OnExit(0);
  const auto after = std::get<MovingCircle>(
      policy.BuildRegion(0, {0, 0}, window, 20.0, {}, 0));
  EXPECT_DOUBLE_EQ(base.radius, after.radius);
}

TEST(StripePolicyTest, BuildsStripeAlongPrediction) {
  StripePolicy policy(std::make_unique<LinearPredictor>());
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 50, 6), 50.0, {}, 0);
  const auto* stripe = std::get_if<Stripe>(&shape);
  ASSERT_NE(stripe, nullptr);
  EXPECT_TRUE(stripe->Contains({0, 0}));
  // Linear predictor extends east; the far anchor should be east of start.
  EXPECT_GT(stripe->anchor(stripe->anchor_count() - 1).x, 100.0);
}

TEST(StripePolicyTest, SafetyAgainstFriends) {
  StripePolicy policy(std::make_unique<LinearPredictor>());
  std::vector<FriendView> friends{CircleFriend({0, 500}, 20.0, 100.0, 5.0)};
  const SafeRegionShape shape = policy.BuildRegion(
      0, {0, 0}, WindowEastward({0, 0}, 50, 6), 50.0, friends, 0);
  EXPECT_GE(ShapeMinDistance(shape, friends[0].region(), 0), 100.0 - 1e-6);
}

TEST(StripePolicyTest, NameIncludesPredictor) {
  StripePolicy policy(std::make_unique<LinearPredictor>());
  EXPECT_EQ(policy.name(), "Stripe+Linear");
}

}  // namespace
}  // namespace proxdet
