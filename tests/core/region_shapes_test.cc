#include "region/region.h"

#include <gtest/gtest.h>

#include <variant>

#include "common/rng.h"

namespace proxdet {
namespace {

SafeRegionShape MovingAt(const Vec2& c, const Vec2& v, double r, int t0) {
  MovingCircle mc;
  mc.center_at_build = c;
  mc.velocity_per_epoch = v;
  mc.radius = r;
  mc.built_epoch = t0;
  return mc;
}

TEST(RegionShapesTest, MovingCircleTranslates) {
  const MovingCircle mc{{0, 0}, {10, 0}, 5.0, 100};
  EXPECT_EQ(mc.CenterAt(100), (Vec2{0, 0}));
  EXPECT_EQ(mc.CenterAt(103), (Vec2{30, 0}));
  EXPECT_TRUE(mc.Contains({30, 4}, 103));
  EXPECT_FALSE(mc.Contains({30, 4}, 100));
}

TEST(RegionShapesTest, ContainsDispatch) {
  const SafeRegionShape circle = Circle{{0, 0}, 5.0};
  EXPECT_TRUE(ShapeContains(circle, {3, 4}, 0));
  EXPECT_FALSE(ShapeContains(circle, {6, 0}, 0));

  const SafeRegionShape moving = MovingAt({0, 0}, {1, 0}, 2.0, 0);
  EXPECT_TRUE(ShapeContains(moving, {5, 0}, 5));
  EXPECT_FALSE(ShapeContains(moving, {5, 0}, 0));

  const SafeRegionShape poly = ConvexPolygon::Square({0, 0}, 2.0);
  EXPECT_TRUE(ShapeContains(poly, {1, 1}, 0));

  const SafeRegionShape stripe = Stripe(Polyline({{0, 0}, {10, 0}}), 1.0);
  EXPECT_TRUE(ShapeContains(stripe, {5, 1}, 0));
  EXPECT_FALSE(ShapeContains(stripe, {5, 2}, 0));
}

TEST(RegionShapesTest, PointDistanceDispatch) {
  EXPECT_DOUBLE_EQ(
      ShapeDistanceToPoint(SafeRegionShape(Circle{{0, 0}, 2.0}), {5, 0}, 0),
      3.0);
  EXPECT_DOUBLE_EQ(ShapeDistanceToPoint(MovingAt({0, 0}, {1, 0}, 2.0, 0),
                                        {10, 0}, 5),
                   3.0);
  EXPECT_DOUBLE_EQ(ShapeDistanceToPoint(
                       SafeRegionShape(ConvexPolygon::Square({0, 0}, 1.0)),
                       {4, 0}, 0),
                   3.0);
  EXPECT_DOUBLE_EQ(
      ShapeDistanceToPoint(
          SafeRegionShape(Stripe(Polyline({{0, 0}, {10, 0}}), 1.0)), {5, 4},
          0),
      3.0);
}

// A pair some detector produces: a circle with anything, or two shapes of
// one family (region.h).
bool Producible(const SafeRegionShape& a, const SafeRegionShape& b) {
  return a.index() == b.index() || std::holds_alternative<Circle>(a) ||
         std::holds_alternative<Circle>(b);
}

TEST(RegionShapesTest, PairwiseDistancesSymmetric) {
  std::vector<SafeRegionShape> shapes;
  shapes.push_back(Circle{{0, 0}, 2.0});
  shapes.push_back(MovingAt({20, 0}, {1, 1}, 3.0, 0));
  shapes.push_back(ConvexPolygon::Square({0, 30}, 4.0));
  shapes.push_back(Stripe(Polyline({{-30, 0}, {-30, 20}}), 1.5));
  for (const int epoch : {0, 3}) {
    for (size_t i = 0; i < shapes.size(); ++i) {
      for (size_t j = 0; j < shapes.size(); ++j) {
        if (!Producible(shapes[i], shapes[j])) continue;
        EXPECT_NEAR(ShapeMinDistance(shapes[i], shapes[j], epoch),
                    ShapeMinDistance(shapes[j], shapes[i], epoch), 1e-9)
            << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(RegionShapesTest, SelfDistanceZero) {
  std::vector<SafeRegionShape> shapes;
  shapes.push_back(Circle{{0, 0}, 2.0});
  shapes.push_back(ConvexPolygon::Square({0, 0}, 4.0));
  shapes.push_back(Stripe(Polyline({{0, 0}, {10, 0}}), 1.5));
  for (const auto& s : shapes) {
    EXPECT_DOUBLE_EQ(ShapeMinDistance(s, s, 0), 0.0);
  }
}

TEST(RegionShapesTest, KnownCrossTypeDistances) {
  const SafeRegionShape circle = Circle{{0, 0}, 2.0};
  const SafeRegionShape poly = ConvexPolygon::Square({10, 0}, 3.0);
  EXPECT_DOUBLE_EQ(ShapeMinDistance(circle, poly, 0), 5.0);  // 10 - 3 - 2.

  const SafeRegionShape stripe = Stripe(Polyline({{0, 10}, {20, 10}}), 1.0);
  EXPECT_DOUBLE_EQ(ShapeMinDistance(circle, stripe, 0), 7.0);  // 10 - 1 - 2.
}

TEST(RegionShapesTest, MovingPairApproachOverTime) {
  const SafeRegionShape a = MovingAt({0, 0}, {5, 0}, 1.0, 0);
  const SafeRegionShape b = MovingAt({100, 0}, {-5, 0}, 1.0, 0);
  EXPECT_DOUBLE_EQ(ShapeMinDistance(a, b, 0), 98.0);
  EXPECT_DOUBLE_EQ(ShapeMinDistance(a, b, 5), 48.0);
  EXPECT_DOUBLE_EQ(ShapeMinDistance(a, b, 10), 0.0);  // Overlapping.
}

// Property: ShapeMinDistance lower-bounds the distance between any two
// contained points (the safety argument of Definition 2 rests on this).
TEST(RegionShapesTest, PropertyMinDistanceLowerBoundsMemberDistance) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const SafeRegionShape a =
        Stripe(Polyline({{rng.Uniform(-50, 0), rng.Uniform(-20, 20)},
                         {rng.Uniform(0, 50), rng.Uniform(-20, 20)}}),
               rng.Uniform(0.5, 5));
    const SafeRegionShape b = Circle{
        {rng.Uniform(-50, 50), rng.Uniform(30, 80)}, rng.Uniform(1, 10)};
    const double min_d = ShapeMinDistance(a, b, 0);
    for (int i = 0; i < 200; ++i) {
      const Vec2 pa{rng.Uniform(-60, 60), rng.Uniform(-30, 30)};
      const Vec2 pb{rng.Uniform(-60, 60), rng.Uniform(20, 95)};
      if (ShapeContains(a, pa, 0) && ShapeContains(b, pb, 0)) {
        EXPECT_GE(Distance(pa, pb) + 1e-9, min_d);
      }
    }
  }
}

// A detector's family, named by the variant index of its own shape
// (MovingCircle, ConvexPolygon or Stripe); Circle belongs to every family.
size_t RandomFamily(Rng* rng) { return 1 + rng->NextIndex(3); }

// A shape from `family`: a Circle or the family's own shape, evenly.
SafeRegionShape RandomShape(Rng* rng, size_t family) {
  const Vec2 c{rng->Uniform(-20000, 20000), rng->Uniform(-20000, 20000)};
  switch (rng->NextIndex(2) == 0 ? 0 : family) {
    case 0:
      return Circle{c, rng->Uniform(1, 4000)};
    case 1:
      return MovingAt(c, {rng->Uniform(-300, 300), rng->Uniform(-300, 300)},
                      rng->Uniform(1, 4000),
                      static_cast<int>(rng->NextIndex(5)));
    case 2:
      return ConvexPolygon::Square(c, rng->Uniform(1, 4000));
    default: {
      std::vector<Vec2> pts;
      const size_t n = 2 + rng->NextIndex(5);
      Vec2 p = c;
      for (size_t i = 0; i < n; ++i) {
        pts.push_back(p);
        p.x += rng->Uniform(-2000, 2000);
        p.y += rng->Uniform(-2000, 2000);
      }
      return Stripe(Polyline(std::move(pts)), rng->Uniform(1, 500));
    }
  }
}

// Property: the AABB-pruned comparison predicates decide exactly like the
// unpruned exact distances. Pruning may only skip work, never flip a
// branch — the serial engine's decisions are the determinism contract.
TEST(RegionShapesTest, PropertyPrunedPredicatesMatchExactDecisions) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t family = RandomFamily(&rng);
    const SafeRegionShape a = RandomShape(&rng, family);
    const SafeRegionShape b = RandomShape(&rng, family);
    const int epoch = static_cast<int>(rng.NextIndex(12));
    // Thresholds straddling both branches: small draws usually prune, the
    // mid-scale draw sits near shape spacing, the huge one never prunes.
    for (const double threshold :
         {rng.Uniform(0, 2000), rng.Uniform(0, 60000), 150000.0}) {
      const double exact = ShapeMinDistance(a, b, epoch);
      EXPECT_EQ(ShapeMinDistanceBelow(a, b, epoch, threshold),
                exact < threshold)
          << "trial " << trial;
      EXPECT_EQ(ShapeMinDistanceBelow(a, b, epoch, threshold, true),
                exact <= threshold)
          << "trial " << trial;
      const Vec2 p{rng.Uniform(-40000, 40000), rng.Uniform(-40000, 40000)};
      const double exact_p = ShapeDistanceToPoint(a, p, epoch);
      EXPECT_EQ(ShapeDistanceToPointBelow(a, p, epoch, threshold),
                exact_p < threshold)
          << "trial " << trial;
      EXPECT_EQ(ShapeDistanceToPointBelow(a, p, epoch, threshold, true),
                exact_p <= threshold)
          << "trial " << trial;
    }
  }
}

// The soundness of the prune itself: a cached box's distance never exceeds
// the exact distance (the box contains the shape), so `box > threshold`
// proves `exact > threshold`.
TEST(RegionShapesTest, PropertyBoxDistanceLowerBoundsExact) {
  Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t family = RandomFamily(&rng);
    const SafeRegionShape a = RandomShape(&rng, family);
    const SafeRegionShape b = RandomShape(&rng, family);
    const int epoch = static_cast<int>(rng.NextIndex(12));
    BBox box_a, box_b;
    if (!ShapeBoundsAt(a, epoch, &box_a) || !ShapeBoundsAt(b, epoch, &box_b)) {
      continue;  // Only degenerate shapes decline to report bounds.
    }
    EXPECT_LE(box_a.DistanceToBox(box_b),
              ShapeMinDistance(a, b, epoch) + 1e-9)
        << "trial " << trial;
    const Vec2 p{rng.Uniform(-40000, 40000), rng.Uniform(-40000, 40000)};
    EXPECT_LE(box_a.DistanceToPoint(p),
              ShapeDistanceToPoint(a, p, epoch) + 1e-9)
        << "trial " << trial;
  }
}

// Every pair outside the families aborts, naming both shapes, in every build
// type: no detector produces one, so a distance for it would be untested.
TEST(RegionShapesTest, UnproducedPairAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const SafeRegionShape moving = MovingAt({0, 0}, {1, 0}, 2.0, 0);
  const SafeRegionShape poly = ConvexPolygon::Square({0, 30}, 4.0);
  const SafeRegionShape stripe = Stripe(Polyline({{-30, 0}, {-30, 20}}), 1.5);
  EXPECT_DEATH(ShapeMinDistance(poly, stripe, 0), "ConvexPolygon, Stripe");
  EXPECT_DEATH(ShapeMinDistance(stripe, poly, 0), "Stripe, ConvexPolygon");
  EXPECT_DEATH(ShapeMinDistance(poly, moving, 0),
               "ConvexPolygon, MovingCircle");
  EXPECT_DEATH(ShapeMinDistance(moving, poly, 0),
               "MovingCircle, ConvexPolygon");
  EXPECT_DEATH(ShapeMinDistance(moving, stripe, 0), "MovingCircle, Stripe");
  EXPECT_DEATH(ShapeMinDistance(stripe, moving, 0), "Stripe, MovingCircle");
  // The pruned predicate reaches the same check when the boxes overlap.
  EXPECT_DEATH(ShapeMinDistanceBelow(poly, stripe, 0, 1e9),
               "ConvexPolygon, Stripe");
}

// A vertex-free polygon reports distance 0 to everything (the library's
// degenerate-shape convention), so no sound box exists: ShapeBoundsAt must
// decline and the pruned predicate must still agree with the exact path.
TEST(RegionShapesTest, EmptyPolygonDeclinesBoundsButDecidesExactly) {
  const SafeRegionShape empty = ConvexPolygon(std::vector<Vec2>{});
  BBox box;
  EXPECT_FALSE(ShapeBoundsAt(empty, 0, &box));
  const SafeRegionShape far_circle = Circle{{1e6, 1e6}, 1.0};
  EXPECT_TRUE(ShapeMinDistanceBelow(empty, far_circle, 0, 1.0));
  EXPECT_TRUE(ShapeDistanceToPointBelow(empty, {1e6, 1e6}, 0, 1.0));
}

}  // namespace
}  // namespace proxdet
