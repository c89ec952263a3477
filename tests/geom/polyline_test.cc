#include "geom/polyline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace proxdet {
namespace {

TEST(PolylineTest, EmptyAndSinglePoint) {
  const Polyline empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(std::isinf(empty.DistanceToPoint({0, 0})));

  const Polyline point({{2, 3}});
  EXPECT_DOUBLE_EQ(point.DistanceToPoint({2, 7}), 4.0);
}

TEST(PolylineTest, DistanceToPointPicksNearestSegment) {
  const Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(line.DistanceToPoint({5, 2}), 2.0);
  EXPECT_DOUBLE_EQ(line.DistanceToPoint({12, 5}), 2.0);
  EXPECT_DOUBLE_EQ(line.DistanceToPoint({10, 5}), 0.0);
}

TEST(PolylineTest, PointAtArcLength) {
  const Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_EQ(line.PointAtArcLength(0.0), (Vec2{0, 0}));
  EXPECT_EQ(line.PointAtArcLength(5.0), (Vec2{5, 0}));
  EXPECT_EQ(line.PointAtArcLength(12.0), (Vec2{10, 2}));
  EXPECT_EQ(line.PointAtArcLength(100.0), (Vec2{10, 10}));  // Clamped.
  EXPECT_EQ(line.PointAtArcLength(-3.0), (Vec2{0, 0}));     // Clamped.
}

// Property: every point returned by PointAtArcLength lies on the polyline.
TEST(PolylineTest, PropertyArcLengthPointsOnLine) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({rng.Uniform(-20, 20), rng.Uniform(-20, 20)});
    }
    double length = 0.0;
    for (size_t i = 0; i + 1 < pts.size(); ++i) {
      length += Distance(pts[i], pts[i + 1]);
    }
    const Polyline line(pts);
    for (double s = 0.0; s <= length; s += length / 17.0) {
      EXPECT_NEAR(line.DistanceToPoint(line.PointAtArcLength(s)), 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace proxdet
