#include "geom/circle.h"

#include <gtest/gtest.h>

namespace proxdet {
namespace {

TEST(CircleTest, ClosedContainment) {
  const Circle c{{0, 0}, 5.0};
  EXPECT_TRUE(c.Contains({3, 4}));    // On the boundary.
  EXPECT_TRUE(c.Contains({0, 0}));    // Center.
  EXPECT_FALSE(c.Contains({3.1, 4.1}));
}

TEST(CircleTest, StrictContainmentExcludesBoundary) {
  const Circle c{{0, 0}, 5.0};
  EXPECT_FALSE(c.ContainsStrict({3, 4}));
  EXPECT_TRUE(c.ContainsStrict({2.9, 3.9}));
}

TEST(CircleTest, PointDistance) {
  const Circle c{{0, 0}, 2.0};
  EXPECT_DOUBLE_EQ(DistancePointToCircle({5, 0}, c), 3.0);
  EXPECT_DOUBLE_EQ(DistancePointToCircle({1, 0}, c), 0.0);  // Inside.
  EXPECT_DOUBLE_EQ(DistancePointToCircle({2, 0}, c), 0.0);  // Boundary.
}

TEST(CircleTest, CircleCircleDistance) {
  const Circle a{{0, 0}, 1.0};
  const Circle b{{10, 0}, 2.0};
  EXPECT_DOUBLE_EQ(DistanceCircleToCircle(a, b), 7.0);
  const Circle overlap{{2, 0}, 2.0};
  EXPECT_DOUBLE_EQ(DistanceCircleToCircle(a, overlap), 0.0);
}

TEST(CircleTest, ZeroRadiusIsAPoint) {
  const Circle c{{1, 1}, 0.0};
  EXPECT_TRUE(c.Contains({1, 1}));
  EXPECT_FALSE(c.ContainsStrict({1, 1}));  // Strict: even the center is out.
  EXPECT_DOUBLE_EQ(DistancePointToCircle({4, 5}, c), 5.0);
}

}  // namespace
}  // namespace proxdet
