#include "traj/trajectory.h"

#include <gtest/gtest.h>

namespace proxdet {
namespace {

Trajectory MakeStraight() {
  // 1 m per tick along x, dt = 1 s.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({static_cast<double>(i), 0.0});
  return Trajectory(std::move(pts), 1.0);
}

TEST(TrajectoryTest, BasicAccessors) {
  const Trajectory t = MakeStraight();
  EXPECT_EQ(t.size(), 11u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.at(3), (Vec2{3, 0}));
  EXPECT_DOUBLE_EQ(t.dt(), 1.0);
}

TEST(TrajectoryTest, SpeedAndLength) {
  const Trajectory t = MakeStraight();
  EXPECT_DOUBLE_EQ(t.PathLength(), 10.0);
  EXPECT_DOUBLE_EQ(t.AverageSpeed(), 1.0);
  EXPECT_DOUBLE_EQ(t.SpeedAt(5), 1.0);
  EXPECT_DOUBLE_EQ(t.SpeedAt(0), 0.0);  // No previous point.
}

TEST(TrajectoryTest, RecentWindow) {
  const Trajectory t = MakeStraight();
  const std::vector<Vec2> w = t.RecentWindow(5, 3);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.front(), (Vec2{3, 0}));
  EXPECT_EQ(w.back(), (Vec2{5, 0}));
}

TEST(TrajectoryTest, RecentWindowTruncatesNearStart) {
  const Trajectory t = MakeStraight();
  const std::vector<Vec2> w = t.RecentWindow(1, 5);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.front(), (Vec2{0, 0}));
}

}  // namespace
}  // namespace proxdet
