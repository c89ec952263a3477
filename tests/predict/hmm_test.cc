#include "predict/hmm.h"

#include <gtest/gtest.h>

namespace proxdet {
namespace {

TEST(GridQuantizerTest, RoundTripCellCenter) {
  const GridQuantizer q(BBox{{0, 0}, {100, 100}}, 10, 10);
  EXPECT_EQ(q.cell_count(), 100);
  const int cell = q.CellOf({25, 75});
  EXPECT_EQ(cell, q.CellOf(q.CenterOf(cell)));
  EXPECT_EQ(q.CenterOf(cell), (Vec2{25, 75}));
}

TEST(GridQuantizerTest, ClampsOutOfExtent) {
  const GridQuantizer q(BBox{{0, 0}, {100, 100}}, 10, 10);
  EXPECT_EQ(q.CellOf({-50, -50}), 0);
  EXPECT_EQ(q.CellOf({500, 500}), 99);
}

TEST(GridQuantizerTest, RowMajorLayout) {
  const GridQuantizer q(BBox{{0, 0}, {100, 100}}, 10, 10);
  EXPECT_EQ(q.CellOf({5, 5}), 0);
  EXPECT_EQ(q.CellOf({95, 5}), 9);
  EXPECT_EQ(q.CellOf({5, 95}), 90);
}

Trajectory MakeLoopTrajectory(int laps) {
  // A rectangular circuit on a 1000m extent; second-order transitions make
  // the direction around the loop predictable.
  std::vector<Vec2> pts;
  for (int lap = 0; lap < laps; ++lap) {
    for (double x = 0; x < 1000; x += 50) pts.push_back({x, 0});
    for (double y = 0; y < 1000; y += 50) pts.push_back({1000, y});
    for (double x = 1000; x > 0; x -= 50) pts.push_back({x, 1000});
    for (double y = 1000; y > 0; y -= 50) pts.push_back({0, y});
  }
  return Trajectory(std::move(pts), 1.0);
}

TEST(HmmPredictorTest, UntrainedFallsBackToLinear) {
  HmmPredictor p(10, 10);
  EXPECT_FALSE(p.trained());
  const std::vector<Vec2> recent{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<Vec2> out = p.Predict(recent, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NEAR(out[1].x, 4.0, 1e-9);
}

TEST(HmmPredictorTest, LearnsLoopDirection) {
  HmmPredictor p(20, 20);
  p.Train({MakeLoopTrajectory(6)});
  ASSERT_TRUE(p.trained());
  // Query: moving right along the bottom edge, far from the corner.
  std::vector<Vec2> recent;
  for (double x = 200; x <= 400; x += 50) recent.push_back({x, 0});
  const std::vector<Vec2> out = p.Predict(recent, 4);
  ASSERT_EQ(out.size(), 4u);
  // Predictions continue rightward (x grows), staying near the bottom edge.
  EXPECT_GT(out.back().x, 400.0);
  EXPECT_LT(out.back().y, 200.0);
}

TEST(HmmPredictorTest, PredictionsMatchUserSpeed) {
  HmmPredictor p(20, 20);
  p.Train({MakeLoopTrajectory(6)});
  std::vector<Vec2> recent;
  for (double x = 200; x <= 400; x += 50) recent.push_back({x, 0});
  const std::vector<Vec2> out = p.Predict(recent, 3);
  // Per-step displacement tracks the recent 50 m/tick speed.
  EXPECT_NEAR(Distance(recent.back(), out[0]), 50.0, 25.0);
}

TEST(HmmPredictorTest, ReturnsRequestedCount) {
  HmmPredictor p(10, 10);
  p.Train({MakeLoopTrajectory(2)});
  const std::vector<Vec2> recent{{100, 0}, {150, 0}};
  EXPECT_EQ(p.Predict(recent, 7).size(), 7u);
}

}  // namespace
}  // namespace proxdet
