#include "predict/kalman.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"

namespace proxdet {
namespace {

TEST(KalmanFilterTest, ResetInitializesPosition) {
  KalmanFilter2D f(1.0, 0.5, 2.0);
  EXPECT_FALSE(f.initialized());
  f.Reset({3, 4});
  EXPECT_TRUE(f.initialized());
  EXPECT_EQ(f.position(), (Vec2{3, 4}));
  EXPECT_EQ(f.velocity(), (Vec2{0, 0}));
}

TEST(KalmanFilterTest, LearnsConstantVelocity) {
  KalmanFilter2D f(1.0, 0.5, 1.0);
  f.Reset({0, 0});
  for (int i = 1; i <= 20; ++i) {
    f.PredictStep();
    f.UpdateStep({2.0 * i, -1.0 * i});
  }
  EXPECT_NEAR(f.velocity().x, 2.0, 0.1);
  EXPECT_NEAR(f.velocity().y, -1.0, 0.1);
  EXPECT_NEAR(f.position().x, 40.0, 0.5);
}

TEST(KalmanFilterTest, ForecastExtrapolatesState) {
  KalmanFilter2D f(1.0, 0.5, 1.0);
  f.Reset({0, 0});
  for (int i = 1; i <= 20; ++i) {
    f.PredictStep();
    f.UpdateStep({1.0 * i, 0.0});
  }
  const std::vector<Vec2> fc = f.Forecast(5);
  ASSERT_EQ(fc.size(), 5u);
  EXPECT_NEAR(fc[0].x, 21.0, 0.3);
  EXPECT_NEAR(fc[4].x, 25.0, 0.5);
  // Forecast must not mutate the filter.
  EXPECT_NEAR(f.position().x, 20.0, 0.3);
}

TEST(KalmanFilterTest, SmoothsNoisyMeasurements) {
  Rng rng(5);
  KalmanFilter2D f(1.0, 0.1, 5.0);
  f.Reset({0, 0});
  double raw_err = 0.0;
  double filt_err = 0.0;
  for (int i = 1; i <= 200; ++i) {
    const Vec2 truth{3.0 * i, 0.0};
    const Vec2 meas = truth + Vec2{rng.Gaussian(0, 5), rng.Gaussian(0, 5)};
    f.PredictStep();
    f.UpdateStep(meas);
    if (i > 20) {
      raw_err += Distance(meas, truth);
      filt_err += Distance(f.position(), truth);
    }
  }
  EXPECT_LT(filt_err, raw_err * 0.8);  // The filter beats raw measurements.
}

TEST(KalmanFilterTest, UpdateWithoutResetInitializes) {
  KalmanFilter2D f(1.0, 0.5, 2.0);
  f.UpdateStep({7, 8});
  EXPECT_TRUE(f.initialized());
  EXPECT_EQ(f.position(), (Vec2{7, 8}));
}

TEST(KalmanPredictorTest, PredictsStraightLine) {
  KalmanPredictor p(1.0, 0.5, 1.0);
  std::vector<Vec2> recent;
  for (int i = 0; i < 10; ++i) recent.push_back({5.0 * i, 2.0 * i});
  const std::vector<Vec2> out = p.Predict(recent, 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NEAR(out[0].x, 50.0, 1.5);
  EXPECT_NEAR(out[3].x, 65.0, 2.5);
  EXPECT_NEAR(out[3].y, 26.0, 2.5);
}

TEST(KalmanPredictorTest, SinglePointDwells) {
  KalmanPredictor p(1.0, 0.5, 1.0);
  const std::vector<Vec2> out = p.Predict({{3, 3}}, 3);
  ASSERT_EQ(out.size(), 3u);
  for (const Vec2& v : out) EXPECT_NEAR(Distance(v, {3, 3}), 0.0, 1e-6);
}

TEST(KalmanPredictorTest, StatelessAcrossCalls) {
  KalmanPredictor p(1.0, 0.5, 1.0);
  std::vector<Vec2> recent{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<Vec2> a = p.Predict(recent, 2);
  p.Predict({{100, 100}, {90, 90}}, 2);  // Unrelated query in between.
  const std::vector<Vec2> b = p.Predict(recent, 2);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

// Predict replays the state with a gain schedule built once per predictor;
// it must equal the fresh filter's full replay (Reset, then PredictStep +
// UpdateStep per sample, then Forecast) bit for bit. Windows run past the
// schedule's end, over the Kalman tuning grid plus the corners where the
// covariance degenerates: measurement_noise = 0, and dt = 0 with it, where
// det S is 0 at every update and the update is skipped.
TEST(KalmanPredictorTest, GainScheduleReplayIsBitExactWithTheFullFilter) {
  struct Params {
    double dt, q, r;
  };
  std::vector<Params> grid;
  for (const double q : {0.05, 0.2, 0.8, 3.0, 12.0, 50.0}) {
    for (const double r : {2.0, 5.0, 12.0}) grid.push_back({1.0, q, r});
  }
  grid.push_back({1.0, 0.5, 0.0});
  grid.push_back({0.0, 0.5, 0.0});
  grid.push_back({0.0, 0.0, 3.0});
  grid.push_back({2.5, 0.0, 0.0});

  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  Rng rng(2026);
  const size_t max_len = KalmanPredictor::kScheduledSteps + 9;
  for (const Params& p : grid) {
    KalmanPredictor predictor(p.dt, p.q, p.r);
    for (int trial = 0; trial < 60; ++trial) {
      const size_t len = 1 + rng.NextIndex(max_len);
      std::vector<Vec2> recent;
      Vec2 at{rng.Uniform(-5e4, 5e4), rng.Uniform(-5e4, 5e4)};
      for (size_t i = 0; i < len; ++i) {
        switch (rng.NextIndex(6)) {
          case 0:  // Signed zeros.
            at = {rng.NextIndex(2) ? 0.0 : -0.0,
                  rng.NextIndex(2) ? 0.0 : -0.0};
            break;
          case 1:  // A jump.
            at = {rng.Uniform(-5e4, 5e4), rng.Uniform(-5e4, 5e4)};
            break;
          default:
            at += Vec2{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
        }
        recent.push_back(at);
      }
      const size_t steps = rng.NextIndex(25);

      KalmanFilter2D filter(p.dt, p.q, p.r);
      filter.Reset(recent.front());
      for (size_t i = 1; i < recent.size(); ++i) {
        filter.PredictStep();
        filter.UpdateStep(recent[i]);
      }
      const std::vector<Vec2> want = filter.Forecast(steps);
      const std::vector<Vec2> got = predictor.Predict(recent, steps);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits(got[i].x), bits(want[i].x))
            << "dt=" << p.dt << " q=" << p.q << " r=" << p.r
            << " len=" << len << " step " << i;
        ASSERT_EQ(bits(got[i].y), bits(want[i].y))
            << "dt=" << p.dt << " q=" << p.q << " r=" << p.r
            << " len=" << len << " step " << i;
      }
    }
  }
}

}  // namespace
}  // namespace proxdet
