#include "predict/evaluator.h"

#include <gtest/gtest.h>

#include "predict/linear_predictor.h"

namespace proxdet {
namespace {

/// A test double with a known, constant miss distance: predicts the true
/// future shifted sideways by `offset`.
class OraclePlusOffset : public Predictor {
 public:
  OraclePlusOffset(const Trajectory* truth, Vec2 offset)
      : truth_(truth), offset_(offset) {}

  std::vector<Vec2> Predict(const std::vector<Vec2>& recent,
                            size_t steps) override {
    // Locate "now" on the truth trajectory by matching the last point.
    size_t now = 0;
    double best = 1e18;
    for (size_t i = 0; i < truth_->size(); ++i) {
      const double d = Distance(truth_->at(i), recent.back());
      if (d < best) {
        best = d;
        now = i;
      }
    }
    std::vector<Vec2> out;
    for (size_t j = 1; j <= steps; ++j) {
      const size_t idx = std::min(now + j, truth_->size() - 1);
      out.push_back(truth_->at(idx) + offset_);
    }
    return out;
  }

  std::string name() const override { return "Oracle+offset"; }

 private:
  const Trajectory* truth_;
  Vec2 offset_;
};

Trajectory MakeLine() {
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) pts.push_back({10.0 * i, 0.0});
  return Trajectory(std::move(pts), 1.0);
}

TEST(EvaluatorTest, PerfectPredictorZeroError) {
  const Trajectory line = MakeLine();
  OraclePlusOffset oracle(&line, {0, 0});
  Rng rng(1);
  const PredictionEvaluation eval =
      EvaluatePredictor(&oracle, {line}, 5, 8, 50, &rng);
  EXPECT_GT(eval.query_count, 0u);
  EXPECT_NEAR(eval.mean_error_m, 0.0, 1e-9);
}

TEST(EvaluatorTest, ConstantOffsetMeasuredExactly) {
  const Trajectory line = MakeLine();
  OraclePlusOffset oracle(&line, {0, 7});
  Rng rng(2);
  const PredictionEvaluation eval =
      EvaluatePredictor(&oracle, {line}, 5, 8, 50, &rng);
  EXPECT_NEAR(eval.mean_error_m, 7.0, 1e-9);
  ASSERT_EQ(eval.per_step_error_m.size(), 8u);
  for (const double e : eval.per_step_error_m) EXPECT_NEAR(e, 7.0, 1e-9);
}

TEST(EvaluatorTest, LinearPredictorPerfectOnLinearData) {
  const Trajectory line = MakeLine();
  LinearPredictor p;
  Rng rng(3);
  const PredictionEvaluation eval =
      EvaluatePredictor(&p, {line}, 5, 10, 40, &rng);
  EXPECT_NEAR(eval.mean_error_m, 0.0, 1e-6);
}

TEST(EvaluatorTest, SkipsTooShortTrajectories) {
  const Trajectory tiny(std::vector<Vec2>{{0, 0}, {1, 0}}, 1.0);
  LinearPredictor p;
  Rng rng(4);
  const PredictionEvaluation eval =
      EvaluatePredictor(&p, {tiny}, 5, 10, 20, &rng);
  EXPECT_EQ(eval.query_count, 0u);
  EXPECT_EQ(eval.mean_error_m, 0.0);
}

TEST(EvaluatorTest, CrossTrackIgnoresAlongTrackError) {
  // Predict the truth shifted FORWARD along the path: point error is large
  // but the predicted path overlaps the true one, so cross-track ~ 0.
  const Trajectory line = MakeLine();
  OraclePlusOffset ahead(&line, {50, 0});  // 5 steps ahead along +x.
  Rng rng(6);
  const double point_error =
      EvaluatePredictor(&ahead, {line}, 5, 8, 50, &rng).mean_error_m;
  const double cross_sigma =
      CalibrateCrossTrackSigma(&ahead, {line}, 5, 8, 50, &rng);
  EXPECT_GT(point_error, 40.0);
  EXPECT_NEAR(cross_sigma, 0.0, 1e-6);
}

TEST(EvaluatorTest, CrossTrackSeesLateralError) {
  const Trajectory line = MakeLine();
  OraclePlusOffset side(&line, {0, 9});
  Rng rng(7);
  const double cross_sigma =
      CalibrateCrossTrackSigma(&side, {line}, 5, 8, 50, &rng);
  // The path is anchored at the (true) current point, so the first ramp
  // segment passes closer than 9 m to early truth points; the estimate
  // lands between that ramp effect and the full lateral offset.
  EXPECT_GT(cross_sigma, 7.0);
  EXPECT_LT(cross_sigma, 9.0 * 1.2533141373 + 0.2);
}

}  // namespace
}  // namespace proxdet
