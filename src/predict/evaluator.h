#ifndef PROXDET_PREDICT_EVALUATOR_H_
#define PROXDET_PREDICT_EVALUATOR_H_

#include "common/rng.h"
#include "predict/predictor.h"

namespace proxdet {

/// Accuracy/latency report for one (model, dataset, horizon) combination —
/// the measurements behind Figure 7.
struct PredictionEvaluation {
  /// Mean Euclidean error (meters) over all query points and horizon steps.
  double mean_error_m = 0.0;
  /// Mean error at each horizon step (size = output length).
  std::vector<double> per_step_error_m;
  /// Mean wall-clock time per Predict() call, microseconds.
  double mean_predict_time_us = 0.0;
  size_t query_count = 0;
};

/// Evaluates `predictor` on `test` trajectories: draws up to `max_queries`
/// random (trajectory, anchor) pairs, feeds the `input_len` most recent
/// points and compares the `output_len` predictions with ground truth.
PredictionEvaluation EvaluatePredictor(Predictor* predictor,
                                       const std::vector<Trajectory>& test,
                                       size_t input_len, size_t output_len,
                                       size_t max_queries, Rng* rng);

/// Estimates the sigma that matters for the *time-independent* stripe
/// (Sec. V-A): the cross-track error — the distance from each true future
/// position to the predicted *path* (polyline), not to the per-step
/// predicted point. A user who follows the predicted road slower or faster
/// than assumed has a large point error but stays in the stripe; this
/// calibration reflects that.
double CalibrateCrossTrackSigma(Predictor* predictor,
                                const std::vector<Trajectory>& test,
                                size_t input_len, size_t horizon,
                                size_t max_queries, Rng* rng);

/// Horizon-resolved calibration: element j-1 is the cross-track sigma of
/// the j-th predicted step. Prediction error grows with lookahead, so a
/// stripe enclosing 3 steps deserves a much smaller radius than one
/// enclosing 20 — Algorithm 2 consumes this vector to trade length against
/// thickness per candidate m.
std::vector<double> CalibrateCrossTrackSigmaPerStep(
    Predictor* predictor, const std::vector<Trajectory>& test,
    size_t input_len, size_t horizon, size_t max_queries, Rng* rng);

}  // namespace proxdet

#endif  // PROXDET_PREDICT_EVALUATOR_H_
