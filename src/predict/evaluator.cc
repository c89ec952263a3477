#include "predict/evaluator.h"

#include <cmath>

#include "common/timer.h"
#include "exec/thread_pool.h"
#include "geom/polyline.h"

namespace proxdet {

namespace {

/// A sampled (trajectory, anchor) evaluation query. Queries are drawn
/// *serially* from the caller's Rng — the draw sequence is identical to the
/// historical single-threaded scan — and then evaluated in parallel; the
/// expensive part (Predict + geometry) needs no randomness because Predict
/// is a pure function of its inputs (predictor.h contract).
struct EvalQuery {
  size_t traj = 0;
  size_t anchor = 0;
};

/// Draws up to `max_queries` valid queries with the same acceptance rule
/// and Rng consumption as the original serial loops.
std::vector<EvalQuery> DrawQueries(const std::vector<Trajectory>& test,
                                   size_t input_len, size_t output_len,
                                   size_t max_queries, Rng* rng) {
  std::vector<EvalQuery> queries;
  queries.reserve(max_queries);
  for (size_t attempt = 0;
       attempt < max_queries * 4 && queries.size() < max_queries; ++attempt) {
    const size_t traj = rng->NextIndex(test.size());
    if (test[traj].size() < input_len + output_len + 1) continue;
    const size_t anchor =
        input_len - 1 +
        rng->NextIndex(test[traj].size() - input_len - output_len);
    queries.push_back({traj, anchor});
  }
  return queries;
}

}  // namespace

PredictionEvaluation EvaluatePredictor(Predictor* predictor,
                                       const std::vector<Trajectory>& test,
                                       size_t input_len, size_t output_len,
                                       size_t max_queries, Rng* rng) {
  PredictionEvaluation eval;
  eval.per_step_error_m.assign(output_len, 0.0);
  const std::vector<EvalQuery> queries =
      DrawQueries(test, input_len, output_len, max_queries, rng);

  struct QueryResult {
    std::vector<double> step_error;
    double predict_time_us = 0.0;
  };
  const std::vector<QueryResult> results = ParallelMap<QueryResult>(
      queries.size(), [&](size_t qi) {
        const EvalQuery& q = queries[qi];
        const Trajectory& traj = test[q.traj];
        const std::vector<Vec2> recent = traj.RecentWindow(q.anchor, input_len);
        QueryResult out;
        out.step_error.resize(output_len);
        WallTimer timer;
        const std::vector<Vec2> predicted =
            predictor->Predict(recent, output_len);
        out.predict_time_us = timer.ElapsedSeconds() * 1e6;
        for (size_t j = 0; j < output_len; ++j) {
          out.step_error[j] = Distance(predicted[j], traj.at(q.anchor + 1 + j));
        }
        return out;
      });

  // Accumulate in query order: sums match the serial scan bit-for-bit.
  double total_error = 0.0;
  double total_time_us = 0.0;
  size_t total_points = 0;
  for (const QueryResult& r : results) {
    for (size_t j = 0; j < output_len; ++j) {
      eval.per_step_error_m[j] += r.step_error[j];
      total_error += r.step_error[j];
      ++total_points;
    }
    total_time_us += r.predict_time_us;
  }
  eval.query_count = queries.size();
  if (!queries.empty()) {
    eval.mean_predict_time_us =
        total_time_us / static_cast<double>(queries.size());
    for (double& e : eval.per_step_error_m) {
      e /= static_cast<double>(queries.size());
    }
  }
  if (total_points > 0) {
    eval.mean_error_m = total_error / static_cast<double>(total_points);
  }
  return eval;
}

std::vector<double> CalibrateCrossTrackSigmaPerStep(
    Predictor* predictor, const std::vector<Trajectory>& test,
    size_t input_len, size_t horizon, size_t max_queries, Rng* rng) {
  const std::vector<EvalQuery> queries =
      DrawQueries(test, input_len, horizon, max_queries, rng);

  // Per-query cross-track profiles, computed in parallel (the hot part:
  // one Predict plus O(horizon^2) point-to-prefix distances per query).
  const std::vector<std::vector<double>> per_query =
      ParallelMap<std::vector<double>>(queries.size(), [&](size_t qi) {
        const EvalQuery& q = queries[qi];
        const Trajectory& traj = test[q.traj];
        const std::vector<Vec2> recent = traj.RecentWindow(q.anchor, input_len);
        std::vector<Vec2> predicted = predictor->Predict(recent, horizon);
        // The stripe path is anchored at the current location (Sec. V-A).
        // The step-j error is measured against the path *prefix* ending at
        // step j — exactly the region a length-j stripe would enclose.
        predicted.insert(predicted.begin(), recent.back());
        std::vector<double> error(horizon);
        for (size_t j = 1; j <= horizon; ++j) {
          const Polyline prefix(std::vector<Vec2>(
              predicted.begin(), predicted.begin() + j + 1));
          error[j - 1] = prefix.DistanceToPoint(traj.at(q.anchor + j));
        }
        return error;
      });

  std::vector<double> total_error(horizon, 0.0);
  for (const std::vector<double>& error : per_query) {
    for (size_t j = 0; j < horizon; ++j) total_error[j] += error[j];
  }
  const double sqrt_half_pi = 1.2533141373155002512078826;
  std::vector<double> sigma(horizon, 0.0);
  if (queries.empty()) return sigma;
  double running_max = 0.0;  // Enforce monotone growth with the horizon.
  for (size_t j = 0; j < horizon; ++j) {
    const double s = total_error[j] / static_cast<double>(queries.size()) *
                     sqrt_half_pi;
    running_max = std::max(running_max, s);
    sigma[j] = running_max;
  }
  return sigma;
}

double CalibrateCrossTrackSigma(Predictor* predictor,
                                const std::vector<Trajectory>& test,
                                size_t input_len, size_t horizon,
                                size_t max_queries, Rng* rng) {
  const std::vector<double> per_step = CalibrateCrossTrackSigmaPerStep(
      predictor, test, input_len, horizon, max_queries, rng);
  if (per_step.empty()) return 0.0;
  double total = 0.0;
  for (const double s : per_step) total += s;
  return total / static_cast<double>(per_step.size());
}

}  // namespace proxdet
