#ifndef PROXDET_PREDICT_KALMAN_H_
#define PROXDET_PREDICT_KALMAN_H_

#include <array>

#include "predict/predictor.h"

namespace proxdet {

/// Standalone constant-velocity Kalman filter over state [x, y, vx, vy] with
/// position-only measurements. Usable on its own for tracking; the
/// KalmanPredictor below wraps it for the Predictor interface.
///
/// Internals are fixed row-major 4x4 / 4-vector arrays (no Matrix heap
/// allocations), bit-exact with the original common/linalg formulation:
/// the products replicate Matrix::Apply's accumulation order and
/// Matrix::operator*'s zero-skip semantics.
class KalmanFilter2D {
 public:
  /// `dt`: seconds between measurements. `process_noise` (sigma_a, m/s^2)
  /// scales the white-acceleration process model; `measurement_noise`
  /// (meters) is the GPS fix standard deviation.
  KalmanFilter2D(double dt, double process_noise, double measurement_noise);

  /// Resets the filter around an initial position with unknown velocity.
  void Reset(const Vec2& position);

  /// Time update: propagates state and covariance one tick.
  void PredictStep();

  /// Measurement update with an observed position.
  void UpdateStep(const Vec2& measurement);

  Vec2 position() const;
  Vec2 velocity() const;

  /// Runs `steps` pure time-updates from the current state without mutating
  /// the filter; returns the predicted positions.
  std::vector<Vec2> Forecast(size_t steps) const;

  bool initialized() const { return initialized_; }

 private:
  friend class KalmanPredictor;

  /// The measurement update's gain K = P H^T S^-1 (4x2, row-major) from the
  /// current covariance; false when det S == 0, where the update is
  /// skipped. Reads nothing but P.
  bool Gain(double k[8]) const;
  /// P <- (I - K H) P.
  void CorrectCovariance(const double k[8]);

  double dt_;
  double f_[16];     // State transition (4x4, row-major).
  double q_[16];     // Process noise covariance (4x4, row-major).
  double r_;         // Measurement noise variance (per axis).
  double state_[4];  // [x, y, vx, vy]
  double p_[16];     // State covariance (4x4, row-major).
  bool initialized_ = false;
};

/// Predictor adapter: replays the recent window through a fresh filter
/// (predict+update per sample, Sec. III-B), then forecasts `steps` ticks.
///
/// The covariance recursion never reads a measurement: from Reset's
/// constant P, step k's gain (and whether its update is skipped) depends
/// only on (dt, process_noise, measurement_noise) and k. The constructor
/// runs the filter's own steps once to record the gains of the first
/// kScheduledSteps updates; Predict then replays only the 4-element state
/// with them, bit for bit the fresh filter's replay. A longer window
/// continues with ordinary filter steps from the stored covariance.
class KalmanPredictor : public Predictor {
 public:
  /// Window updates covered by the gain schedule (the detectors' report
  /// windows hold 10 samples, so 9 updates).
  static constexpr size_t kScheduledSteps = 32;

  KalmanPredictor(double dt, double process_noise, double measurement_noise);

  std::vector<Vec2> Predict(const std::vector<Vec2>& recent,
                            size_t steps) override;

  std::string name() const override { return "KF"; }

 private:
  struct Step {
    double gain[8];
    bool update;  // false: det S == 0, the update is skipped
  };
  /// Covariance after the scheduled steps; its state is never read.
  KalmanFilter2D filter_;
  std::array<Step, kScheduledSteps> schedule_;
};

}  // namespace proxdet

#endif  // PROXDET_PREDICT_KALMAN_H_
